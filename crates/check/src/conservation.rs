//! Conservation checking: every issued write must land in the wear map.
//!
//! The paper's lifetime numbers (Eq. 4) come from `WearMap::max_writes`;
//! if the map under- or over-counts, the headline results are wrong while
//! every test still passes. These checks tie the wear map to three
//! independent tallies of the same traffic: the trace's static operation
//! counts, the functional executor's [`ExecStats`], and the fast replay
//! engine's [`SimResult`].
//!
//! [`ExecStats`]: nvpim_array::ExecStats

use nvpim_array::WearMap;
use nvpim_balance::BalanceConfig;
use nvpim_core::sim::simulate_naive;
use nvpim_core::{AnalyticWearEngine, EnduranceSimulator, SimConfig};
use nvpim_workloads::Workload;

use crate::finding::Finding;

const PASS: &str = "conservation";

/// Verifies that a wear map's O(1) cached totals and carried maximum agree
/// with a full per-cell recount, and that the totals match externally
/// expected ones.
///
/// `subject` names the run; `expected` is `(writes, reads)` from an
/// independent tally (`None` skips the external comparison).
#[must_use]
pub fn check_totals(subject: &str, wear: &WearMap, expected: Option<(u64, u64)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (cached_w, cached_r) = (wear.total_writes(), wear.total_reads());
    let (sum_w, sum_r) = (wear.recount_writes(), wear.recount_reads());
    if cached_w != sum_w || cached_r != sum_r {
        findings.push(Finding::new(
            PASS,
            "cached-total-drift",
            subject,
            format!(
                "cached totals (w={cached_w}, r={cached_r}) disagree with per-cell \
                 recount (w={sum_w}, r={sum_r})"
            ),
        ));
    }
    let (carried_max, scanned_max) = (wear.max_writes(), wear.recount_max_writes());
    if carried_max != scanned_max {
        findings.push(Finding::new(
            PASS,
            "cached-max-drift",
            subject,
            format!(
                "carried max-writes {carried_max} disagrees with per-cell recount {scanned_max}"
            ),
        ));
    }
    if let Some((exp_w, exp_r)) = expected {
        if cached_w != exp_w {
            findings.push(Finding::new(
                PASS,
                "write-loss",
                subject,
                format!("wear map holds {cached_w} writes but {exp_w} were issued"),
            ));
        }
        if cached_r != exp_r {
            findings.push(Finding::new(
                PASS,
                "read-loss",
                subject,
                format!("wear map holds {cached_r} reads but {exp_r} were issued"),
            ));
        }
    }
    findings
}

/// Runs `workload` under `config` through both simulator arms and proves
/// write/read conservation end to end:
///
/// 1. the trace's static counts × iterations predict the issued traffic;
/// 2. the fast replay engine's wear map must hold exactly that traffic;
/// 3. the naive cell-by-cell executor must land on the same totals
///    (its per-call stats-vs-wear invariant is additionally enforced
///    inside `PimArray::execute` itself).
#[must_use]
pub fn verify_conservation(
    workload: &Workload,
    config: BalanceConfig,
    cfg: SimConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let subject = format!("{}/{config}", workload.name());
    let counts = workload.trace().counts(cfg.arch);
    let expected_writes = cfg.iterations * counts.cell_writes;

    // Fast (replay) arm.
    let sim = EnduranceSimulator::new(cfg);
    let result = sim.run(workload, config);
    // Reads are only tracked when the config asks for them; writes always.
    let expected_reads = result.wear.total_reads();
    findings.extend(check_totals(
        &format!("{subject}/replay"),
        &result.wear,
        Some((expected_writes, expected_reads)),
    ));

    // Naive (reference) arm must conserve the identical totals. Unlike the
    // replay arm it always books reads, so both directions are pinned to
    // the trace's static counts here.
    let naive = simulate_naive(workload, config, cfg);
    findings.extend(check_totals(
        &format!("{subject}/naive"),
        &naive,
        Some((expected_writes, cfg.iterations * counts.cell_reads)),
    ));

    // The two arms must agree on the headline statistic too — not just the
    // totals but the lifetime-limiting maximum.
    if naive.total_writes() != result.wear.total_writes() {
        findings.push(Finding::new(
            PASS,
            "arm-divergence",
            subject.clone(),
            format!(
                "naive arm booked {} writes, replay arm {}",
                naive.total_writes(),
                result.wear.total_writes()
            ),
        ));
    }
    if naive.max_writes() != result.wear.max_writes() {
        findings.push(Finding::new(
            PASS,
            "arm-divergence",
            subject,
            format!(
                "naive arm max-writes {} differs from replay arm {}",
                naive.max_writes(),
                result.wear.max_writes()
            ),
        ));
    }

    findings
}

/// Proves the epoch-compiled `+Hw` kernel path is bit-identical to
/// per-iteration step replay, and that the replay-free analytic engine
/// agrees with both: the same workload and configuration run once with
/// kernels enabled, once with them disabled, and once through
/// [`AnalyticWearEngine::wear_at`], and every cell's write and read
/// tallies — plus the lifetime-limiting maximum — must match exactly.
/// Analytic findings name the engine path (`closed_form` or `lazy`) so a
/// divergence points at the right algebra.
#[must_use]
pub fn verify_kernel_equivalence(
    workload: &Workload,
    config: BalanceConfig,
    cfg: SimConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let subject = format!("{}/{config}", workload.name());
    let compiled = EnduranceSimulator::new(cfg.with_hw_kernels(true)).run(workload, config);
    let replayed = EnduranceSimulator::new(cfg.with_hw_kernels(false)).run(workload, config);
    let mut engine = AnalyticWearEngine::new(workload, config, cfg);
    let path = engine.path();
    let analytic = engine.wear_at(cfg.iterations);
    // The analytic rungs build their answers through whole-plane passes
    // that carry the maximum; it must agree with a recount.
    findings.extend(check_totals(&format!("{subject}/analytic-{path}"), &analytic, None));

    let dims = workload.trace().dims();
    let mut divergent = 0usize;
    let mut first = None;
    let mut analytic_divergent = 0usize;
    let mut analytic_first = None;
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            let (cw, rw) = (compiled.wear.writes_at(row, lane), replayed.wear.writes_at(row, lane));
            let (cr, rr) = (compiled.wear.reads_at(row, lane), replayed.wear.reads_at(row, lane));
            if cw != rw || cr != rr {
                divergent += 1;
                first.get_or_insert((row, lane, cw, rw, cr, rr));
            }
            let (aw, ar) = (analytic.writes_at(row, lane), analytic.reads_at(row, lane));
            if aw != cw || ar != cr {
                analytic_divergent += 1;
                analytic_first.get_or_insert((row, lane, aw, cw, ar, cr));
            }
        }
    }
    if let Some((row, lane, cw, rw, cr, rr)) = first {
        findings.push(Finding::new(
            PASS,
            "kernel-divergence",
            subject.clone(),
            format!(
                "{divergent} cell(s) differ between compiled-kernel and step-replay arms; \
                 first at ({row},{lane}): writes {cw} vs {rw}, reads {cr} vs {rr}"
            ),
        ));
    }
    if compiled.wear.max_writes() != replayed.wear.max_writes() {
        findings.push(Finding::new(
            PASS,
            "kernel-divergence",
            subject.clone(),
            format!(
                "compiled-kernel max-writes {} differs from step-replay {}",
                compiled.wear.max_writes(),
                replayed.wear.max_writes()
            ),
        ));
    }
    if let Some((row, lane, aw, cw, ar, cr)) = analytic_first {
        findings.push(Finding::new(
            PASS,
            "analytic-divergence",
            subject.clone(),
            format!(
                "{analytic_divergent} cell(s) differ between the analytic engine ({path}) and \
                 the compiled arm; first at ({row},{lane}): writes {aw} vs {cw}, reads {ar} vs {cr}"
            ),
        ));
    }
    if analytic.max_writes() != compiled.wear.max_writes() {
        findings.push(Finding::new(
            PASS,
            "analytic-divergence",
            subject,
            format!(
                "analytic ({path}) max-writes {} differs from compiled-kernel {}",
                analytic.max_writes(),
                compiled.wear.max_writes()
            ),
        ));
    }

    findings
}
