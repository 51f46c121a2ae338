//! Store equivalence checking: memoization must never change results.
//!
//! The content-addressed artifact store (`nvpim_core::artifacts`) lets
//! the analytic and kernel engines share trace walks, logical panels, and
//! compiled `+Hw` kernels across configuration cells. That reuse is only
//! sound if a cache hit returns *exactly* what recomputation would have
//! produced — in every regime the store can be in. This pass pins the
//! claim per configuration by running the same workload with the store
//! off (the reference), cold (all misses), warm (all hits), and starved
//! to a 1-byte budget (every insert immediately evicted), plus the
//! simulator's own store-on/store-off pair, and demanding per-cell bit
//! identity throughout.

use nvpim_array::WearMap;
use nvpim_balance::BalanceConfig;
use nvpim_core::{AnalyticWearEngine, ArtifactStore, EnduranceSimulator, SimConfig};
use nvpim_workloads::Workload;

use crate::finding::Finding;

const PASS: &str = "store";

/// Byte budget comfortably above anything a check-sized workload builds,
/// so the roomy store never evicts and warm lookups are genuine hits.
const ROOMY_BUDGET: usize = 64 << 20;

/// Compares `candidate` against `reference` cell by cell (writes and
/// reads) and on the lifetime-limiting maximum; any disagreement is a
/// finding naming the first divergent cell.
fn compare_maps(
    subject: &str,
    code: &'static str,
    arm: &str,
    reference: &WearMap,
    candidate: &WearMap,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let dims = reference.dims();
    let mut divergent = 0usize;
    let mut first = None;
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            let (ew, cw) = (reference.writes_at(row, lane), candidate.writes_at(row, lane));
            let (er, cr) = (reference.reads_at(row, lane), candidate.reads_at(row, lane));
            if ew != cw || er != cr {
                divergent += 1;
                first.get_or_insert((row, lane, ew, cw, er, cr));
            }
        }
    }
    if let Some((row, lane, ew, cw, er, cr)) = first {
        findings.push(Finding::new(
            PASS,
            code,
            subject.to_owned(),
            format!(
                "{divergent} cell(s) differ between the {arm} arm and the store-off reference; \
                 first at ({row},{lane}): writes {cw} vs {ew}, reads {cr} vs {er}"
            ),
        ));
    }
    if reference.max_writes() != candidate.max_writes() {
        findings.push(Finding::new(
            PASS,
            code,
            subject.to_owned(),
            format!(
                "{arm} max-writes {} differs from store-off reference {}",
                candidate.max_writes(),
                reference.max_writes()
            ),
        ));
    }
    findings
}

/// Cross-checks store-on against store-off wear for one configuration:
///
/// 1. the replay simulator with the process-wide store enabled vs
///    disabled (`+Hw` cells exercise the kernel-memoization path; others
///    prove turning the knob is inert);
/// 2. the analytic engine against cold, warm, and permanently-evicting
///    private stores — the miss, hit, and eviction regimes in isolation.
///
/// Every arm must be bit-identical, per cell, to the store-off reference.
#[must_use]
pub fn verify_store_equivalence(
    workload: &Workload,
    config: BalanceConfig,
    cfg: SimConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let subject = format!("{}/{config}", workload.name());
    let off = cfg.with_artifact_store(false);

    // Simulator pair: the process-wide store on vs off.
    let plain = EnduranceSimulator::new(off).run(workload, config);
    let stored = EnduranceSimulator::new(cfg.with_artifact_store(true)).run(workload, config);
    findings.extend(compare_maps(
        &subject,
        "sim-store-divergence",
        "store-on simulator",
        &plain.wear,
        &stored.wear,
    ));

    // Analytic arms against private stores, so each regime is exercised
    // deterministically regardless of what else ran in this process.
    let reference = AnalyticWearEngine::new(workload, config, off).wear_at(off.iterations);
    let roomy = ArtifactStore::new(ROOMY_BUDGET);
    let cold =
        AnalyticWearEngine::new_with_store(workload, config, off, &roomy).wear_at(off.iterations);
    findings.extend(compare_maps(
        &subject,
        "store-divergence",
        "cold-store analytic",
        &reference,
        &cold,
    ));
    // Same store again: every lookup that missed above now hits.
    let warm =
        AnalyticWearEngine::new_with_store(workload, config, off, &roomy).wear_at(off.iterations);
    findings.extend(compare_maps(
        &subject,
        "store-divergence",
        "warm-store analytic",
        &reference,
        &warm,
    ));
    // A 1-byte budget evicts every insert on arrival: the store degrades
    // to build-always and must still be invisible in the results.
    let starved = ArtifactStore::new(1);
    let evicted =
        AnalyticWearEngine::new_with_store(workload, config, off, &starved).wear_at(off.iterations);
    findings.extend(compare_maps(
        &subject,
        "eviction-divergence",
        "evicting-store analytic",
        &reference,
        &evicted,
    ));
    let stats = starved.stats().total();
    if stats.entries != 0 || stats.bytes != 0 {
        findings.push(Finding::new(
            PASS,
            "eviction-leak",
            subject.clone(),
            format!(
                "1-byte-budget store retains {} entries / {} bytes after the run",
                stats.entries, stats.bytes
            ),
        ));
    }

    findings
}
