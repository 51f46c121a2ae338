//! The check driver: enumerates the circuit library and the strategy
//! matrix, runs every pass family, and aggregates a [`Report`].

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule, Strategy, StrategyMapper};
use nvpim_core::SimConfig;
use nvpim_logic::{circuits, Circuit, CircuitBuilder};
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::parallel_mul::ParallelMul;

use nvpim_logic::opt::{PassManager, PassStatus};

use crate::equiv::{self, EquivOptions};
use crate::finding::{Finding, Report};
use crate::{conservation, mapping, netlist, store, wearcost};

/// What to check and how hard.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Operand widths at which every width-parametric circuit is built.
    pub widths: Vec<usize>,
    /// Balance configurations for the mapping and conservation passes.
    pub configs: Vec<BalanceConfig>,
    /// Epoch boundaries to verify per configuration.
    pub epochs: u64,
    /// Seed for every seeded mapper.
    pub seed: u64,
    /// Iterations for the (comparatively expensive) conservation runs.
    pub conservation_iters: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            widths: vec![4, 8, 16, 32],
            configs: BalanceConfig::all(),
            epochs: 4,
            seed: 42,
            conservation_iters: 24,
        }
    }
}

/// One library circuit instance: its name, the built netlist, and the
/// number of *documented* dead gates the paper's cost model creates.
///
/// The FA-based NAND scheme prices a full adder at 9 gates regardless of
/// which of its outputs a composition consumes, so some builders strand
/// exactly one gate per discarded FA output (§3.2's cost formulas count
/// them — removing them would break the paper's gate arithmetic). Those
/// stranded gates are expected *in those exact numbers*; anything beyond
/// the allowance is a real leak.
pub struct LibraryCircuit {
    /// Display name, e.g. `multiply(w=8)`.
    pub name: String,
    /// The built netlist.
    pub circuit: Circuit,
    /// Exactly how many dead gates this circuit is documented to contain.
    pub allowed_dead: usize,
    /// Why the allowance exists (empty when `allowed_dead == 0`).
    pub reason: &'static str,
}

fn lib(
    name: String,
    circuit: Circuit,
    allowed_dead: usize,
    reason: &'static str,
) -> LibraryCircuit {
    LibraryCircuit { name, circuit, allowed_dead, reason }
}

/// Builds every circuit in `crates/logic/src/circuits/` at width `w`.
#[must_use]
// Builder-idiom locals (b, x, y, w) are clearest single-character here.
#[allow(clippy::too_many_lines, clippy::many_single_char_names)]
pub fn library_at_width(w: usize) -> Vec<LibraryCircuit> {
    let mut out = Vec::new();

    // adder
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let sum = circuits::ripple_carry_add(&mut b, &x, &y);
    b.mark_outputs(&sum);
    out.push(lib(format!("adder(w={w})"), b.build(), 0, ""));

    // subtractor
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let (diff, no_borrow) = circuits::ripple_subtract(&mut b, &x, &y);
    b.mark_outputs(&diff);
    b.mark_output(no_borrow);
    out.push(lib(format!("subtract(w={w})"), b.build(), 0, ""));

    // negate: drops the final borrow — one stranded FA carry gate.
    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let neg = circuits::negate(&mut b, &x);
    b.mark_outputs(&neg);
    out.push(lib(
        format!("negate(w={w})"),
        b.build(),
        1,
        "negation discards the subtractor's borrow-out; its FA carry gate is priced anyway \
         (the `dce` optimizer pass removes it)",
    ));

    // absolute difference: the second subtract's borrow is discarded.
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let ad = circuits::absolute_difference(&mut b, &x, &y);
    b.mark_outputs(&ad);
    out.push(lib(
        format!("absolute_difference(w={w})"),
        b.build(),
        1,
        "|x-y| only needs the first subtract's borrow; the second one's carry gate is priced \
         anyway (the `dce` optimizer pass removes it)",
    ));

    // multiplier (the DADDA scheme needs at least two bits).
    if w >= 2 {
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.inputs(w), b.inputs(w));
        let prod = circuits::multiply(&mut b, &x, &y);
        b.mark_outputs(&prod);
        out.push(lib(format!("multiply(w={w})"), b.build(), 0, ""));
    }

    // divider: each of the w trial subtracts runs at width w+1 but only
    // the low w difference bits are restorable — one stranded FA sum
    // gate per step.
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let (q, r) = circuits::divide(&mut b, &x, &y);
    b.mark_outputs(&q);
    b.mark_outputs(&r);
    out.push(lib(
        format!("divide(w={w})"),
        b.build(),
        w,
        "each trial subtract's top difference bit is unused; its FA sum gate is priced anyway \
         (the `dce` optimizer pass removes it)",
    ));

    // comparator: keeps only the carry chain — one stranded sum gate per FA.
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let ge = circuits::greater_equal(&mut b, &x, &y);
    b.mark_output(ge);
    out.push(lib(
        format!("greater_equal(w={w})"),
        b.build(),
        w,
        "comparison keeps only FA carries; the 10w-gate cost (§3.2) prices the sum gates anyway \
         (the `dce` optimizer pass removes them)",
    ));

    // popcount
    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let cnt = circuits::popcount(&mut b, &x);
    b.mark_outputs(&cnt);
    out.push(lib(format!("popcount(w={w})"), b.build(), 0, ""));

    // xnor word (the BNN kernel's first half)
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let xn = circuits::xnor_word(&mut b, &x, &y);
    b.mark_outputs(&xn);
    out.push(lib(format!("xnor_word(w={w})"), b.build(), 0, ""));

    // select
    let mut b = CircuitBuilder::new();
    let sel = b.input();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let m = circuits::mux_word(&mut b, sel, &x, &y);
    b.mark_outputs(&m);
    out.push(lib(format!("mux_word(w={w})"), b.build(), 0, ""));

    // shifter: constant shifts are gate-free relabelings; the barrel
    // shifter spends one mux stage per amount bit.
    let stages = w.trailing_zeros().max(1) as usize;
    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let amount = b.inputs(stages);
    let sh = circuits::barrel_shift_left(&mut b, &x, &amount);
    b.mark_outputs(&sh);
    out.push(lib(format!("barrel_shift_left(w={w})"), b.build(), 0, ""));

    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let l = circuits::shift_left_const(&mut b, &x, w / 2);
    let r = circuits::shift_right_const(&mut b, &x, w / 2);
    b.mark_outputs(&l);
    b.mark_outputs(&r);
    out.push(lib(format!("shift_const(w={w})"), b.build(), 0, ""));

    // shuffle
    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let c = circuits::copy_word(&mut b, &x);
    b.mark_outputs(&c);
    out.push(lib(format!("copy_word(w={w})"), b.build(), 0, ""));

    let mut b = CircuitBuilder::new();
    let x = b.inputs(w);
    let nn = circuits::not_not_word(&mut b, &x);
    b.mark_outputs(&nn);
    out.push(lib(format!("not_not_word(w={w})"), b.build(), 0, ""));

    out
}

/// Netlist-verifies one library circuit, demoting exactly-matching
/// dead-gate allowances to notes.
fn check_library_circuit(entry: &LibraryCircuit, report: &mut Report) {
    let findings = netlist::verify_circuit(&entry.name, &entry.circuit);
    report.bump_checks(netlist::checks_for(&entry.circuit));
    let (dead, other): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.code == "dead-gate");
    report.extend(other);
    if dead.len() == entry.allowed_dead {
        if !dead.is_empty() {
            report.note(format!(
                "{}: {} documented dead gate(s) — {}",
                entry.name,
                dead.len(),
                entry.reason
            ));
        }
    } else {
        report.push(Finding::new(
            "netlist",
            "dead-gate-allowance",
            entry.name.clone(),
            format!(
                "{} dead gates found, but the documented allowance is {}",
                dead.len(),
                entry.allowed_dead
            ),
        ));
        report.extend(dead);
    }

    // Structural identity: every bit is an input, a constant, or a gate
    // output — nothing else can define one.
    let c = &entry.circuit;
    let accounted = c.input_bits().len() + c.constant_bits().len() + c.gates().len();
    report.bump_checks(1);
    if accounted != c.num_bits() as usize {
        report.push(Finding::new(
            "netlist",
            "bit-accounting",
            entry.name.clone(),
            format!("{} bits allocated but {accounted} definitions exist", c.num_bits()),
        ));
    }
}

/// Cross-checks the built circuits against the §3.2 closed-form cost
/// formulas in `nvpim_logic::counts` — the netlist pass's
/// "operand-width consistency" obligation: a width-w composition must
/// spend exactly the gates its width says it must.
#[allow(clippy::many_single_char_names)]
fn check_cost_formulas(w: usize, report: &mut Report) {
    use nvpim_logic::counts;
    let wu = w as u64;
    let mut expect = |name: String, circuit: &Circuit, gates: u64, reads: Option<u64>| {
        report.bump_checks(1);
        let stats = circuit.stats();
        if stats.total_gates() != gates {
            report.push(Finding::new(
                "netlist",
                "count-mismatch",
                name.clone(),
                format!("{} gates built, formula predicts {gates}", stats.total_gates()),
            ));
        }
        if let Some(reads) = reads {
            report.bump_checks(1);
            if stats.cell_reads() != reads {
                report.push(Finding::new(
                    "netlist",
                    "count-mismatch",
                    name,
                    format!("{} cell reads built, formula predicts {reads}", stats.cell_reads()),
                ));
            }
        }
    };

    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let sum = circuits::ripple_carry_add(&mut b, &x, &y);
    b.mark_outputs(&sum);
    expect(
        format!("adder(w={w})"),
        &b.build(),
        counts::add_gate_writes(wu),
        Some(counts::add_cell_reads(wu)),
    );

    if w >= 2 {
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.inputs(w), b.inputs(w));
        let prod = circuits::multiply(&mut b, &x, &y);
        b.mark_outputs(&prod);
        expect(
            format!("multiply(w={w})"),
            &b.build(),
            counts::mul_gate_writes(wu),
            Some(counts::mul_cell_reads(wu)),
        );
    }

    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let ge = circuits::greater_equal(&mut b, &x, &y);
    b.mark_output(ge);
    expect(format!("greater_equal(w={w})"), &b.build(), 10 * wu, None);

    let mut b = CircuitBuilder::new();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let (q, r) = circuits::divide(&mut b, &x, &y);
    b.mark_outputs(&q);
    b.mark_outputs(&r);
    expect(format!("divide(w={w})"), &b.build(), wu * (13 * wu + 11), None);

    let mut b = CircuitBuilder::new();
    let sel = b.input();
    let (x, y) = (b.inputs(w), b.inputs(w));
    let m = circuits::mux_word(&mut b, sel, &x, &y);
    b.mark_outputs(&m);
    expect(format!("mux_word(w={w})"), &b.build(), 3 * wu + 1, None);
}

/// Runs the netlist pass: every library circuit at every requested width,
/// plus the §3.2 cost-formula cross-checks.
pub fn run_netlist_pass(opts: &CheckOptions, report: &mut Report) {
    for &w in &opts.widths {
        for entry in library_at_width(w) {
            check_library_circuit(&entry, report);
        }
        check_cost_formulas(w, report);
    }
}

/// One row of the writes-per-op optimization summary: seed vs optimized
/// cell accesses for a library circuit, plus the method that proved (or
/// vetted) the equivalence.
#[derive(Debug, Clone)]
pub struct OptimizationRow {
    /// Circuit name, e.g. `multiply(w=8)`.
    pub name: String,
    /// Cell writes of the seed (NAND-scheme) netlist.
    pub writes_before: u64,
    /// Cell writes after optimization.
    pub writes_after: u64,
    /// Cell reads of the seed netlist.
    pub reads_before: u64,
    /// Cell reads after optimization.
    pub reads_after: u64,
    /// How the end-to-end equivalence was established.
    pub method: String,
}

impl OptimizationRow {
    /// Write reduction as a percentage of the seed count (0 for gate-free
    /// circuits).
    #[must_use]
    pub fn reduction_percent(&self) -> f64 {
        if self.writes_before == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)] // gate counts are far below 2^52
        {
            100.0 * (self.writes_before - self.writes_after) as f64 / self.writes_before as f64
        }
    }
}

/// Renders optimization rows as an aligned text table.
#[must_use]
pub fn render_opt_table(rows: &[OptimizationRow]) -> String {
    use std::fmt::Write;
    let name_width = rows.iter().map(|r| r.name.len()).max().unwrap_or(7).max(7);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>8}  {:>8}  {:>7}  equivalence",
        "circuit", "writes", "opt", "saved"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>8}  {:>8}  {:>6.1}%  {}",
            r.name,
            r.writes_before,
            r.writes_after,
            r.reduction_percent(),
            r.method
        );
    }
    out
}

/// Optimizes one library circuit under the formal gate and verifies the
/// whole obligation chain: per-pass gating, end-to-end equivalence,
/// netlist cleanliness with *zero* dead-gate allowance, and the static
/// wear-cost cross-checks.
fn check_optimized_circuit(
    entry: &LibraryCircuit,
    w: usize,
    eopts: &EquivOptions,
    report: &mut Report,
) -> OptimizationRow {
    let gate = equiv::FormalGate::new(eopts.clone());
    let manager = PassManager::new(&gate);
    let outcome = manager.run(&entry.circuit);

    // Every pass application was gated; a rejection means a pass proposed
    // a circuit that computes a different function.
    report.bump_checks(outcome.applications.len() as u64);
    for app in &outcome.applications {
        if let PassStatus::Rejected(failure) = &app.status {
            report.push(Finding::new(
                "equiv",
                "pass-rejected",
                entry.name.clone(),
                format!("pass `{}` (round {}) rejected: {failure}", app.pass, app.round),
            ));
        }
    }

    // End-to-end: the final circuit against the untouched seed.
    report.bump_checks(1);
    let (verdict, findings) =
        equiv::equivalence_findings(&entry.name, &entry.circuit, &outcome.optimized, eopts);
    report.extend(findings);

    // Optimized netlists carry a zero dead-gate allowance: `dce` must have
    // removed every stranded gate the seed circuit was documented to hold.
    let opt_name = format!("{} [optimized]", entry.name);
    report.bump_checks(netlist::checks_for(&outcome.optimized));
    report.extend(netlist::verify_circuit(&opt_name, &outcome.optimized));

    wearcost::verify_optimized_cost(&entry.name, w, &entry.circuit, &outcome, report);

    let seed_stats = entry.circuit.stats();
    let opt_stats = outcome.optimized.stats();
    OptimizationRow {
        name: entry.name.clone(),
        writes_before: seed_stats.cell_writes(),
        writes_after: opt_stats.cell_writes(),
        reads_before: seed_stats.cell_reads(),
        reads_after: opt_stats.cell_reads(),
        method: verdict.method.describe(),
    }
}

/// Runs the equivalence/optimization pass: every library circuit at every
/// requested width through optimize-then-prove, returning the
/// writes-per-op rows for reporting.
pub fn run_equiv_pass(opts: &CheckOptions, report: &mut Report) -> Vec<OptimizationRow> {
    let eopts = EquivOptions { seed: opts.seed, ..EquivOptions::default() };
    let mut rows = Vec::new();
    for &w in &opts.widths {
        let mut before = 0u64;
        let mut after = 0u64;
        let mut circuits = 0usize;
        for entry in library_at_width(w) {
            let row = check_optimized_circuit(&entry, w, &eopts, report);
            before += row.writes_before;
            after += row.writes_after;
            circuits += 1;
            rows.push(row);
        }
        #[allow(clippy::cast_precision_loss)] // gate counts are far below 2^52
        let saved = if before == 0 { 0.0 } else { 100.0 * (before - after) as f64 / before as f64 };
        report.note(format!(
            "equiv(w={w}): {circuits} circuits optimized and proven, \
             {before} → {after} writes/op (−{saved:.1}%)"
        ));
    }
    rows
}

/// Runs the mapping pass: every configured [`BalanceConfig`] across epoch
/// boundaries, every bare [`StrategyMapper`], Start-Gap, and a standalone
/// `Hw` redirect storm.
pub fn run_mapping_pass(opts: &CheckOptions, report: &mut Report) {
    let (rows, lanes) = (64, 16);
    for &config in &opts.configs {
        report.extend(mapping::verify_balance_config(config, rows, lanes, opts.seed, opts.epochs));
        report.bump_checks(opts.epochs + 1);
    }
    for strategy in Strategy::ALL {
        let mut mapper = StrategyMapper::new(strategy, rows, opts.seed);
        report.extend(mapping::verify_strategy_mapper(
            &format!("{strategy}({rows})"),
            &mut mapper,
            opts.epochs,
        ));
        report.bump_checks(opts.epochs + 1);
    }
    report.extend(mapping::verify_start_gap(16, 4, 64));
    report.bump_checks(65);
    report.extend(mapping::verify_hw_remapper(rows, 2 * rows));
    report.bump_checks(2 * rows as u64);
}

/// Runs the conservation pass: one small workload through both simulator
/// arms under every configured [`BalanceConfig`].
pub fn run_conservation_pass(opts: &CheckOptions, report: &mut Report) {
    let workload = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper().with_iterations(opts.conservation_iters).with_seed(opts.seed);
    for &config in &opts.configs {
        report.extend(conservation::verify_conservation(&workload, config, cfg));
        report.bump_checks(4);
    }

    // The production simulator must be bit-identical to the step-replay
    // oracle, and the replay-free analytic engine to both. A period
    // of 5 against `conservation_iters = 24` crosses four full software
    // epochs plus a partial final one, so the cycle-power fold, the
    // short-span tail, and the analytic super-cycle fold (four one-epoch
    // super-cycles of `StxSt`/`StxSt+Hw` plus a remainder) are all
    // exercised. Every configuration runs — non-Hw maps skip the kernel
    // engine but still pin the analytic closed-form/lazy paths.
    // mul has no partial lane class, so conv 4x3w8 runs too: its first
    // stride-4 class is written, so each fold merges that class's stage
    // into a remainder that ends mid-epoch — a lane-set key under
    // `StxSt(+Hw)`, and under `StxBs` (two-epoch super-cycles over 16
    // lanes: two folded, plus 4 iterations) a row phase's lane counts.
    let kernel_cfg = cfg.with_schedule(RemapSchedule::every(5)).with_read_tracking(true);
    let conv = Convolution::new(ArrayDims::new(640, 16), 4, 3, 8).build();
    for workload in [&workload, &conv] {
        for &config in &opts.configs {
            report.extend(conservation::verify_kernel_equivalence(workload, config, kernel_cfg));
            report.bump_checks(4);
        }
    }
}

/// Runs the store pass: every configured [`BalanceConfig`] cross-checked
/// for wear bit-identity against the step-replay oracle with the artifact
/// store process-wide, cold, warm, and starved to a 1-byte budget. A period
/// of 5 against
/// `conservation_iters = 24` keeps several software epochs in play so
/// panel and kernel artifacts are actually built and reused.
pub fn run_store_pass(opts: &CheckOptions, report: &mut Report) {
    let workload = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper()
        .with_iterations(opts.conservation_iters)
        .with_seed(opts.seed)
        .with_schedule(RemapSchedule::every(5))
        .with_read_tracking(true);
    for &config in &opts.configs {
        report.extend(store::verify_store_equivalence(&workload, config, cfg));
        // Five obligations per configuration: the simulator vs the oracle,
        // three analytic store regimes, and the eviction-leak bound.
        report.bump_checks(5);
    }
}

/// Runs every pass family over the full library and strategy matrix.
///
/// If a process-wide [`nvpim_obs::Observer`] is installed, headline tallies
/// are emitted as `check.*` counters.
#[must_use]
pub fn run_all(opts: &CheckOptions) -> Report {
    let mut report = Report::new();
    run_netlist_pass(opts, &mut report);
    let _ = run_equiv_pass(opts, &mut report);
    run_mapping_pass(opts, &mut report);
    run_conservation_pass(opts, &mut report);
    run_store_pass(opts, &mut report);

    if let Some(obs) = nvpim_obs::observer::current() {
        use nvpim_obs::EventSink;
        obs.record(&nvpim_obs::Event::CounterAdd { name: "check.checks", delta: report.checks });
        obs.record(&nvpim_obs::Event::CounterAdd {
            name: "check.findings",
            delta: report.findings.len() as u64,
        });
        obs.record(&nvpim_obs::Event::CounterAdd {
            name: "check.notes",
            delta: report.notes.len() as u64,
        });
    }

    report
}
