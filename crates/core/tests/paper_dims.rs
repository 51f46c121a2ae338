//! Bit-identity of every rung at the paper's array dimensions.
//!
//! The other suites pin the analytic engine against step replay at small
//! dims; this one runs the 1024×1024 array that paper-scale runs use, on
//! the per-epoch paths that stage wear in row space and render each
//! partial lane class once per distinct lane set or row phase: the lazy
//! software rung (`RaxRa`, `StxRa`, `BsxRa`, `RaxBs`) and the lazy
//! hardware rung (`BsxRa+Hw`, plus every `Ra`-rows `+Hw` config —
//! `RaxRa+Hw`, `RaxSt+Hw`, `RaxBs+Hw` — whose one kernel is relabeled
//! through a fresh random row table every epoch), plus the super-cycle fold
//! of the periodic configs (`StxSt`, `StxSt+Hw`, and byte-shift configs
//! whose 128-epoch super-cycles wrap), which merges whole super-cycles'
//! stages into a remainder that ends mid-epoch and renders each staged
//! (class, key) once. The workloads are mul32 (no partial class),
//! conv4x3w8 (stride-4 partial classes, which a byte shift maps onto
//! themselves) and dot1024x32 (block partial classes, which it does
//! not). Every answer is compared cell for cell against the step-replay
//! oracle (`run_reference`), and its hottest cell against both replay's
//! and its own recount. 300 iterations remapped every 100 change the lane
//! table mid-run, and the query order 200 → 300 → 100 covers a follow-up
//! query after a flush and a restart from the seed. Remapping every
//! iteration wraps the 128 byte-shift lane sets and row phases, and 250
//! iterations end on a short epoch that weights the lane counts by its
//! span. Under `Ra` lanes, 255 iterations remapped every 10 stage one full
//! batch of 16 epochs and end in a partial batch with a mid-epoch tail, on
//! the analytic walker and the simulator's compiled `+Hw` path, with one
//! lane render per (written class, epoch). The lifetime-only query (`max_writes_at`) must return step
//! replay's maximum and `result_at`'s counters on every mul32 config, where
//! it reads the stage, and on conv/dot, where it renders, and the §5 sweep
//! built on it must equal the simulator's bit for bit. `scripts/ci.sh` runs
//! it in release mode.

use nvpim_array::wear::plane_reuse;
use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{AnalyticPath, AnalyticWearEngine};
use nvpim_core::{sweep, EnduranceSimulator, LifetimeModel, SimConfig};
use nvpim_obs::Observer;
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn dims() -> ArrayDims {
    ArrayDims::new(1024, 1024)
}

/// mul32 (one class, spanning every lane), conv4x3w8 (one full-lane class
/// plus the four stride-4 ones) and dot1024x32 (one full-lane class plus 21
/// partial ones), with the class shapes the row-space stage depends on
/// asserted.
fn paper_workloads() -> Vec<(&'static str, Workload)> {
    let lanes = dims().lanes();
    let mul = ParallelMul::new(dims(), 32).build();
    let conv = Convolution::new(dims(), 4, 3, 8).build();
    let dot = DotProduct::new(dims(), 1024, 32).build();
    let full_classes =
        |wl: &Workload| wl.trace().classes().iter().filter(|c| c.count() == lanes).count();
    assert_eq!(mul.trace().classes().len(), 1, "mul32 has one lane class");
    assert_eq!(full_classes(&mul), 1, "mul32's class spans every lane");
    assert_eq!(conv.trace().classes().len(), 5, "conv4x3w8 has 5 lane classes");
    assert_eq!(full_classes(&conv), 1, "conv4x3w8 has 4 partial classes");
    for (k, class) in conv.trace().classes().iter().filter(|c| c.count() < lanes).enumerate() {
        let want: Vec<usize> = (k..lanes).step_by(4).collect();
        assert_eq!(
            class.iter().collect::<Vec<_>>(),
            want,
            "conv4x3w8 class {k}: lanes ≡ {k} (mod 4)"
        );
    }
    assert_eq!(dot.trace().classes().len(), 22, "dot1024x32 has 22 lane classes");
    assert_eq!(full_classes(&dot), 1, "dot1024x32 has 21 partial classes");
    vec![("mul32", mul), ("conv4x3w8", conv), ("dot1024x32", dot)]
}

fn config() -> SimConfig {
    SimConfig::paper().with_iterations(300).with_schedule(RemapSchedule::every(100))
}

fn step_replay(wl: &Workload, balance: BalanceConfig, cfg: SimConfig) -> WearMap {
    EnduranceSimulator::new(cfg).run_reference(wl, balance).wear
}

fn assert_same_wear(got: &WearMap, want: &WearMap, what: &str) {
    assert_eq!(got.total_writes(), want.total_writes(), "{what}: total writes");
    assert_eq!(got.total_reads(), want.total_reads(), "{what}: total reads");
    for row in 0..dims().rows() {
        if got.row_writes(row) != want.row_writes(row) {
            let lane = (0..dims().lanes())
                .find(|&l| got.writes_at(row, l) != want.writes_at(row, l))
                .expect("rows differ somewhere");
            panic!(
                "{what}: writes diverge at ({row},{lane}): {} vs step replay {}",
                got.writes_at(row, lane),
                want.writes_at(row, lane)
            );
        }
    }
    // The hottest cell (Eq. 4): a carried maximum must match step
    // replay's and a recount of the answer's own cells.
    assert_eq!(got.max_writes(), want.max_writes(), "{what}: max writes");
    assert_eq!(got.max_writes(), got.recount_max_writes(), "{what}: carried max writes");
}

/// One answer's `sim.lane_renders` and `sim.super_cycles_folded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    lane_renders: u64,
    folded: u64,
}

/// Queries each rung at `queries` (under `cfg`), compares every answer
/// with step replay, and returns each answer's counters by workload,
/// configuration and query, in that order.
fn assert_rungs_match_step_replay(
    cfg: SimConfig,
    queries: &[u64],
    rungs: &[(&str, AnalyticPath)],
) -> Vec<(&'static str, String, u64, Counters)> {
    let mut counters = Vec::new();
    for (label, wl) in &paper_workloads() {
        for &(config, path) in rungs {
            let balance: BalanceConfig = config.parse().unwrap();
            let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
            assert_eq!(engine.path(), path, "{label} {config}");
            let mut replay: Vec<(u64, WearMap)> = Vec::new();
            for &n in queries {
                if !replay.iter().any(|&(m, _)| m == n) {
                    replay.push((n, step_replay(wl, balance, cfg.with_iterations(n))));
                }
                let want = &replay.iter().find(|&&(m, _)| m == n).expect("replayed above").1;
                let what = format!("{label} {config} [{path}] at {n}");
                let observer = Observer::collecting();
                assert_same_wear(&engine.wear_at_with(n, &observer), want, &what);
                let snapshot = observer.snapshot();
                let counter =
                    |name| snapshot.counter(name).unwrap_or_else(|| panic!("{what}: {name}"));
                let answer = Counters {
                    lane_renders: counter("sim.lane_renders"),
                    folded: counter("sim.super_cycles_folded"),
                };
                counters.push((*label, config.to_owned(), n, answer));
            }
        }
    }
    counters
}

#[test]
fn per_epoch_rungs_match_step_replay_at_paper_dims() {
    assert_rungs_match_step_replay(
        config(),
        &[200, 300, 100],
        &[
            ("RaxRa", AnalyticPath::Lazy),
            ("StxRa", AnalyticPath::Lazy),
            ("BsxRa+Hw", AnalyticPath::Lazy),
            ("RaxRa+Hw", AnalyticPath::Lazy),
            ("RaxSt+Hw", AnalyticPath::Lazy),
            ("RaxBs+Hw", AnalyticPath::Lazy),
        ],
    );
}

#[test]
fn closed_form_rungs_match_step_replay_at_paper_dims() {
    // One-epoch super-cycles: 300 iterations fold three of them, 200 two,
    // and 100 one. Each answer is written straight into fresh planes that
    // carry the hottest cell.
    assert_rungs_match_step_replay(
        config(),
        &[200, 300, 100],
        &[("StxSt", AnalyticPath::ClosedForm), ("StxSt+Hw", AnalyticPath::ClosedForm)],
    );
}

#[test]
fn byte_shift_super_cycles_wrap_at_paper_dims() {
    // Remapping every iteration, a byte shift over 1024 lanes, 1024 rows,
    // or the 1023 software rows under Hw has 128 phases, so 300 iterations
    // are two whole 128-epoch super-cycles plus a 44-epoch remainder.
    // Construction walks one super-cycle; 300 folds it twice over the
    // arrangement it ends in (under Hw the 1023-row shift wraps from 1016
    // back to 0, which no single epoch permutation describes), 100 restarts
    // inside the first super-cycle, and 300 again folds from that restart.
    let cfg = config().with_schedule(RemapSchedule::every(1));
    assert_rungs_match_step_replay(
        cfg,
        &[300, 100, 300],
        &[
            ("BsxBs", AnalyticPath::ClosedForm),
            ("StxBs", AnalyticPath::ClosedForm),
            ("BsxSt+Hw", AnalyticPath::ClosedForm),
            ("BsxBs+Hw", AnalyticPath::ClosedForm),
        ],
    );
}

#[test]
fn byte_shift_lanes_and_row_phases_wrap_at_paper_dims() {
    // Remapping every iteration, 300 iterations walk 300 epochs. Under `Ra`
    // rows a byte-shifted lane set recurs after 128 of them, so each class
    // books its second pass into the row vectors keyed by its first; under
    // `Bs` rows with `Ra` lanes each of the 128 row phases books its lane
    // counts two or three times. 100 restarts from the seed before any
    // wrap, and 300 again wraps from that restart.
    let cfg = config().with_schedule(RemapSchedule::every(1));
    assert_rungs_match_step_replay(
        cfg,
        &[300, 100, 300],
        &[
            ("RaxBs", AnalyticPath::Lazy),
            ("RaxBs+Hw", AnalyticPath::Lazy),
            ("BsxRa", AnalyticPath::Lazy),
        ],
    );
}

#[test]
fn lane_counts_weight_a_short_last_epoch_at_paper_dims() {
    // 250 iterations remapped every 100 end on a 50-iteration epoch: `St`
    // rows stage one row phase whose lane counts add 100, 100 and 50 per
    // occupied lane. 150 restarts from the seed and ends on a full epoch.
    let cfg = config().with_iterations(250);
    assert_rungs_match_step_replay(
        cfg,
        &[250, 150, 250],
        &[("StxRa", AnalyticPath::Lazy), ("StxBs", AnalyticPath::ClosedForm)],
    );
}

#[test]
fn recycled_planes_answer_like_fresh_ones_at_paper_dims() {
    // A dropped answer's 8 MiB plane returns to a process-wide free list,
    // and the next engine at the same dims builds on it, zeroed row by
    // row. Two passes over conv4x3w8 and dot1024x32 under an `Ra`-lane
    // epoch-batch config (`RaxRa`), a lane-set config (`RaxBs`) and a
    // folded closed form (`StxSt`, three one-epoch super-cycles): the
    // second runs on the planes the first retired, and both must match
    // step replay cell for cell. Other tests in this binary share the
    // list, so the check is that pass 2 took planes from it at all.
    let cfg = config();
    let n = cfg.iterations;
    let rungs = [
        ("RaxRa", AnalyticPath::Lazy),
        ("RaxBs", AnalyticPath::Lazy),
        ("StxSt", AnalyticPath::ClosedForm),
    ];
    let mut cells = Vec::new();
    for (label, wl) in paper_workloads().into_iter().skip(1) {
        for (config, path) in rungs {
            let balance: BalanceConfig = config.parse().unwrap();
            let want = step_replay(&wl, balance, cfg);
            cells.push((format!("{label} {config}"), wl.clone(), balance, path, want));
        }
    }
    for pass in 1..=2 {
        let before = plane_reuse();
        for (what, wl, balance, path, want) in &cells {
            let mut engine = AnalyticWearEngine::new(wl, *balance, cfg);
            assert_eq!(engine.path(), *path, "{what}");
            assert_same_wear(&engine.wear_at(n), want, &format!("{what} (pass {pass})"));
        }
        if pass == 2 {
            assert!(plane_reuse().reused > before.reused, "pass 2 reused no plane");
        }
    }
}

/// Partial lane classes of `wl` that some step writes: the classes that
/// hold a stage.
fn written_partial_classes(wl: &Workload) -> u64 {
    let trace = wl.trace();
    let mut written = vec![false; trace.classes().len()];
    for class in trace.steps().iter().filter_map(|step| step.written_class()) {
        written[class] = true;
    }
    let partial = trace.classes().iter().map(|c| c.count() < dims().lanes());
    partial.zip(written).filter(|&(p, w)| p && w).count() as u64
}

#[test]
fn ra_lane_epoch_batches_match_step_replay_at_paper_dims() {
    // Remapped every 10 iterations, 255 iterations walk 26 epochs: under
    // `Ra` lanes a full batch of 16 staged epochs, then a partial batch of
    // 10 whose last epoch ends mid-epoch after 5 iterations. Every epoch
    // draws a new lane table, so each written partial class renders once
    // per epoch, batched or not: 26 renders for conv4x3w8's one written
    // class and 260 for dot1024x32's ten nested ones, on the analytic
    // walker and on the simulator's compiled `+Hw` path alike.
    let n = 255;
    let cfg = config().with_iterations(n).with_schedule(RemapSchedule::every(10));
    for (label, wl) in paper_workloads().iter().skip(1) {
        let per_epoch = written_partial_classes(wl) * n.div_ceil(10);
        for config in ["RaxRa", "RaxRa+Hw", "BsxRa", "StxRa+Hw"] {
            let balance: BalanceConfig = config.parse().unwrap();
            let what = format!("{label} {config} at {n}");
            let want = step_replay(wl, balance, cfg);
            let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
            assert_eq!(engine.path(), AnalyticPath::Lazy, "{what}");
            let observer = Observer::collecting();
            assert_same_wear(&engine.wear_at_with(n, &observer), &want, &what);
            let renders = observer.snapshot().counter("sim.lane_renders");
            assert_eq!(renders, Some(per_epoch), "{what}: lane renders");
            if balance.hw {
                let what = format!("{what} (simulator)");
                let observer = Observer::collecting();
                let run = EnduranceSimulator::new(cfg).run_with(wl, balance, &observer);
                assert_same_wear(&run.wear, &want, &what);
                let renders = observer.snapshot().counter("sim.lane_renders");
                assert_eq!(renders, Some(per_epoch), "{what}: lane renders");
            }
        }
    }
}

#[test]
fn folds_with_mid_epoch_tails_match_step_replay_at_paper_dims() {
    // Every 100 iterations, `StxSt(+Hw)`'s super-cycle is one epoch: 250
    // folds two and walks a 50-iteration tail that ends mid-epoch, 100
    // folds one with no tail after a restart from the seed, and 250 folds
    // again from that restart. `St` lanes stage one lane set per written
    // partial class, and a folded answer renders each (class, key) once:
    // none for mul32, one for conv4x3w8 (of its four stride-4 classes,
    // only the first is written).
    let cfg = config().with_iterations(250);
    let queries = [250, 100, 250];
    let rungs = [("StxSt", AnalyticPath::ClosedForm), ("StxSt+Hw", AnalyticPath::ClosedForm)];
    let workloads = paper_workloads();
    for (label, _, n, counters) in assert_rungs_match_step_replay(cfg, &queries, &rungs) {
        let wl = &workloads.iter().find(|(name, _)| *name == label).expect("a paper workload").1;
        let want = Counters { lane_renders: written_partial_classes(wl), folded: n / 100 };
        assert_eq!(counters, want, "{label} at {n}");
    }
    let written: Vec<u64> = workloads.iter().map(|(_, wl)| written_partial_classes(wl)).collect();
    assert_eq!(written[..2], [0, 1], "mul32 and conv4x3w8 stage 0 and 1 partial classes");

    // Every 2 iterations, `StxBs` (one row phase per class, without Hw)
    // and `BsxBs+Hw` (a lane set per byte shift, rows folded over the
    // arrangement F) have 128-epoch super-cycles of 256 iterations. 557
    // folds two and 301 one, each with a 45-iteration tail that ends
    // mid-epoch, merged key by key into the cycles' phases or lane sets;
    // `StxBs` needs two cycles to tell a scaled lane count from an unscaled
    // one, and `BsxBs+Hw`'s step replay walks the trace every iteration, so
    // it takes the shorter count alone. mul32's walker keeps `St` lanes, so
    // its `StxBs` super-cycle is one epoch: 557 folds 278 and 301 folds 150.
    let cfg = config().with_iterations(557).with_schedule(RemapSchedule::every(2));
    let mut answers =
        assert_rungs_match_step_replay(cfg, &[557, 301], &[("StxBs", AnalyticPath::ClosedForm)]);
    answers.extend(assert_rungs_match_step_replay(
        cfg,
        &[301],
        &[("BsxBs+Hw", AnalyticPath::ClosedForm)],
    ));
    // Each fold renders every (class, key) of its cycles once: one phase
    // per written class under `St` rows; under `Bs` lanes conv4x3w8's
    // written stride-4 class keeps one lane set, and each of dot1024x32's
    // written block classes takes all 128 shifted sets.
    let dot = written_partial_classes(&workloads[2].1);
    for (label, config, n, counters) in answers {
        let lane_renders = match (label, config.as_str()) {
            ("mul32", _) => 0,
            ("conv4x3w8", _) => 1,
            (_, "StxBs") => dot,
            _ => 128 * dot,
        };
        let cycle = if (label, config.as_str()) == ("mul32", "StxBs") { 2 } else { 256 };
        let want = Counters { lane_renders, folded: n / cycle };
        assert_eq!(counters, want, "{label} {config} at {n}");
    }
}

#[test]
fn full_lane_byte_shift_lanes_fold_like_static_lanes_at_paper_dims() {
    // mul32's one class spans every lane, so the walker keeps `St` lanes and
    // `StxBs(±Hw)` gets `StxSt`'s one-epoch super-cycle: remapped every 4
    // iterations, 100 iterations (25 epochs) fold 25 super-cycles, and 98
    // folds 24 and walks a 2-iteration tail that ends mid-epoch.
    let wl = ParallelMul::new(dims(), 32).build();
    let cfg = config().with_iterations(100).with_schedule(RemapSchedule::every(4));
    for config in ["StxBs", "StxBs+Hw"] {
        let balance: BalanceConfig = config.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(engine.path(), AnalyticPath::ClosedForm, "mul32 {config}");
        for (n, folded) in [(100, 25), (98, 24)] {
            let what = format!("mul32 {config} at {n}");
            let observer = Observer::collecting();
            let got = engine.wear_at_with(n, &observer);
            assert_same_wear(&got, &step_replay(&wl, balance, cfg.with_iterations(n)), &what);
            let snapshot = observer.snapshot();
            assert_eq!(snapshot.counter("sim.super_cycles_folded"), Some(folded), "{what}");
        }
    }
}

#[test]
fn compiled_epoch_series_matches_step_replay_at_paper_dims() {
    // RaxBs+Hw runs on the simulator's compiled path; every sample must
    // see the stage flushed, or the deferred full-lane class (mul32) and
    // the keyed partial classes (conv4x3w8, dot1024x32) would lag replay.
    let cfg = config().with_epoch_series(true);
    let balance: BalanceConfig = "RaxBs+Hw".parse().unwrap();
    for (label, wl) in &paper_workloads() {
        let sim = EnduranceSimulator::new(cfg);
        let compiled = sim.run(wl, balance);
        let replayed = sim.run_reference(wl, balance);
        assert_eq!(compiled.series.len(), 3, "{label}: 300 iterations / period 100");
        assert_eq!(compiled.series, replayed.series, "{label} {balance}: trajectories diverge");
        assert_same_wear(&compiled.wear, &replayed.wear, &format!("{label} {balance}"));
    }
}

/// The counters an answer records, by name: `sim.*` and `array.*`.
const ANSWER_COUNTERS: [&str; 6] = [
    "sim.analytic_queries",
    "sim.iterations",
    "array.cell_writes",
    "array.cell_reads",
    "sim.lane_renders",
    "sim.super_cycles_folded",
];

/// Asks fresh engines for `result_at(n)` and for the lifetime-only
/// `max_writes_at(n)` at each of `queries`, and asserts both maxima equal
/// step replay's, with the same counters recorded.
fn assert_lifetime_query_matches(
    label: &str,
    wl: &Workload,
    config: &str,
    cfg: SimConfig,
    queries: &[u64],
) {
    let balance: BalanceConfig = config.parse().unwrap();
    for &n in queries {
        let what = format!("{label} {config} at {n}");
        let counters = |observer: &Observer| {
            let snapshot = observer.snapshot();
            ANSWER_COUNTERS
                .map(|name| snapshot.counter(name).unwrap_or_else(|| panic!("{what}: {name}")))
        };
        let full = Observer::collecting();
        let result = AnalyticWearEngine::new(wl, balance, cfg).result_at_with(n, &full);
        let summary = Observer::collecting();
        let max = AnalyticWearEngine::new(wl, balance, cfg).max_writes_at_with(n, &summary);
        let want = step_replay(wl, balance, cfg.with_iterations(n)).max_writes();
        assert_eq!(result.wear.max_writes(), want, "{what}: result_at");
        assert_eq!(max, want, "{what}: max_writes_at");
        assert_eq!(counters(&summary), counters(&full), "{what}: counters");
    }
}

#[test]
fn lifetime_only_query_matches_step_replay_at_paper_dims() {
    // Remapped every 2 iterations, `Bs`-row configs have 128-epoch
    // super-cycles of 256 iterations: 101 is walked and ends mid-epoch,
    // and 302 folds one with a 46-iteration tail. mul32's walker keeps `St`
    // lanes, so `St`-row configs fold 2-iteration super-cycles: 101 folds
    // 50 with a tail that ends mid-epoch, and 302 folds 151 with none.
    // `Ra`-row configs walk every epoch. mul32 has no partial class, so
    // every answer comes straight from the stage, with no plane.
    let wl = ParallelMul::new(dims(), 32).build();
    let cfg = config().with_schedule(RemapSchedule::every(2));
    for balance in BalanceConfig::all() {
        let config = balance.to_string();
        assert_lifetime_query_matches("mul32", &wl, &config, cfg, &[101, 302]);
    }
    // conv4x3w8 and dot1024x32 have partial classes, so the query renders
    // into the walker's plane: `Ra` lanes render at each lane change
    // before the answer, and `StxBs` stages one row phase per class that
    // only the answer renders.
    for (label, wl) in paper_workloads().iter().skip(1) {
        for name in ["RaxRa", "RaxRa+Hw", "StxBs"] {
            assert_lifetime_query_matches(label, wl, name, config(), &[250]);
        }
    }
}

#[test]
fn lifetime_only_sweep_matches_the_simulated_sweep_at_paper_dims() {
    // The §5 sweep (`repro sweep`): `RaxRa` on mul32 over the paper's
    // periods, each point a lifetime-only query answered from the stage
    // and compared bit for bit with the simulator's sweep. 330 iterations
    // walk 33 epochs at period 10 and end mid-epoch at periods 50 and 100;
    // the longer periods never remap.
    let wl = ParallelMul::new(dims(), 32).build();
    let balance: BalanceConfig = "RaxRa".parse().unwrap();
    let base = config().with_iterations(330);
    let model = LifetimeModel::mtj();
    let periods = RemapSchedule::PAPER_SWEEP;
    let simulated = sweep::remap_frequency_sweep_parallel(&wl, balance, base, model, &periods, 2);
    let analytic = sweep::remap_frequency_sweep_analytic(&wl, balance, base, model, &periods, 2);
    assert_eq!(analytic, simulated);
    for (a, s) in analytic.iter().zip(&simulated) {
        assert_eq!(
            a.lifetime_iterations.to_bits(),
            s.lifetime_iterations.to_bits(),
            "{}",
            a.period
        );
        assert_eq!(
            a.improvement_vs_never.to_bits(),
            s.improvement_vs_never.to_bits(),
            "{}",
            a.period
        );
    }
}
