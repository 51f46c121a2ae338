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
//! whose 128-epoch super-cycles wrap). The workloads are mul32 (no partial
//! class), conv4x3w8 (stride-4 partial classes, which a byte shift maps
//! onto themselves) and dot1024x32 (block partial classes, which it does
//! not). Every answer is compared cell for cell against the step-replay
//! oracle (`run_reference`), and its hottest cell against both replay's
//! and its own recount. 300 iterations remapped every 100 change the lane
//! table mid-run, and the query order 200 → 300 → 100 covers a follow-up
//! query after a flush and a restart from the seed. Remapping every
//! iteration wraps the 128 byte-shift lane sets and row phases, and 250
//! iterations end on a short epoch that weights the lane counts by its
//! span. `scripts/ci.sh` runs it in release mode.

use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{AnalyticPath, AnalyticWearEngine};
use nvpim_core::{EnduranceSimulator, SimConfig};
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

/// Queries each rung at `queries` (under `cfg`) and compares every answer
/// with step replay.
fn assert_rungs_match_step_replay(cfg: SimConfig, queries: &[u64], rungs: &[(&str, AnalyticPath)]) {
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
                assert_same_wear(&engine.wear_at(n), want, &what);
            }
        }
    }
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
