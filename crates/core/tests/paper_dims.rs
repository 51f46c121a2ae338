//! Bit-identity of every rung at the paper's array dimensions.
//!
//! The other suites pin the analytic engine against step replay at small
//! dims; this one runs the 1024×1024 array that paper-scale runs use, on
//! the per-epoch paths that stage wear in row space and render lanes only
//! when the lane table changes: the lazy software rung (`RaxRa`, `StxRa`)
//! and the lazy hardware rung (`BsxRa+Hw`, plus every `Ra`-rows `+Hw`
//! config — `RaxRa+Hw`, `RaxSt+Hw`, `RaxBs+Hw` — whose one kernel is
//! relabeled through a fresh random row table every epoch), plus the two
//! closed forms (`StxSt`, `StxSt+Hw`). Every answer is compared cell for cell against
//! per-iteration step replay, and its hottest cell against both replay's
//! and its own recount. 300 iterations remapped every 100 change the lane
//! table mid-run, and the query order 200 → 300 → 100 covers a follow-up
//! query after a flush and a restart from the seed. `scripts/ci.sh` runs
//! it in release mode.

use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{AnalyticPath, AnalyticWearEngine};
use nvpim_core::{EnduranceSimulator, SimConfig};
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn dims() -> ArrayDims {
    ArrayDims::new(1024, 1024)
}

/// mul32 (one class, spanning every lane) and dot1024x32 (one full-lane
/// class plus 21 partial ones), with the class shapes the row-space stage
/// depends on asserted.
fn paper_workloads() -> Vec<(&'static str, Workload)> {
    let mul = ParallelMul::new(dims(), 32).build();
    let dot = DotProduct::new(dims(), 1024, 32).build();
    let full_classes =
        |wl: &Workload| wl.trace().classes().iter().filter(|c| c.count() == dims().lanes()).count();
    assert_eq!(mul.trace().classes().len(), 1, "mul32 has one lane class");
    assert_eq!(full_classes(&mul), 1, "mul32's class spans every lane");
    assert_eq!(dot.trace().classes().len(), 22, "dot1024x32 has 22 lane classes");
    assert_eq!(full_classes(&dot), 1, "dot1024x32 has 21 partial classes");
    vec![("mul32", mul), ("dot1024x32", dot)]
}

fn config() -> SimConfig {
    SimConfig::paper().with_iterations(300).with_schedule(RemapSchedule::every(100))
}

fn step_replay(wl: &Workload, balance: BalanceConfig, cfg: SimConfig) -> WearMap {
    EnduranceSimulator::new(cfg.with_hw_kernels(false)).run(wl, balance).wear
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

/// Queries each rung at 200 → 300 → 100 iterations and compares every
/// answer with step replay.
fn assert_rungs_match_step_replay(rungs: &[(&str, AnalyticPath)]) {
    let cfg = config();
    for (label, wl) in &paper_workloads() {
        for &(config, path) in rungs {
            let balance: BalanceConfig = config.parse().unwrap();
            let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
            assert_eq!(engine.path(), path, "{label} {config}");
            let replay: Vec<WearMap> =
                [100, 200, 300].map(|n| step_replay(wl, balance, cfg.with_iterations(n))).into();
            for n in [200u64, 300, 100] {
                let want = &replay[(n / 100 - 1) as usize];
                let what = format!("{label} {config} [{path}] at {n}");
                assert_same_wear(&engine.wear_at(n), want, &what);
            }
        }
    }
}

#[test]
fn per_epoch_rungs_match_step_replay_at_paper_dims() {
    assert_rungs_match_step_replay(&[
        ("RaxRa", AnalyticPath::Lazy),
        ("StxRa", AnalyticPath::Lazy),
        ("BsxRa+Hw", AnalyticPath::Lazy),
        ("RaxRa+Hw", AnalyticPath::Lazy),
        ("RaxSt+Hw", AnalyticPath::Lazy),
        ("RaxBs+Hw", AnalyticPath::Lazy),
    ]);
}

#[test]
fn closed_form_rungs_match_step_replay_at_paper_dims() {
    // The only closed forms at paper dims (a byte-shift period of 128
    // epochs overflows the prefix-panel ceiling). Both evaluate each
    // answer straight into fresh planes that carry the hottest cell.
    assert_rungs_match_step_replay(&[
        ("StxSt", AnalyticPath::ClosedForm),
        ("StxSt+Hw", AnalyticPath::ClosedForm),
    ]);
}

#[test]
fn compiled_epoch_series_matches_step_replay_at_paper_dims() {
    // RaxBs+Hw runs on the simulator's compiled path; every sample must
    // see the stage flushed, or the deferred full-lane class (mul32) and
    // the byte-shifted partial classes (dot1024x32) would lag replay.
    let cfg = config().with_epoch_series(true);
    let balance: BalanceConfig = "RaxBs+Hw".parse().unwrap();
    for (label, wl) in &paper_workloads() {
        let compiled = EnduranceSimulator::new(cfg).run(wl, balance);
        let replayed = EnduranceSimulator::new(cfg.with_hw_kernels(false)).run(wl, balance);
        assert_eq!(compiled.series.len(), 3, "{label}: 300 iterations / period 100");
        assert_eq!(compiled.series, replayed.series, "{label} {balance}: trajectories diverge");
        assert_same_wear(&compiled.wear, &replayed.wear, &format!("{label} {balance}"));
    }
}
