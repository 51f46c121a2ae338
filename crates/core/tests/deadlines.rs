//! Deadline-checked walks: `AnalyticWearEngine::{new_within,
//! result_at_within}` and `EnduranceSimulator::run_within`.
//!
//! With no deadline, or one far away, they must answer exactly what the
//! unbounded entry points do, cell for cell, across all 18 configurations,
//! folded super-cycles and epoch series included. A deadline already passed
//! must book no epoch, and one that passes mid-walk must stop the walk at
//! an epoch boundary well before its end: the query's walk, and the
//! construction-time super-cycle walk alike.

use std::time::{Duration, Instant};

use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::{AnalyticWearEngine, EnduranceSimulator, Expired, SimConfig};
use nvpim_obs::{NullSink, Observer};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn small_mul() -> Workload {
    ParallelMul::new(ArrayDims::new(128, 8), 8).build()
}

/// 250 iterations remapped every 7: `StxSt(±Hw)` folds 35 one-epoch
/// super-cycles, `Bs` rows (16 epochs, 112 iterations) fold 2 with a
/// 26-iteration remainder, and `Ra` rows walk every epoch.
fn folding_cfg() -> SimConfig {
    SimConfig::default()
        .with_iterations(250)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true)
}

fn assert_same_cells(got: &WearMap, want: &WearMap, what: &str) {
    let dims = want.dims();
    assert_eq!(got.dims(), dims, "{what}: dims");
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                got.writes_at(row, lane),
                want.writes_at(row, lane),
                "{what} ({row},{lane})"
            );
            assert_eq!(got.reads_at(row, lane), want.reads_at(row, lane), "{what} ({row},{lane})");
        }
    }
}

#[test]
fn no_or_far_deadline_answers_exactly_what_the_unbounded_entry_points_do() {
    let wl = small_mul();
    let cfg = folding_cfg();
    let n = cfg.iterations;
    let mut folded_configs = 0;
    for balance in BalanceConfig::all() {
        let want = AnalyticWearEngine::new(&wl, balance, cfg).result_at(n);
        let far = Some(Instant::now() + Duration::from_secs(3600));
        for deadline in [None, far] {
            let what = format!("{balance} deadline={}", deadline.is_some());
            let observer = Observer::collecting();
            let got = AnalyticWearEngine::new_within(&wl, balance, cfg, deadline)
                .expect("no deadline passes")
                .result_at_within(n, &observer, deadline)
                .expect("no deadline passes");
            assert_same_cells(&got.wear, &want.wear, &what);
            assert_eq!(got.wear.max_writes(), want.wear.max_writes(), "{what}");
            let folded = observer.snapshot().counter("sim.super_cycles_folded");
            if deadline.is_some() && folded > Some(0) {
                folded_configs += 1;
            }
        }

        let series_cfg = cfg.with_epoch_series(true);
        let want = EnduranceSimulator::new(series_cfg).run(&wl, balance);
        let got = EnduranceSimulator::new(series_cfg)
            .run_within(&wl, balance, &NullSink, far)
            .expect("no deadline passes");
        assert_same_cells(&got.wear, &want.wear, &format!("{balance} series"));
        assert_eq!(got.series, want.series, "{balance}: epoch series");
    }
    // Every configuration without `Ra` rows folds: {St,Bs} rows × 3 lane
    // strategies × ±Hw.
    assert_eq!(folded_configs, 12, "configs that folded a super-cycle");
}

#[test]
fn a_deadline_already_passed_books_no_epoch() {
    let wl = small_mul();
    let cfg = folding_cfg();
    let n = cfg.iterations;
    let passed = Some(Instant::now());
    let stopped = Some(Expired { iterations: 0 });
    for balance in BalanceConfig::all() {
        let built = AnalyticWearEngine::new_within(&wl, balance, cfg, passed);
        let folds = balance.row != nvpim_balance::Strategy::Random;
        if folds {
            // The construction-time super-cycle walk stops before its first
            // epoch.
            assert_eq!(built.err(), stopped, "{balance}: construction");
        } else {
            let observer = Observer::collecting();
            let answer =
                built.expect("a lazy build walks nothing").result_at_within(n, &observer, passed);
            assert_eq!(answer.err(), stopped, "{balance}: query");
            assert_eq!(observer.snapshot().counter("sim.analytic_queries"), None);
        }

        // A super-cycle first spanned by the query is walked under its
        // deadline too: built for one iteration, queried at `n`.
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg.with_iterations(1));
        let answer = engine.result_at_within(n, &NullSink, passed);
        assert_eq!(answer.err(), stopped, "{balance}: query-time super-cycle");
        // The stopped walk left the engine able to answer.
        let want = AnalyticWearEngine::new(&wl, balance, cfg).result_at(n);
        assert_same_cells(&engine.result_at(n).wear, &want.wear, &format!("{balance} after"));

        let run = EnduranceSimulator::new(cfg).run_within(&wl, balance, &NullSink, passed);
        assert_eq!(run.err(), stopped, "{balance}: simulator");
    }
}

/// Asserts `walk` (run under a deadline `budget` from now) stopped at a
/// boundary of `period`-iteration epochs before `len` iterations, within a
/// second of its deadline, far sooner than the whole walk would take.
fn assert_stops_mid_walk<T>(
    budget: Duration,
    period: u64,
    len: u64,
    walk: impl FnOnce(Option<Instant>) -> Result<T, Expired>,
    what: &str,
) {
    let deadline = Instant::now() + budget;
    let Err(Expired { iterations }) = walk(Some(deadline)) else {
        panic!("{what}: the walk ran past its deadline to the end");
    };
    let late = Instant::now().saturating_duration_since(deadline);
    assert!(late < Duration::from_secs(1), "{what}: stopped {late:?} after the deadline");
    assert_eq!(iterations % period, 0, "{what}: stopped mid-epoch at {iterations}");
    assert!(iterations < len, "{what}: stopped at {iterations} of {len}");
}

#[test]
fn a_deadline_passing_mid_walk_stops_at_the_next_epoch_boundary() {
    // The query's walk: `RaxRa` walks all 2 000 000 epochs of 3 iterations
    // (seconds of work even in release mode).
    let wl = small_mul();
    let len = 3 * 2_000_000;
    let cfg = SimConfig::default().with_iterations(len).with_schedule(RemapSchedule::every(3));
    let balance = "RaxRa".parse().unwrap();
    let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
    let query = |deadline| engine.result_at_within(len, &NullSink, deadline);
    assert_stops_mid_walk(Duration::from_millis(20), 3, len, query, "RaxRa query");
    let series =
        |deadline| EnduranceSimulator::new(cfg).run_within(&wl, balance, &NullSink, deadline);
    assert_stops_mid_walk(Duration::from_millis(20), 3, len, series, "RaxRa simulator");

    // The construction-time super-cycle walk: `Bs` rows over 65 536 rows
    // cycle in 8 192 epochs of 5 iterations, each booking every row.
    let wl = ParallelMul::new(ArrayDims::new(65_536, 8), 8).build();
    let len = 5 * 8_192;
    let cfg = SimConfig::default().with_iterations(len).with_schedule(RemapSchedule::every(5));
    let build = |deadline| {
        AnalyticWearEngine::new_within(&wl, "BsxSt".parse().unwrap(), cfg, deadline).map(drop)
    };
    assert_stops_mid_walk(Duration::from_millis(5), 5, len, build, "BsxSt super-cycle");
}
