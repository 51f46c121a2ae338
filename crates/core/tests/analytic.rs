//! Bit-identity of the replay-free analytic wear engine.
//!
//! The analytic engine answers `wear_at(N)` through closed-form prefix
//! panels or lazy epoch enumeration depending on the configuration. These tests pin every path against both simulator arms —
//! epoch-compiled (`with_hw_kernels(true)`) and per-iteration step replay
//! (`with_hw_kernels(false)`) — cell by cell, writes and reads, across all
//! 18 balancing configurations, never() schedules, randomized iteration
//! counts with mid-epoch partial spans, monotone and backwards lazy
//! queries, and the exact lifetime solve. `scripts/ci.sh` runs them in
//! release mode.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{classify, AnalyticPath, AnalyticWearEngine};
use nvpim_core::{lifetime, EnduranceSimulator, LifetimeModel, SimConfig};
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Asserts the analytic engine equals both simulator arms cell by cell.
fn assert_analytic_bit_identical(
    wl: &Workload,
    cfg: SimConfig,
    balance: BalanceConfig,
    label: &str,
) {
    let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
    let analytic = engine.wear_at(cfg.iterations);
    let compiled = EnduranceSimulator::new(cfg.with_hw_kernels(true)).run(wl, balance);
    let replayed = EnduranceSimulator::new(cfg.with_hw_kernels(false)).run(wl, balance);
    let dims = wl.trace().dims();
    let path = engine.path();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            let a = analytic.writes_at(row, lane);
            assert_eq!(
                a,
                compiled.wear.writes_at(row, lane),
                "{label} {balance} [{path}]: writes diverge from compiled at ({row},{lane})"
            );
            assert_eq!(
                a,
                replayed.wear.writes_at(row, lane),
                "{label} {balance} [{path}]: writes diverge from step replay at ({row},{lane})"
            );
            let r = analytic.reads_at(row, lane);
            assert_eq!(
                r,
                compiled.wear.reads_at(row, lane),
                "{label} {balance} [{path}]: reads diverge from compiled at ({row},{lane})"
            );
            assert_eq!(
                r,
                replayed.wear.reads_at(row, lane),
                "{label} {balance} [{path}]: reads diverge from step replay at ({row},{lane})"
            );
        }
    }
    assert_eq!(
        analytic.max_writes(),
        replayed.wear.max_writes(),
        "{label} {balance} [{path}]: max writes diverge from step replay"
    );
    assert_eq!(
        analytic.max_writes(),
        analytic.recount_max_writes(),
        "{label} {balance} [{path}]: carried max writes disagree with a recount"
    );
}

#[test]
fn analytic_matches_both_simulator_arms_for_every_config() {
    // 23 iterations over a period of 7: three full epochs plus a partial
    // final epoch of 2, exercising whole-epoch and partial-span algebra.
    let cfg = SimConfig::default()
        .with_iterations(23)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true);
    let workloads = [
        ("mul-128x8", ParallelMul::new(ArrayDims::new(128, 8), 8).build()),
        ("dot-256x16", DotProduct::new(ArrayDims::new(256, 16), 16, 8).build()),
    ];
    for (label, wl) in &workloads {
        for balance in BalanceConfig::all() {
            assert_analytic_bit_identical(wl, cfg, balance, label);
        }
    }
}

#[test]
fn never_schedule_is_closed_form_for_every_config() {
    // With no re-mapping there is a single endless epoch, so even `Ra`
    // configurations (whose RNG never draws) reduce to closed form.
    let cfg = SimConfig::default()
        .with_iterations(200)
        .with_schedule(RemapSchedule::never())
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(96, 8), 8).build();
    for balance in BalanceConfig::all() {
        let engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(
            engine.path(),
            AnalyticPath::ClosedForm,
            "{balance} must be closed-form under never()"
        );
        assert_analytic_bit_identical(&wl, cfg, balance, "never-96x8");
    }
}

#[test]
fn classification_predicts_engine_path_for_every_config() {
    let cfg = SimConfig::default().with_iterations(10).with_schedule(RemapSchedule::every(5));
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    let dims = wl.trace().dims();
    for balance in BalanceConfig::all() {
        let predicted = classify(balance, cfg.schedule, dims, cfg.track_reads);
        let engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(predicted, engine.path(), "classify disagrees with the engine for {balance}");
        let expected = if balance.row == nvpim_balance::Strategy::Random
            || balance.col == nvpim_balance::Strategy::Random
        {
            AnalyticPath::Lazy
        } else {
            AnalyticPath::ClosedForm
        };
        assert_eq!(engine.path(), expected, "unexpected ladder rung for {balance}");
    }
}

#[test]
fn randomized_iteration_counts_cover_mid_epoch_partials() {
    // xorshift64* fuzz over geometry, period, and iteration count; the
    // iteration counts are drawn relative to the period so partial final
    // epochs, exact epoch boundaries, and multi-super-cycle spans all
    // occur.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    for case in 0..12 {
        let rows = [96, 128, 160][(next() % 3) as usize];
        let lanes = [4, 8, 16][(next() % 3) as usize];
        let period = 3 + next() % 9;
        let iterations = match case % 3 {
            0 => period * (1 + next() % 40) + 1 + next() % (period - 1), // mid-epoch
            1 => period * (1 + next() % 40),                             // exact boundary
            _ => 1 + next() % (3 * period),                              // short span
        };
        let wl = ParallelMul::new(ArrayDims::new(rows, lanes), lanes.min(8)).build();
        let cfg = SimConfig::default()
            .with_iterations(iterations)
            .with_schedule(RemapSchedule::every(period))
            .with_seed(next())
            .with_read_tracking(case % 2 == 0);
        let label = format!("fuzz-{case}-{rows}x{lanes}-p{period}-n{iterations}");
        for balance in BalanceConfig::all() {
            assert_analytic_bit_identical(&wl, cfg, balance, &label);
        }
    }
}

#[test]
fn lazy_engines_answer_monotone_and_backwards_queries() {
    let cfg = SimConfig::default()
        .with_iterations(0)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true);
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    // RaxSt exercises the software lazy path, StxRa+Hw the hardware one.
    for name in ["RaxSt", "StxRa", "RaxRa", "StxRa+Hw", "BsxRa+Hw"] {
        let balance: BalanceConfig = name.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(engine.path(), AnalyticPath::Lazy, "{balance}");
        for n in [10u64, 25, 7, 40] {
            // 10 → 25 → 7 → 40: monotone continuation, a backwards
            // restart, then continuation again — all must equal a fresh
            // simulator run of exactly n iterations.
            let analytic = engine.wear_at(n);
            let sim = EnduranceSimulator::new(cfg.with_iterations(n)).run(&wl, balance);
            assert_eq!(
                analytic.total_writes(),
                sim.wear.total_writes(),
                "{balance} at n={n}: total writes"
            );
            assert_eq!(
                (analytic.max_writes(), analytic.recount_max_writes()),
                (sim.wear.max_writes(), sim.wear.max_writes()),
                "{balance} at n={n}: carried max writes"
            );
            let dims = wl.trace().dims();
            for row in 0..dims.rows() {
                for lane in 0..dims.lanes() {
                    assert_eq!(
                        analytic.writes_at(row, lane),
                        sim.wear.writes_at(row, lane),
                        "{balance} at n={n}: writes diverge at ({row},{lane})"
                    );
                    assert_eq!(
                        analytic.reads_at(row, lane),
                        sim.wear.reads_at(row, lane),
                        "{balance} at n={n}: reads diverge at ({row},{lane})"
                    );
                }
            }
        }
    }
}

#[test]
fn solve_locates_the_exact_failure_iteration() {
    let cfg = SimConfig::default().with_iterations(0).with_schedule(RemapSchedule::every(7));
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    // Endurance small enough that the horizon stays test-sized but large
    // enough to span many epochs and several super-cycles.
    let model = LifetimeModel::new(50_000, 3.0);
    for name in ["StxSt", "BsxBs", "StxBs", "StxSt+Hw", "BsxBs+Hw"] {
        let balance: BalanceConfig = name.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        let outcome = lifetime::solve(&mut engine, model, 1_000);
        assert!(outcome.exact, "{balance} should solve exactly");
        assert_eq!(outcome.path, AnalyticPath::ClosedForm);
        let survived = outcome.lifetime.iterations as u64;
        assert_eq!(outcome.failure_iteration, survived + 1, "{balance}");
        // The bracket must hold against the *simulator*, not just the
        // engine's own arithmetic.
        let at_lo = EnduranceSimulator::new(cfg.with_iterations(survived)).run(&wl, balance);
        let at_hi = EnduranceSimulator::new(cfg.with_iterations(outcome.failure_iteration))
            .run(&wl, balance);
        assert!(
            at_lo.wear.max_writes() <= model.endurance(),
            "{balance}: survived iteration already exceeds endurance"
        );
        assert!(
            at_hi.wear.max_writes() > model.endurance(),
            "{balance}: failure iteration does not exceed endurance"
        );
    }
    // Lazy configs (here `Ra` rows under `+Hw`) still answer, flagged as
    // extrapolations.
    let mut lazy = AnalyticWearEngine::new(&wl, "RaxSt+Hw".parse().unwrap(), cfg);
    let outcome = lifetime::solve(&mut lazy, model, 1_000);
    assert!(!outcome.exact);
    assert_eq!(outcome.path, AnalyticPath::Lazy);
    assert!(outcome.lifetime.iterations > 0.0);
}

#[test]
fn parallel_analytic_matrix_is_bit_identical_to_the_simulator_matrix() {
    let cfg = SimConfig::default().with_iterations(40).with_schedule(RemapSchedule::every(9));
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    let configs = BalanceConfig::all();
    let analytic = nvpim_core::run_configs_analytic(&wl, &configs, cfg, 4);
    let simulated = EnduranceSimulator::new(cfg).run_configs_parallel(&wl, &configs, 4);
    assert_eq!(analytic.len(), simulated.len());
    let dims = wl.trace().dims();
    for (a, s) in analytic.iter().zip(&simulated) {
        assert_eq!(a.config, s.config);
        assert_eq!(a.iterations, s.iterations);
        assert_eq!(a.steps_per_iteration, s.steps_per_iteration);
        for row in 0..dims.rows() {
            for lane in 0..dims.lanes() {
                assert_eq!(
                    a.wear.writes_at(row, lane),
                    s.wear.writes_at(row, lane),
                    "{}: matrix writes diverge at ({row},{lane})",
                    a.config
                );
            }
        }
    }
}
