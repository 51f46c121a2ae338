//! Bit-identity of the replay-free analytic wear engine.
//!
//! The analytic engine answers `wear_at(N)` with one epoch walker, folding
//! whole super-cycles of periodic configurations. These tests pin every
//! path against the production simulator (`EnduranceSimulator::run`) and
//! the step-replay oracle (`run_reference`) — cell by cell, writes and
//! reads, across all 18 balancing configurations, never() schedules,
//! randomized iteration counts with mid-epoch partial spans, monotone and
//! backwards queries, and super-cycles longer than either table period. A
//! fresh engine's lifetime-only query (`max_writes_at`) must return the
//! step-replay maximum too. `scripts/ci.sh` runs them in release mode.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{classify, AnalyticPath, AnalyticWearEngine};
use nvpim_core::{EnduranceSimulator, SimConfig};
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Asserts the analytic engine equals `run` and the step-replay oracle
/// cell by cell.
fn assert_analytic_bit_identical(
    wl: &Workload,
    cfg: SimConfig,
    balance: BalanceConfig,
    label: &str,
) {
    let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
    let analytic = engine.wear_at(cfg.iterations);
    let sim = EnduranceSimulator::new(cfg);
    let compiled = sim.run(wl, balance);
    let replayed = sim.run_reference(wl, balance);
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
    let summary = AnalyticWearEngine::new(wl, balance, cfg).max_writes_at(cfg.iterations);
    assert_eq!(
        summary,
        replayed.wear.max_writes(),
        "{label} {balance} [{path}]: the lifetime-only query diverges from step replay"
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
fn super_cycles_longer_than_either_period_fold_exactly() {
    // 104×24: a byte-shift row period of 13 (103 software rows under Hw
    // still round up to 13) and a lane period of 3, so a super-cycle is
    // L = 39 epochs — longer than either period, which the fuzz shapes
    // above never produce. mul's one class spans every lane, so under Hw
    // its redirects move the arrangement and the fold's F is not the
    // identity; dot's partial classes render under every lane phase.
    // Queries span two whole super-cycles plus a mid-epoch partial, go
    // back inside the first super-cycle, then forward again.
    let period = 2;
    let cycle = 39 * period;
    let dims = ArrayDims::new(104, 24);
    let workloads = [
        ("mul-104x24", ParallelMul::new(dims, 8).build()),
        ("dot-104x24", DotProduct::new(dims, 16, 8).build()),
    ];
    let base = SimConfig::default()
        .with_schedule(RemapSchedule::every(period))
        .with_read_tracking(true)
        .with_seed(7);
    for (label, wl) in &workloads {
        for name in ["BsxBs", "StxBs", "BsxSt", "BsxBs+Hw", "StxBs+Hw", "BsxSt+Hw"] {
            let balance: BalanceConfig = name.parse().unwrap();
            // Built at a count past one super-cycle, so construction walks it.
            let mut engine = AnalyticWearEngine::new(wl, balance, base.with_iterations(cycle + 1));
            assert_eq!(engine.path(), AnalyticPath::ClosedForm, "{label} {balance}");
            for n in [2 * cycle + 3, 2 * cycle + 3, cycle - 1, 3 * cycle, 2 * cycle + 3] {
                let analytic = engine.wear_at(n);
                let replayed =
                    EnduranceSimulator::new(base.with_iterations(n)).run_reference(wl, balance);
                let replayed = replayed.wear;
                for row in 0..dims.rows() {
                    for lane in 0..dims.lanes() {
                        assert_eq!(
                            (analytic.writes_at(row, lane), analytic.reads_at(row, lane)),
                            (replayed.writes_at(row, lane), replayed.reads_at(row, lane)),
                            "{label} {balance} at n={n}: wear diverges from step replay at \
                             ({row},{lane})"
                        );
                    }
                }
                assert_eq!(
                    (analytic.max_writes(), analytic.recount_max_writes()),
                    (replayed.max_writes(), replayed.max_writes()),
                    "{label} {balance} at n={n}: carried max writes"
                );
            }
        }
    }
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
