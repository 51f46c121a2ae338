//! Bit-identity of the epoch-compiled wear-kernel path.
//!
//! The `+Hw` fast path compiles one symbolic trace walk per run, relabels
//! it through each epoch's software row table, and folds whole epochs over
//! the resulting slot permutation. These tests
//! pin `EnduranceSimulator::run` against the step-replay oracle
//! (`run_reference`) — cell by cell, writes and reads, across every
//! balancing configuration, multiple geometries, partial final epochs, long
//! never-remap spans (the `q > 0` cycle-power fold), and randomized
//! redirect-storm parameters. `scripts/ci.sh` runs them in release mode.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::{EnduranceSimulator, SimConfig};
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Asserts the production run equals the step-replay oracle cell by cell.
fn assert_bit_identical(wl: &Workload, cfg: SimConfig, balance: BalanceConfig, label: &str) {
    let sim = EnduranceSimulator::new(cfg);
    let compiled = sim.run(wl, balance);
    let replayed = sim.run_reference(wl, balance);
    let dims = wl.trace().dims();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                compiled.wear.writes_at(row, lane),
                replayed.wear.writes_at(row, lane),
                "{label} {balance}: writes diverge at ({row},{lane})"
            );
            assert_eq!(
                compiled.wear.reads_at(row, lane),
                replayed.wear.reads_at(row, lane),
                "{label} {balance}: reads diverge at ({row},{lane})"
            );
        }
    }
}

#[test]
fn compiled_path_matches_step_replay_for_every_config_at_two_geometries() {
    // 23 iterations over a period of 7: three full epochs plus a partial
    // final epoch of 2, so span handling is exercised at both lengths.
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
            assert_bit_identical(wl, cfg, balance, label);
        }
    }
}

#[test]
fn long_never_remap_span_exercises_the_cycle_power_fold() {
    // One epoch of 200 iterations: the fold's whole-cycle quotient (q > 0)
    // dominates and the arrangement is advanced by a span far longer than
    // any cycle of the end permutation.
    let cfg = SimConfig::default()
        .with_iterations(200)
        .with_schedule(RemapSchedule::never())
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    for config in ["StxSt+Hw", "RaxSt+Hw", "StxBs+Hw"] {
        assert_bit_identical(&wl, cfg, config.parse().unwrap(), "never-remap");
    }
}

#[test]
fn per_iteration_remapping_relabels_without_divergence() {
    // period 1 under Ra rows: a fresh software table every single
    // iteration, so the one kernel is relabeled every iteration and must
    // still match exactly.
    let cfg = SimConfig::default()
        .with_iterations(9)
        .with_schedule(RemapSchedule::every(1))
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    for config in ["RaxRa+Hw", "BsxBs+Hw"] {
        assert_bit_identical(&wl, cfg, config.parse().unwrap(), "period-1");
    }
}

#[test]
fn randomized_redirect_storms_stay_bit_identical() {
    // Parameter fuzz across geometry, workload width, schedule, seed, and
    // every Hw configuration. Each case replays enough iterations that the
    // renaming arrangement churns through many redirect storms.
    let hw_configs = [
        "StxSt+Hw", "StxRa+Hw", "StxBs+Hw", "RaxSt+Hw", "RaxRa+Hw", "RaxBs+Hw", "BsxSt+Hw",
        "BsxRa+Hw", "BsxBs+Hw",
    ];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for case in 0..20u64 {
        let rows = [96usize, 128, 160, 257][(rand() % 4) as usize];
        let lanes = [4usize, 8, 16][(rand() % 3) as usize];
        // A 16-bit multiply needs more workspace rows than the small arrays
        // provide; keep the width within each geometry's budget.
        let width = if rows >= 256 && rand() % 2 == 0 { 16 } else { 8 };
        let wl = ParallelMul::new(ArrayDims::new(rows, lanes), width).without_readout().build();
        let schedule = match rand() % 5 {
            0 => RemapSchedule::never(),
            n => RemapSchedule::every(n),
        };
        let cfg = SimConfig::default()
            .with_iterations(10 + rand() % 30)
            .with_schedule(schedule)
            .with_seed(rand())
            .with_read_tracking(rand() % 2 == 0);
        let balance = hw_configs[(rand() % hw_configs.len() as u64) as usize];
        assert_bit_identical(
            &wl,
            cfg,
            balance.parse().unwrap(),
            &format!("fuzz case {case} ({rows}x{lanes} w{width})"),
        );
    }
}
