//! Bit-identity of the content-addressed artifact store.
//!
//! The store memoizes trace walks, logical panels, and compiled `+Hw`
//! kernels so the configuration matrix shares sub-computations across
//! cells. Reuse is only sound if a hit returns exactly what recomputation
//! would have produced — so these tests pin every store regime (off,
//! cold, warm, and starved to a 1-byte budget that evicts every insert)
//! against the store-off reference, cell by cell, across all 18 balancing
//! configurations, the replay simulator's kernel path, and a seeded fuzz
//! arm over random shapes and schedules.
//! `scripts/ci.sh` runs this suite in release mode.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::AnalyticWearEngine;
use nvpim_core::{ArtifactStore, EnduranceSimulator, SimConfig};
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Roomy enough that nothing a test-sized workload builds is evicted.
const ROOMY: usize = 64 << 20;

fn assert_maps_equal(
    reference: &nvpim_array::WearMap,
    candidate: &nvpim_array::WearMap,
    label: &str,
) {
    let dims = reference.dims();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                reference.writes_at(row, lane),
                candidate.writes_at(row, lane),
                "{label}: writes diverge at ({row},{lane})"
            );
            assert_eq!(
                reference.reads_at(row, lane),
                candidate.reads_at(row, lane),
                "{label}: reads diverge at ({row},{lane})"
            );
        }
    }
    assert_eq!(reference.max_writes(), candidate.max_writes(), "{label}: max-writes diverge");
    assert_eq!(reference.total_writes(), candidate.total_writes(), "{label}: total writes diverge");
    assert_eq!(reference.total_reads(), candidate.total_reads(), "{label}: total reads diverge");
}

/// Store off vs cold vs warm vs constantly-evicting, per configuration.
/// The warm engine must actually score hits on every path — otherwise the
/// "warm" arm silently degenerates into a second cold run.
#[test]
fn store_regimes_are_bit_identical_for_every_config() {
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper()
        .with_iterations(23)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true)
        .with_artifact_store(false);
    for balance in BalanceConfig::all() {
        let reference = AnalyticWearEngine::new(&wl, balance, cfg).wear_at(cfg.iterations);

        let roomy = ArtifactStore::new(ROOMY);
        let mut cold = AnalyticWearEngine::new_with_store(&wl, balance, cfg, &roomy);
        assert_maps_equal(&reference, &cold.wear_at(cfg.iterations), &format!("{balance} cold"));

        // Every kind is stored on its first miss, so the second engine
        // must hit.
        let mut warm = AnalyticWearEngine::new_with_store(&wl, balance, cfg, &roomy);
        let path = warm.path();
        assert_maps_equal(&reference, &warm.wear_at(cfg.iterations), &format!("{balance} warm"));
        assert!(
            warm.artifact_use().hits > 0,
            "{balance} [{path}]: warm engine scored no store hits"
        );

        // A 1-byte budget evicts every insert on arrival; the store must
        // degrade to build-always without touching the results.
        let starved = ArtifactStore::new(1);
        let mut evicted = AnalyticWearEngine::new_with_store(&wl, balance, cfg, &starved);
        assert_maps_equal(
            &reference,
            &evicted.wear_at(cfg.iterations),
            &format!("{balance} evicting"),
        );
        let left = starved.stats().total();
        assert_eq!((left.entries, left.bytes), (0, 0), "{balance}: starved store retained data");
    }
}

/// The replay simulator's compiled-kernel path goes through the store
/// when enabled; wear must not depend on the knob for any configuration.
#[test]
fn simulator_store_knob_is_inert() {
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper()
        .with_iterations(23)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true);
    for balance in BalanceConfig::all() {
        let on = EnduranceSimulator::new(cfg.with_artifact_store(true)).run(&wl, balance);
        let off = EnduranceSimulator::new(cfg.with_artifact_store(false)).run(&wl, balance);
        assert_maps_equal(&off.wear, &on.wear, &format!("{balance} sim store on/off"));
    }
}

/// Deterministic LCG over shapes, schedules, budgets, and configurations:
/// every sampled cell must be store-invariant.
#[test]
fn fuzzed_cells_are_store_invariant() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let configs = BalanceConfig::all();
    for trial in 0..12 {
        let rows = 128 << (next() % 2); // 128, 256
        let lanes = 4 << (next() % 3); // 4, 8, 16
        let width = 4 + (next() % 5) as usize; // 4..=8-bit operands
        let iterations = 1 + next() % 40;
        let period = 1 + next() % 12;
        let balance = configs[(next() % configs.len() as u64) as usize];
        let budget = match next() % 3 {
            0 => 1,       // constant eviction
            1 => 1 << 12, // tight: some artifacts survive, some don't
            _ => ROOMY,   // everything resident
        };
        let dims = ArrayDims::new(rows as usize, lanes as usize);
        let wl: Workload = if next() % 2 == 0 {
            ParallelMul::new(dims, width).build()
        } else {
            // DotProduct needs a power-of-two element count ≤ lane count.
            let elements = if lanes >= 8 && next() % 2 == 1 { 8 } else { 4 };
            DotProduct::new(dims, elements, 8).build()
        };
        let cfg = SimConfig::paper()
            .with_iterations(iterations)
            .with_schedule(RemapSchedule::every(period))
            .with_read_tracking(next() % 2 == 0)
            .with_artifact_store(false)
            .with_seed(next());
        let label = format!("trial {trial}: {balance} {rows}x{lanes} i={iterations} p={period}");

        let reference = AnalyticWearEngine::new(&wl, balance, cfg).wear_at(cfg.iterations);
        let store = ArtifactStore::new(budget);
        // Two engines against the same store: miss-then-hit (or evict)
        // regimes both land on the reference.
        for pass in 0..2 {
            let mut engine = AnalyticWearEngine::new_with_store(&wl, balance, cfg, &store);
            assert_maps_equal(
                &reference,
                &engine.wear_at(cfg.iterations),
                &format!("{label} pass {pass} budget {budget}"),
            );
        }
    }
}
