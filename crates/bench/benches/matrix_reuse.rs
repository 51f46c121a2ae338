//! Cross-configuration artifact reuse — the "whole matrix as fast as one
//! cell" claim.
//!
//! All 18 balancing configurations answer against one workload, so their
//! analytic engines share the symbolic trace walk, the logical/prefix
//! panels, and (for every `+Hw` cell) the trace's one compiled wear
//! kernel. The `matrix` group times the full 18-config matrix against a
//! content-addressed store that is cold (first touch builds, later cells
//! reuse) and warm (a previous matrix already populated the store).
//! The `engine_build` group times construction alone, all 18 engines of
//! one serve-mix shape (256×64, 2 000 iterations) against a warm store:
//! the work every cold `/simulate` miss does before its query, with the
//! trace's counts and fingerprint already memoized.
//! `scripts/bench.sh` records both groups into `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::{AnalyticWearEngine, ArtifactStore, SimConfig};
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;
use std::hint::black_box;

/// Budget that never evicts at this workload size.
const ROOMY: usize = 64 << 20;

fn workload() -> Workload {
    // Large enough that the symbolic trace walk and panel builds — the
    // shareable work — dominate per-cell query time.
    ParallelMul::new(ArrayDims::new(512, 32), 16).build()
}

fn base_cfg() -> SimConfig {
    SimConfig::paper().with_iterations(1000).with_schedule(RemapSchedule::every(100))
}

/// Runs every configuration through a fresh engine against `store` and
/// folds the answers so nothing is optimized away.
fn run_matrix(wl: &Workload, cfg: SimConfig, store: &ArtifactStore) -> u64 {
    BalanceConfig::all()
        .into_iter()
        .map(|balance| {
            let mut engine = AnalyticWearEngine::new_with_store(wl, balance, cfg, store);
            engine.wear_at(cfg.iterations).max_writes()
        })
        .fold(0, u64::wrapping_add)
}

fn bench_matrix_reuse(c: &mut Criterion) {
    let wl = workload();
    let cfg = base_cfg();
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("cold_store", |b| {
        // A fresh store per iteration: first-touch builds included, so
        // only *intra*-matrix sharing helps.
        b.iter(|| {
            let store = ArtifactStore::new(ROOMY);
            black_box(run_matrix(&wl, cfg, &store))
        });
    });
    group.bench_function("warm_store", |b| {
        // Previous matrices populated the store (repro reruns, serve
        // `/batch`, sweep refinement): every walk, panel, and kernel is
        // already resident.
        let store = ArtifactStore::new(ROOMY);
        let _ = run_matrix(&wl, cfg, &store);
        b.iter(|| black_box(run_matrix(&wl, cfg, &store)));
    });
    group.finish();
}

/// Builds every configuration's engine against `store` without querying
/// it, folding something from each so nothing is optimized away.
fn build_engines(wl: &Workload, cfg: SimConfig, store: &ArtifactStore) -> u64 {
    BalanceConfig::all()
        .into_iter()
        .map(|balance| {
            let engine = AnalyticWearEngine::new_with_store(wl, balance, cfg, store);
            engine.steps_per_iteration() ^ engine.artifact_use().hits
        })
        .fold(0, u64::wrapping_add)
}

fn bench_engine_build(c: &mut Criterion) {
    // The two serve-mix shapes, at its iterations and default period.
    let dims = ArrayDims::new(256, 64);
    let shapes = [
        ("mul32", ParallelMul::new(dims, 32).build()),
        ("conv4x3w8", Convolution::new(dims, 4, 3, 8).build()),
    ];
    let cfg = SimConfig::paper().with_iterations(2000).with_schedule(RemapSchedule::every(100));
    let mut group = c.benchmark_group("engine_build");
    for (name, wl) in &shapes {
        let store = ArtifactStore::new(ROOMY);
        let _ = build_engines(wl, cfg, &store);
        group.bench_function(*name, |b| b.iter(|| black_box(build_engines(wl, cfg, &store))));
    }
    group.finish();
}

criterion_group!(benches, bench_matrix_reuse, bench_engine_build);
criterion_main!(benches);
