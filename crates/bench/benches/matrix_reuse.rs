//! Cross-configuration artifact reuse — the "whole matrix as fast as one
//! cell" claim.
//!
//! All 18 balancing configurations answer against one workload, so their
//! analytic engines share the symbolic trace walk, the logical/prefix
//! panels, and (for every `+Hw` cell) the trace's one compiled wear
//! kernel. The `matrix` group times the full 18-config matrix with the
//! content-addressed store disabled (every cell rebuilds everything),
//! cold (first touch builds, later cells reuse), and warm (a previous
//! matrix already populated the store). The acceptance bar is
//! `warm_store` ≥ 2× faster than `no_store`. `scripts/bench.sh` records
//! the group into `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::{AnalyticWearEngine, ArtifactStore, SimConfig};
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

/// Runs every configuration through a fresh engine against `store`
/// (`None` = memoization off) and folds the answers so nothing is
/// optimized away.
fn run_matrix(wl: &Workload, cfg: SimConfig, store: Option<&ArtifactStore>) -> u64 {
    BalanceConfig::all()
        .into_iter()
        .map(|balance| {
            let mut engine = match store {
                Some(store) => AnalyticWearEngine::new_with_store(wl, balance, cfg, store),
                None => AnalyticWearEngine::new(wl, balance, cfg),
            };
            engine.wear_at(cfg.iterations).max_writes()
        })
        .fold(0, u64::wrapping_add)
}

fn bench_matrix_reuse(c: &mut Criterion) {
    let wl = workload();
    let cfg = base_cfg().with_artifact_store(false);
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("no_store", |b| {
        b.iter(|| black_box(run_matrix(&wl, cfg, None)));
    });
    group.bench_function("cold_store", |b| {
        // A fresh store per iteration: first-touch builds included, so
        // the delta vs no_store is pure *intra*-matrix sharing.
        b.iter(|| {
            let store = ArtifactStore::new(ROOMY);
            black_box(run_matrix(&wl, cfg, Some(&store)))
        });
    });
    group.bench_function("warm_store", |b| {
        // Previous matrices populated the store (repro reruns, serve
        // `/batch`, sweep refinement): every walk, panel, and kernel is
        // already resident.
        let store = ArtifactStore::new(ROOMY);
        let _ = run_matrix(&wl, cfg, Some(&store));
        b.iter(|| black_box(run_matrix(&wl, cfg, Some(&store))));
    });
    group.finish();
}

criterion_group!(benches, bench_matrix_reuse);
criterion_main!(benches);
