//! Serial vs parallel execution of the 18-configuration balancing matrix —
//! the speedup claim behind `repro --jobs N`.
//!
//! On a multi-core runner the `jobs_*` entries should scale with the core
//! count (the jobs are embarrassingly parallel); on a single core they cost
//! a few percent of queue overhead at most. `scripts/bench.sh` records the
//! numbers into `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::ArrayDims;
use nvpim_balance::BalanceConfig;
use nvpim_core::{EnduranceSimulator, SimConfig};
use nvpim_workloads::parallel_mul::ParallelMul;
use std::hint::black_box;

fn matrix_setup() -> (nvpim_workloads::Workload, EnduranceSimulator) {
    let workload = ParallelMul::new(ArrayDims::new(256, 16), 8).build();
    // The `+Hw` cells' kernel is a store hit after the first matrix, in
    // every arm alike, so the arms differ only in execution strategy.
    let sim = EnduranceSimulator::new(SimConfig::default().with_iterations(60));
    (workload, sim)
}

fn bench_matrix(c: &mut Criterion) {
    let (workload, sim) = matrix_setup();
    let mut group = c.benchmark_group("parallel_matrix");
    // The serial-vs-jobs deltas are small relative to shared-machine
    // jitter; more samples keep the recorded medians meaningful.
    group.sample_size(40);
    group.bench_function("serial_18_configs", |b| {
        // The serial API collects all 18 results just like the parallel
        // one, so the two arms differ only in execution strategy, not in
        // result-buffer lifetime.
        b.iter(|| {
            let total: u64 =
                sim.run_all_configs(&workload).iter().map(|r| r.wear.max_writes()).sum();
            black_box(total)
        });
    });
    for jobs in [1usize, 2, 4] {
        group.bench_function(format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                let total: u64 = sim
                    .run_all_configs_parallel(&workload, jobs)
                    .iter()
                    .map(|r| r.wear.max_writes())
                    .sum();
                black_box(total)
            });
        });
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    use nvpim_core::sweep::{remap_frequency_sweep, remap_frequency_sweep_parallel};
    use nvpim_core::LifetimeModel;
    let (workload, _) = matrix_setup();
    let balance: BalanceConfig = "RaxRa".parse().unwrap();
    let base = SimConfig::default().with_iterations(60);
    let periods = [50u64, 20, 10, 5];
    let mut group = c.benchmark_group("parallel_sweep");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            black_box(remap_frequency_sweep(
                &workload,
                balance,
                base,
                LifetimeModel::mtj(),
                &periods,
            ))
        });
    });
    for jobs in [2usize, 4] {
        group.bench_function(format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                black_box(remap_frequency_sweep_parallel(
                    &workload,
                    balance,
                    base,
                    LifetimeModel::mtj(),
                    &periods,
                    jobs,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matrix, bench_sweep);
criterion_main!(benches);
