//! Design-choice ablations called out in DESIGN.md:
//! epoch-factorized vs naive accumulation, compiled wear kernels vs the
//! step-replay oracle on the dynamic `+Hw` path, sense-amp vs
//! preset-output semantics, and workspace allocation policies.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::BalanceConfig;
use nvpim_bench::Scale;
use nvpim_core::{sim, AnalyticWearEngine, ArtifactStore, EnduranceSimulator, SimConfig};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::AllocPolicy;
use std::hint::black_box;

fn bench_fast_vs_naive(c: &mut Criterion) {
    let workload = ParallelMul::new(ArrayDims::new(128, 16), 8).build();
    let cfg = SimConfig::paper().with_iterations(100);
    let mut group = c.benchmark_group("accumulation");
    group.sample_size(10);
    group.bench_function("epoch_factorized", |b| {
        let sim = EnduranceSimulator::new(cfg);
        b.iter(|| black_box(sim.run(&workload, "RaxRa".parse().unwrap()).wear.max_writes()));
    });
    group.bench_function("naive_cell_by_cell", |b| {
        b.iter(|| {
            black_box(sim::simulate_naive(&workload, "RaxRa".parse().unwrap(), cfg).max_writes())
        });
    });
    group.finish();
}

fn bench_arch_styles(c: &mut Criterion) {
    let scale = Scale::tiny();
    let workload = scale.mul_workload();
    let mut group = c.benchmark_group("arch_style");
    group.sample_size(10);
    for (name, arch) in
        [("sense_amp", ArchStyle::SenseAmp), ("preset_output", ArchStyle::PresetOutput)]
    {
        group.bench_function(name, |b| {
            // The kernel comes warm from the artifact store after the first
            // iteration: this times the per-epoch fold under each style.
            let sim = EnduranceSimulator::new(scale.sim_config().with_arch(arch));
            b.iter(|| black_box(sim.run(&workload, "StxSt+Hw".parse().unwrap()).wear.max_writes()));
        });
    }
    group.finish();
}

fn bench_hw_replay(c: &mut Criterion) {
    // The compiled wear-kernel ablation: for a dynamic (+Hw) configuration
    // the compiled path folds each epoch, relabeled through its row table,
    // over the end permutation's cycle structure in O(rows) (its one
    // symbolic trace walk is a store hit after the first iteration); the
    // step-replay oracle walks the trace once per iteration.
    let workload = ParallelMul::new(ArrayDims::new(512, 32), 16).build();
    let cfg = SimConfig::paper()
        .with_iterations(2000)
        .with_schedule(nvpim_balance::RemapSchedule::every(100));
    let sim = EnduranceSimulator::new(cfg);
    let raxra_hw: BalanceConfig = "RaxRa+Hw".parse().unwrap();
    let mut group = c.benchmark_group("hw_replay");
    group.sample_size(10);
    group.bench_function("compiled", |b| {
        b.iter(|| black_box(sim.run(&workload, raxra_hw).wear.max_writes()));
    });
    group.bench_function("step_replay", |b| {
        b.iter(|| black_box(sim.run_reference(&workload, raxra_hw).wear.max_writes()));
    });
    group.finish();
}

fn bench_analytic_query(c: &mut Criterion) {
    // The replay-free engine ablation: a periodic config's query walks
    // at most one super-cycle's remainder of epochs and folds whole
    // super-cycles of its walked stage into it in row space (O(rows ×
    // staged vectors)), then renders once; compiled replay folds every
    // epoch (O(N/period)) and step replay walks the trace every iteration
    // (O(N)). Construction — the symbolic trace walk, plus one walked
    // super-cycle when the configured count spans it (100 000 iterations
    // do) — is timed separately (`build/*`), and `analytic/*` times
    // repeated queries on a built engine. Each answer takes the walker's
    // plane, so each repeat walks its remainder again: none for `StxSt`
    // (one-epoch super-cycles), 36 and 40 of 64 epochs for
    // `BsxBs(+Hw)/10000` and `/100000`, and all 10 epochs below one
    // super-cycle (`BsxBs(+Hw)/1000`).
    let workload = ParallelMul::new(ArrayDims::new(512, 32), 16).build();
    // Engines built inside the timed loop get a fresh private store, so
    // they pay a real symbolic walk + panel build every iteration;
    // warm-store construction is matrix_reuse's subject.
    let cold = |config: BalanceConfig, cfg: SimConfig| {
        let store = ArtifactStore::new(64 << 20);
        let mut engine = AnalyticWearEngine::new_with_store(&workload, config, cfg, &store);
        engine.wear_at(cfg.iterations).max_writes()
    };
    let base = SimConfig::paper().with_schedule(nvpim_balance::RemapSchedule::every(100));
    let mut group = c.benchmark_group("analytic_query");
    group.sample_size(10);
    let closed_form = ["StxSt", "BsxBs", "StxSt+Hw", "BsxBs+Hw"];
    for name in closed_form {
        let config: BalanceConfig = name.parse().unwrap();
        group.bench_function(format!("build/{name}"), |b| {
            let cfg = base.with_iterations(100_000);
            b.iter(|| {
                let store = ArtifactStore::new(64 << 20);
                black_box(AnalyticWearEngine::new_with_store(&workload, config, cfg, &store).path())
            });
        });
        for iters in [1_000u64, 10_000, 100_000] {
            group.bench_function(format!("analytic/{name}/{iters}"), |b| {
                let cfg = base.with_iterations(iters);
                let mut engine = AnalyticWearEngine::new(&workload, config, cfg);
                b.iter(|| black_box(engine.wear_at(iters).max_writes()));
            });
        }
        for iters in [1_000u64, 100_000] {
            group.bench_function(format!("compiled/{name}/{iters}"), |b| {
                let sim = EnduranceSimulator::new(base.with_iterations(iters));
                b.iter(|| black_box(sim.run(&workload, config).wear.max_writes()));
            });
        }
    }
    // The step-replay oracle only at the smallest count — it is the O(N)
    // baseline.
    for name in ["StxSt+Hw", "BsxBs+Hw"] {
        let config: BalanceConfig = name.parse().unwrap();
        group.bench_function(format!("step_replay/{name}/1000"), |b| {
            let sim = EnduranceSimulator::new(base.with_iterations(1_000));
            b.iter(|| black_box(sim.run_reference(&workload, config).wear.max_writes()));
        });
    }
    // The lazy rung (Ra draws force epoch enumeration, but with zero trace
    // walks) against the compiled simulator on the same config.
    let raxra: BalanceConfig = "RaxRa".parse().unwrap();
    group.bench_function("analytic/RaxRa/10000", |b| {
        let cfg = base.with_iterations(10_000);
        b.iter(|| black_box(cold(raxra, cfg)));
    });
    group.bench_function("compiled/RaxRa/10000", |b| {
        let sim = EnduranceSimulator::new(base.with_iterations(10_000));
        b.iter(|| black_box(sim.run(&workload, raxra).wear.max_writes()));
    });
    // The lazy Hw rung with Ra rows: the trace's one kernel relabeled
    // through a fresh random row table every epoch.
    let raxra_hw: BalanceConfig = "RaxRa+Hw".parse().unwrap();
    group.bench_function("analytic/RaxRa+Hw/1000", |b| {
        let cfg = base.with_iterations(1_000);
        b.iter(|| black_box(cold(raxra_hw, cfg)));
    });
    group.finish();
}

fn bench_alloc_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_policy_layout");
    group.sample_size(20);
    for (name, policy) in [
        ("windowed", AllocPolicy::Windowed),
        ("full_lane", AllocPolicy::FullLane),
        ("lowest_first", AllocPolicy::LowestFirst),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let wl =
                    ParallelMul::new(ArrayDims::new(1024, 8), 32).with_alloc_policy(policy).build();
                black_box(wl.trace().rows_used())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fast_vs_naive,
    bench_arch_styles,
    bench_hw_replay,
    bench_analytic_query,
    bench_alloc_policies
);
criterion_main!(benches);
