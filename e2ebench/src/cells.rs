//! The `paper-matrix` and `remap-sweep` workloads.
//!
//! A library round times the library's own entry points
//! (`run_configs_analytic` plus `fig17_table`, and
//! `sweep::remap_frequency_sweep_analytic`): that is what `run_s` and
//! `req_per_s` measure. A cell round runs the benchmark's per-cell copy of
//! the same fan-out, which times each cell's query and, in traced rounds,
//! wraps each public layer call in a span: that is where the per-cell
//! latencies and the per-layer metrics come from.

use std::hint::black_box;
use std::time::Instant;

use nvpim_balance::{BalanceConfig, RemapSchedule, Strategy};
use nvpim_bench::{experiments, Scale};
use nvpim_core::analytic::{self, AnalyticPath, AnalyticWearEngine};
use nvpim_core::artifacts::{self, ArtifactKind, StoreStats};
use nvpim_core::sweep::{self, SweepPoint};
use nvpim_core::{parallel, EnduranceSimulator, LifetimeModel, SimConfig, SimResult};
use nvpim_exec::ParallelRunner;
use nvpim_obs::{NullSink, TraceRecorder};
use nvpim_workloads::Workload;

use crate::digest::{self, Digests};
use crate::layers::{self, Scope, Tracer};
use crate::round::{self, Round};
use crate::stats::{median, CpuTimer, Stopwatch};
use crate::{Job, Pass};

/// Iterations per Fig. 17 cell at paper scale (25 remap epochs).
pub const MATRIX_ITERATIONS: u64 = 2_500;
/// Iterations per sweep point at paper scale (1 000 epochs at period 10).
pub const SWEEP_ITERATIONS: u64 = 10_000;
/// Workload syntheses per round; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Sweep points folding at most this many epochs are "hit" answers.
const SWEEP_HIT_EPOCHS: u64 = 10;

const RUNGS: [AnalyticPath; 3] =
    [AnalyticPath::ClosedForm, AnalyticPath::Lazy, AnalyticPath::Fallback];

/// The scale a job runs at.
fn scale(job: &Job, paper_iterations: u64) -> Scale {
    let scale =
        if job.tiny { Scale::tiny() } else { Scale::paper().with_iterations(paper_iterations) };
    scale.with_jobs(job.jobs)
}

/// Whether a matrix cell belongs to the "hit" latency population: a
/// configuration without a random mapper ({St, Bs}², 8 per workload).
/// Chosen by identity, not by the rung the cell lands on, so moving a cell
/// to a faster rung speeds up its population instead of changing it.
fn matrix_hit(config: BalanceConfig) -> bool {
    config.row != Strategy::Random && config.col != Strategy::Random
}

/// Whether a sweep point belongs to the "hit" latency population: never
/// remapping, or at most [`SWEEP_HIT_EPOCHS`] epochs at paper scale
/// (periods 10 000 and 1 000).
fn sweep_hit(schedule: RemapSchedule) -> bool {
    schedule.period().map_or(true, |p| SWEEP_ITERATIONS.div_ceil(p) <= SWEEP_HIT_EPOCHS)
}

/// One analytic cell: engine build plus one query at the configured
/// iteration count.
pub struct Cell {
    pub result: SimResult,
    rung: AnalyticPath,
    build_s: f64,
    query_s: f64,
    lifetime_s: f64,
    epochs: u64,
    /// Thread CPU seconds of the query: the cell's latency metric.
    query_cpu_s: f64,
}

impl Cell {
    fn wall_s(&self) -> f64 {
        self.build_s + self.query_s
    }
}

fn span_names(rung: AnalyticPath) -> (&'static str, &'static str) {
    match rung {
        AnalyticPath::ClosedForm => ("analytic.build.closed_form", "analytic.query.closed_form"),
        AnalyticPath::Lazy => ("analytic.build.lazy", "analytic.query.lazy"),
        AnalyticPath::Fallback => ("analytic.build.fallback", "analytic.query.fallback"),
    }
}

pub fn run_cell(
    workload: &Workload,
    config: BalanceConfig,
    cfg: SimConfig,
    tracer: Tracer,
) -> Cell {
    let dims = workload.trace().dims();
    let (build_name, query_name) =
        span_names(analytic::classify(config, cfg.schedule, dims, cfg.track_reads));
    let cell = tracer.span("exec.cell");
    let started = Instant::now();
    let mut engine = {
        let _span = cell.tracer().span(build_name);
        AnalyticWearEngine::new(workload, config, cfg)
    };
    let built = Instant::now();
    let cpu = CpuTimer::start();
    let result = {
        let _span = cell.tracer().span(query_name);
        engine.result_at_with(cfg.iterations, &NullSink)
    };
    let query_cpu_s = cpu.elapsed_s();
    let epochs = cfg.schedule.period().map_or(1, |p| cfg.iterations.div_ceil(p));
    Cell {
        rung: engine.path(),
        build_s: (built - started).as_secs_f64(),
        query_s: built.elapsed().as_secs_f64(),
        lifetime_s: 0.0,
        query_cpu_s,
        result,
        epochs,
    }
}

/// Per-rung cell counts and times: the `analytic.*` layer metrics.
#[derive(Default)]
pub struct Rungs {
    cells: [u64; 3],
    build_s: [f64; 3],
    query_s: [f64; 3],
    epochs: [u64; 3],
}

impl Rungs {
    pub fn add(&mut self, cell: &Cell) {
        let i = RUNGS.iter().position(|&r| r == cell.rung).expect("known rung");
        self.cells[i] += 1;
        self.build_s[i] += cell.build_s;
        self.query_s[i] += cell.query_s;
        self.epochs[i] += cell.epochs;
    }

    pub fn emit(&self, round: &mut Round) {
        for (i, rung) in RUNGS.iter().enumerate() {
            let label = rung.label();
            round.layer(&format!("analytic.cells.{label}"), self.cells[i] as f64);
            round.layer(&format!("analytic.build_s.{label}"), self.build_s[i]);
            round.layer(&format!("analytic.query_s.{label}"), self.query_s[i]);
            if *rung != AnalyticPath::ClosedForm {
                let epochs = self.epochs[i].max(1) as f64;
                round.layer(
                    &format!("analytic.us_per_epoch.{label}"),
                    self.query_s[i] * 1e6 / epochs,
                );
            }
        }
    }
}

/// Layer accounting of a cell round: rungs plus the pool's busy time, its
/// slowest cell, and the lifetime solve.
#[derive(Default)]
struct Tally {
    rungs: Rungs,
    busy_s: f64,
    max_cell_s: f64,
    lifetime_s: f64,
}

impl Tally {
    /// Books one cell, its query CPU time going to the hit or the cold
    /// latency population.
    fn add(&mut self, round: &mut Round, cell: &Cell, hit: bool) {
        self.rungs.add(cell);
        self.busy_s += cell.wall_s();
        self.max_cell_s = self.max_cell_s.max(cell.wall_s());
        self.lifetime_s += cell.lifetime_s;
        if hit {
            round.hit_us.push(cell.query_cpu_s * 1e6);
        } else {
            round.cold_ms.push(cell.query_cpu_s * 1e3);
        }
        round.answers += 1;
    }

    /// `wall_s` is the round's plain wall time: cell times include stolen
    /// time too, so utilization compares like with like.
    fn finish(&self, round: &mut Round, wall_s: f64, threads: usize) {
        self.rungs.emit(round);
        round.layer("exec.busy_s", self.busy_s);
        round.layer("exec.utilization", self.busy_s / (wall_s * threads as f64));
        round.layer("exec.max_cell_s", self.max_cell_s);
        round.layer("lifetime.s", self.lifetime_s);
    }
}

/// `artifacts.*` layer metrics from two snapshots of the global store.
pub fn store_layers(round: &mut Round, before: &StoreStats, after: &StoreStats) {
    let mut evictions = 0;
    for (i, kind) in ArtifactKind::ALL.iter().enumerate() {
        let (b, a) = (before.per_kind[i], after.per_kind[i]);
        let hits = a.hits - b.hits;
        let misses = a.misses - b.misses;
        let label = kind.label();
        round.layer(&format!("artifacts.hits.{label}"), hits as f64);
        round.layer(&format!("artifacts.misses.{label}"), misses as f64);
        let lookups = hits + misses;
        let ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        round.layer(&format!("artifacts.hit_ratio.{label}"), ratio);
        evictions += a.evictions - b.evictions;
    }
    round.layer("artifacts.evictions", evictions as f64);
    round.layer("artifacts.resident_bytes", after.total().bytes as f64);
}

/// Compares the round's digests with `want`, item by item: every compared
/// item is one attempted operation, every difference or missing item one
/// failure.
fn compare(round: &mut Round, set: &str, want: &Digests, what: &str) {
    let extra = round.digests.keys().filter(|item| !want.contains_key(*item)).count();
    round.attempted += (want.len() + extra) as u64;
    for item in digest::mismatches(want, &round.digests) {
        round.fail(format!("{set}: {item} differs from {what}"));
    }
}

/// Checks a round's answers. With digests recorded for the seed, every
/// round compares all of them with the record. Without, round 0 re-answers
/// all of them through `oracle`, the step simulator (an engine independent
/// of the analytic rungs), and every later round must reproduce round 0's
/// digests exactly ([`hold_to_first`]).
fn check(round: &mut Round, job: &Job, set: &str, oracle: impl FnOnce() -> Digests) {
    match job.reference.get(set) {
        Some(want) => compare(round, set, want, "the recorded digest"),
        None if job.round_index == 0 => compare(round, set, &oracle(), "the step simulator"),
        None => {}
    }
}

/// Holds every later round of a run to the digests of round 0, for a seed
/// with no recorded digests (see [`check`]).
pub fn hold_to_first(rounds: &mut [Round], set: &str) {
    if let Some((first, later)) = rounds.split_first_mut() {
        for round in later {
            compare(round, set, &first.digests, "round 0");
        }
    }
}

/// Workload synthesis, timed [`SETUP_REPEATS`] times in thread CPU seconds
/// (a synthesis takes milliseconds, below the resolution of steal
/// accounting): the round's `setup_s` is the median, and the last build
/// is the one measured.
fn synthesize<T>(round: &mut Round, rec: Option<&TraceRecorder>, build: impl Fn() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let timer = CpuTimer::start();
        let setup = Scope::root(rec, "bench.setup");
        let value = {
            let _span = setup.tracer().span("workloads.build");
            black_box(build())
        };
        times.push(timer.elapsed_s());
        built = Some(value);
    }
    round.setup_s = median(&times).expect("at least one set-up");
    round.layer("workloads.build_s", round.setup_s);
    built.expect("at least one set-up")
}

fn matrix_item(workload: &Workload, config: BalanceConfig) -> String {
    format!("{}/{config}", workload.name())
}

/// One cold Fig. 17 matrix: 3 workloads × 18 configurations.
pub fn paper_matrix(job: &Job) -> Round {
    let scale = scale(job, MATRIX_ITERATIONS);
    let recorder = layers::recorder(job.pass == Pass::Traced);
    let mut round = Round { pass: job.pass, ..Round::default() };
    let workloads = synthesize(&mut round, recorder.as_ref(), || scale.all_workloads());
    let cfg = scale.sim_config().with_seed(job.sim_seed());
    let configs = BalanceConfig::all();
    match job.pass {
        Pass::Library | Pass::NoSpin => {
            matrix_library(&mut round, &workloads, &configs, cfg, scale)
        }
        Pass::Cells | Pass::Traced => {
            let run_s =
                matrix_cells(&mut round, recorder.as_ref(), &workloads, &configs, cfg, scale);
            layers::finish(&mut round, recorder, job, run_s);
        }
    }
    round.peak_rss_mb = round::peak_rss_mb();

    let set = digest::set_key("paper-matrix", job.scale_label(), job.seed);
    check(&mut round, job, &set, || {
        let cells: Vec<(&Workload, BalanceConfig)> =
            workloads.iter().flat_map(|w| configs.iter().map(move |&c| (w, c))).collect();
        parallel::fan_out(cells, scale.jobs, |(workload, config), _| {
            let result = EnduranceSimulator::new(cfg).run(workload, config);
            (matrix_item(workload, config), digest::wear(&result))
        })
        .into_iter()
        .collect()
    });
    round
}

/// The library's Fig. 17 computation, timed as `run_s`:
/// `run_configs_analytic` per workload, the improvements over `StxSt` as
/// `experiments::fig17_data` derives them, and `fig17_table`. Digesting
/// the results is left out of the time.
fn matrix_library(
    round: &mut Round,
    workloads: &[Workload],
    configs: &[BalanceConfig],
    cfg: SimConfig,
    scale: Scale,
) {
    let model = LifetimeModel::mtj();
    let mut data = Vec::with_capacity(workloads.len());
    let mut digest_s = 0.0;
    let started = Stopwatch::start();
    for workload in workloads {
        let results = nvpim_core::run_configs_analytic(workload, configs, cfg, scale.jobs);
        let baseline =
            results.iter().find(|r| r.config.is_static()).expect("StxSt is in the matrix");
        data.push(
            results.iter().map(|r| (r.config, model.improvement(r, baseline))).collect::<Vec<_>>(),
        );
        let digesting = Stopwatch::start();
        for result in &results {
            round.digests.insert(matrix_item(workload, result.config), digest::wear(result));
        }
        digest_s += digesting.elapsed_s();
    }
    let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
    black_box(experiments::fig17_table(&names, &data, scale.iterations));
    let run_s = started.elapsed_s() - digest_s;
    round.run_s.push(run_s);
    round.window_s = run_s;
    round.answers = (workloads.len() * configs.len()) as u64;
}

/// The benchmark's per-cell copy of the matrix: each cell's query timed,
/// each layer call in a span when traced. Returns the measured seconds.
fn matrix_cells(
    round: &mut Round,
    rec: Option<&TraceRecorder>,
    workloads: &[Workload],
    configs: &[BalanceConfig],
    cfg: SimConfig,
    scale: Scale,
) -> f64 {
    let model = LifetimeModel::mtj();
    let before = artifacts::global().stats();
    let mut tally = Tally::default();
    let (mut verify_s, mut verify_wall_s) = (0.0, 0.0);
    let mut data = Vec::new();
    let root = Scope::root(rec, "bench.round");
    let started = Stopwatch::start();
    for workload in workloads {
        let cells = {
            let fan = root.tracer().span("exec.fan_out");
            let tracer = fan.tracer();
            parallel::fan_out(configs.to_vec(), scale.jobs, |config, _| {
                run_cell(workload, config, cfg, tracer)
            })
        };
        let verify = Stopwatch::start();
        {
            let _span = root.tracer().span("bench.verify");
            for cell in &cells {
                let item = matrix_item(workload, cell.result.config);
                round.digests.insert(item, digest::wear(&cell.result));
            }
        }
        verify_s += verify.elapsed_s();
        verify_wall_s += verify.wall_s();
        let lifetime = Instant::now();
        let improvements: Vec<(BalanceConfig, f64)> = {
            let _span = root.tracer().span("lifetime");
            let baseline =
                &cells.iter().find(|c| c.result.config.is_static()).expect("StxSt").result;
            cells
                .iter()
                .map(|c| (c.result.config, model.improvement(&c.result, baseline)))
                .collect()
        };
        tally.lifetime_s += lifetime.elapsed().as_secs_f64();
        for cell in &cells {
            tally.add(round, cell, matrix_hit(cell.result.config));
        }
        data.push(improvements);
    }
    let render = Instant::now();
    let table = {
        let _span = root.tracer().span("render");
        let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
        experiments::fig17_table(&names, &data, scale.iterations)
    };
    round.layer("render.s", render.elapsed().as_secs_f64());
    let run_s = started.elapsed_s() - verify_s;
    let wall_s = started.wall_s() - verify_wall_s;
    drop(root);
    black_box(table);
    round.run_s.push(run_s);
    round.window_s = run_s;
    store_layers(round, &before, &artifacts::global().stats());
    let threads = ParallelRunner::new(scale.jobs).effective_threads(configs.len());
    tally.finish(round, wall_s, threads);
    run_s
}

/// The sweep's schedules: never first, then `RemapSchedule::PAPER_SWEEP`.
fn sweep_schedules() -> Vec<RemapSchedule> {
    std::iter::once(RemapSchedule::never())
        .chain(RemapSchedule::PAPER_SWEEP.iter().map(|&p| RemapSchedule::every(p)))
        .collect()
}

/// Sweep points from per-schedule lifetimes (never first), as the library
/// derives them.
fn sweep_points(lifetimes: &[f64]) -> Vec<SweepPoint> {
    RemapSchedule::PAPER_SWEEP
        .iter()
        .zip(&lifetimes[1..])
        .map(|(&period, &lifetime)| SweepPoint {
            period,
            lifetime_iterations: lifetime,
            improvement_vs_never: lifetime / lifetimes[0],
        })
        .collect()
}

fn sweep_digests(points: &[SweepPoint]) -> Digests {
    points.iter().map(|p| (format!("period={}", p.period), digest::sweep_point(p))).collect()
}

/// The §5 sweep: RaxRa on mul32 over never + `RemapSchedule::PAPER_SWEEP`.
pub fn remap_sweep(job: &Job) -> Round {
    let scale = scale(job, SWEEP_ITERATIONS);
    let recorder = layers::recorder(job.pass == Pass::Traced);
    let mut round = Round { pass: job.pass, ..Round::default() };
    let workload = synthesize(&mut round, recorder.as_ref(), || scale.mul_workload());
    let balance: BalanceConfig = "RaxRa".parse().expect("RaxRa is a valid configuration");
    let base = SimConfig::paper().with_iterations(scale.iterations).with_seed(job.sim_seed());
    let model = LifetimeModel::mtj();
    let points = match job.pass {
        Pass::Library | Pass::NoSpin => {
            let started = Stopwatch::start();
            let points = sweep::remap_frequency_sweep_analytic(
                &workload,
                balance,
                base,
                model,
                &RemapSchedule::PAPER_SWEEP,
                scale.jobs,
            );
            let run_s = started.elapsed_s();
            round.run_s.push(run_s);
            round.window_s = run_s;
            round.answers = RemapSchedule::PAPER_SWEEP.len() as u64 + 1;
            points
        }
        Pass::Cells | Pass::Traced => {
            let (points, run_s) =
                sweep_cells(&mut round, recorder.as_ref(), &workload, balance, base, scale);
            layers::finish(&mut round, recorder, job, run_s);
            points
        }
    };
    round.peak_rss_mb = round::peak_rss_mb();
    round.digests = sweep_digests(&points);

    let set = digest::set_key("remap-sweep", job.scale_label(), job.seed);
    check(&mut round, job, &set, || {
        sweep_digests(&sweep::remap_frequency_sweep_parallel(
            &workload,
            balance,
            base,
            model,
            &RemapSchedule::PAPER_SWEEP,
            scale.jobs,
        ))
    });
    round
}

/// The benchmark's per-cell copy of the sweep, batched over the workers
/// as the library batches it. Returns the points and the measured seconds.
fn sweep_cells(
    round: &mut Round,
    rec: Option<&TraceRecorder>,
    workload: &Workload,
    balance: BalanceConfig,
    base: SimConfig,
    scale: Scale,
) -> (Vec<SweepPoint>, f64) {
    let model = LifetimeModel::mtj();
    let schedules = sweep_schedules();
    let threads = ParallelRunner::new(scale.jobs).effective_threads(schedules.len()).max(1);
    let batches: Vec<Vec<RemapSchedule>> =
        schedules.chunks(schedules.len().div_ceil(threads)).map(<[_]>::to_vec).collect();

    let before = artifacts::global().stats();
    let mut tally = Tally::default();
    let root = Scope::root(rec, "bench.round");
    let started = Stopwatch::start();
    let cells: Vec<(Cell, f64)> = {
        let fan = root.tracer().span("exec.fan_out");
        let tracer = fan.tracer();
        parallel::fan_out(batches, scale.jobs, |batch, _| {
            batch
                .into_iter()
                .map(|schedule| {
                    let mut cell =
                        run_cell(workload, balance, base.with_schedule(schedule), tracer);
                    let lifetime = Instant::now();
                    let iterations = {
                        let _span = tracer.span("lifetime");
                        model.lifetime(&cell.result).iterations
                    };
                    cell.lifetime_s = lifetime.elapsed().as_secs_f64();
                    (cell, iterations)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let lifetimes: Vec<f64> = cells.iter().map(|(_, lifetime)| *lifetime).collect();
    let points = sweep_points(&lifetimes);
    let run_s = started.elapsed_s();
    let wall_s = started.wall_s();
    drop(root);
    round.run_s.push(run_s);
    round.window_s = run_s;
    for ((cell, _), &schedule) in cells.iter().zip(&schedules) {
        tally.add(round, cell, sweep_hit(schedule));
    }
    round.layer("render.s", 0.0);
    store_layers(round, &before, &artifacts::global().stats());
    tally.finish(round, wall_s, threads);
    (points, run_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Reference;
    use crate::WorkloadKind;

    fn job(workload: WorkloadKind, pass: Pass, seed: u64) -> Job {
        Job {
            workload,
            seed,
            tiny: true,
            pass,
            slice_s: 0.1,
            round_index: 0,
            jobs: 2,
            reference: Reference::recorded(),
            out_dir: std::env::temp_dir(),
        }
    }

    /// The recorded reference with the last hex digit of one digest flipped.
    fn corrupted(set: &str, item: &str) -> Reference {
        let mut reference = Reference::recorded();
        let mut digests = reference.get(set).expect("set recorded").clone();
        let digest = digests.get_mut(item).expect("item recorded");
        let flipped = if digest.ends_with('0') { '1' } else { '0' };
        digest.pop();
        digest.push(flipped);
        reference.insert(set.to_owned(), digests);
        reference
    }

    #[test]
    fn matrix_rounds_match_the_library_matrix() {
        let library = paper_matrix(&job(WorkloadKind::PaperMatrix, Pass::Library, 3));
        let cells = paper_matrix(&job(WorkloadKind::PaperMatrix, Pass::Cells, 3));
        let scale = Scale::tiny().with_jobs(2);
        let cfg = scale.sim_config().with_seed(SimConfig::paper().seed + 3);
        let mut want = Digests::new();
        for workload in scale.all_workloads() {
            for result in nvpim_core::run_configs_analytic(&workload, &BalanceConfig::all(), cfg, 2)
            {
                want.insert(matrix_item(&workload, result.config), digest::wear(&result));
            }
        }
        for round in [&library, &cells] {
            assert_eq!(round.failed, 0, "{:?}", round.problems);
            assert_eq!(round.answers, 54);
            // Seed 3 has no recorded set: round 0 re-answers every cell
            // through the step simulator.
            assert_eq!(round.attempted, 54);
            assert_eq!(round.digests.len(), 54);
            for (item, digest) in &round.digests {
                assert_eq!(digest, &want[item], "{item}");
            }
        }
        assert_eq!(cells.hit_us.len(), 24);
        assert_eq!(cells.cold_ms.len(), 30);
    }

    #[test]
    fn sweep_rounds_match_the_library_sweep() {
        let scale = Scale::tiny().with_jobs(2);
        let base = SimConfig::paper()
            .with_iterations(scale.iterations)
            .with_seed(SimConfig::paper().seed + 3);
        let want = sweep_digests(&sweep::remap_frequency_sweep_analytic(
            &scale.mul_workload(),
            "RaxRa".parse().unwrap(),
            base,
            LifetimeModel::mtj(),
            &RemapSchedule::PAPER_SWEEP,
            2,
        ));
        for pass in [Pass::Library, Pass::Cells] {
            let round = remap_sweep(&job(WorkloadKind::RemapSweep, pass, 3));
            assert_eq!(round.failed, 0, "{:?}", round.problems);
            assert_eq!(round.attempted, 6);
            assert_eq!(round.digests, want);
        }
    }

    #[test]
    fn later_rounds_are_held_to_round_0() {
        let mut later = job(WorkloadKind::RemapSweep, Pass::Library, 3);
        later.round_index = 1;
        let mut rounds = vec![
            remap_sweep(&job(WorkloadKind::RemapSweep, Pass::Cells, 3)),
            remap_sweep(&later),
            remap_sweep(&later),
        ];
        // A later round checks nothing itself: the run holds it to round 0.
        assert_eq!(rounds[1].attempted, 0);
        let digest = rounds[2].digests.get_mut("period=10").expect("period 10 answered");
        digest.push('0');
        hold_to_first(&mut rounds, "remap-sweep/tiny/seed=3");
        assert_eq!((rounds[1].attempted, rounds[1].failed), (6, 0));
        assert_eq!((rounds[2].attempted, rounds[2].failed), (6, 1));
    }

    #[test]
    fn recorded_seeds_check_every_item() {
        let matrix = paper_matrix(&job(WorkloadKind::PaperMatrix, Pass::Library, 0));
        assert_eq!((matrix.attempted, matrix.failed), (54, 0), "{:?}", matrix.problems);
        let sweep = remap_sweep(&job(WorkloadKind::RemapSweep, Pass::Cells, 1009));
        assert_eq!((sweep.attempted, sweep.failed), (6, 0), "{:?}", sweep.problems);
    }

    #[test]
    fn a_corrupted_reference_digest_is_a_failure() {
        let mut matrix = job(WorkloadKind::PaperMatrix, Pass::Library, 0);
        matrix.reference = corrupted("paper-matrix/tiny/seed=0", "mul32/StxSt");
        let round = paper_matrix(&matrix);
        assert_eq!((round.attempted, round.failed), (54, 1), "{:?}", round.problems);

        let mut sweep = job(WorkloadKind::RemapSweep, Pass::Cells, 0);
        sweep.reference = corrupted("remap-sweep/tiny/seed=0", "period=10");
        let round = remap_sweep(&sweep);
        assert_eq!((round.attempted, round.failed), (6, 1), "{:?}", round.problems);
    }
}
