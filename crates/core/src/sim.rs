//! The endurance simulator: workload × balancing configuration × iterations
//! → per-cell write distribution.
//!
//! §4 of the paper: *"The simulation is instruction-level accurate, and each
//! write to each memory cell is counted."* Without `Hw` the pattern within
//! one re-compilation epoch is constant, so one iteration is simulated per
//! epoch and scaled. With `Hw` every iteration has a different pattern, but
//! the free-row renaming is position-based: one symbolic trace walk per run
//! compiles a wear kernel (per-slot delta panels plus the iteration's slot
//! permutation), and each epoch relabels it through the software row table
//! and folds it over the permutation's cycle structure in O(rows) (see
//! [`crate::kernel`]'s module docs). Both
//! paths are bit-exact against naive execution (asserted by tests) and
//! orders of magnitude faster.
//!
//! [`EnduranceSimulator::run_reference`] is the step-replay oracle the
//! suites and `nvpim-check` compare production answers against: the same
//! epoch loop, series samples and conservation asserts, but every step
//! translated through [`CombinedMap::lookup_row`] — every iteration under
//! `Hw`, once per epoch (scaled) otherwise — with no compiled kernel, no
//! row table and no artifact store.
//!
//! [`EnduranceSimulator::run_within`] runs the same epoch loop under a
//! wall-clock deadline, read at each epoch boundary: once it has passed,
//! the run stops there, drops its wear map and returns [`Expired`]. Every
//! other entry point is its no-deadline case and reads no clock.

use std::time::Instant;

use nvpim_array::{AddressMap, ArchStyle, LaneSet, Step, Trace, WearMap};
use nvpim_balance::{BalanceConfig, CombinedMap, RemapSchedule};
use nvpim_obs::{Event, EventSink, NullSink};
use nvpim_workloads::Workload;

use crate::parallel::fan_out;

/// Simulation parameters.
///
/// # Examples
///
/// ```
/// use nvpim_core::SimConfig;
/// use nvpim_array::ArchStyle;
///
/// let cfg = SimConfig::default()
///     .with_iterations(1_000)
///     .with_arch(ArchStyle::SenseAmp)
///     .with_seed(7);
/// assert_eq!(cfg.iterations, 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Iterations of the workload to replay (the paper uses 100 000).
    pub iterations: u64,
    /// Gate execution semantics (paper default: preset-output).
    pub arch: ArchStyle,
    /// Software re-mapping (re-compilation) schedule (paper figures: every
    /// 100 iterations).
    pub schedule: RemapSchedule,
    /// Seed for the strategies' randomness.
    pub seed: u64,
    /// Whether to also accumulate per-cell *read* counts (needed only for
    /// Fig. 5b; costs extra time).
    pub track_reads: bool,
    /// Whether to sample the wear distribution at every epoch boundary
    /// into [`SimResult::series`] (max/mean/p99 writes, Gini, remap
    /// count) and emit matching [`Event::SeriesPoint`]s. The samples are
    /// pure functions of the wear map, so they are bit-identical across
    /// the replayed and compiled paths; off (the default) costs nothing.
    pub epoch_series: bool,
}

impl SimConfig {
    /// The paper's full-scale configuration: 100 000 iterations,
    /// preset-output gates, re-compilation every 100 iterations.
    #[must_use]
    pub fn paper() -> Self {
        SimConfig {
            iterations: 100_000,
            arch: ArchStyle::PresetOutput,
            schedule: RemapSchedule::every(100),
            seed: 0xC0FFEE,
            track_reads: false,
            epoch_series: false,
        }
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the architecture style.
    #[must_use]
    pub fn with_arch(mut self, arch: ArchStyle) -> Self {
        self.arch = arch;
        self
    }

    /// Sets the re-mapping schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: RemapSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-cell read tracking.
    #[must_use]
    pub fn with_read_tracking(mut self, track: bool) -> Self {
        self.track_reads = track;
        self
    }

    /// Enables per-epoch wear-trajectory sampling (off by default).
    #[must_use]
    pub fn with_epoch_series(mut self, enabled: bool) -> Self {
        self.epoch_series = enabled;
        self
    }
}

impl Default for SimConfig {
    /// A scaled-down default (10 000 iterations) with the paper's remaining
    /// settings; the write-distribution *shape* is unchanged vs. 100 000.
    fn default() -> Self {
        SimConfig::paper().with_iterations(10_000)
    }
}

/// One point of the wear trajectory: the cumulative wear distribution's
/// summary statistics at an epoch boundary. Every field is a pure
/// function of the (bit-exact) wear map, so replayed and compiled runs
/// produce identical samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Iterations completed when the sample was taken.
    pub iteration: u64,
    /// Zero-based index of the epoch span just folded.
    pub epoch: u64,
    /// Writes on the hottest cell so far.
    pub max_writes: u64,
    /// 99th-percentile per-cell write count (nearest rank).
    pub p99_writes: u64,
    /// Mean per-cell write count.
    pub mean_writes: f64,
    /// Gini coefficient of the write distribution.
    pub gini: f64,
    /// Software remap events so far.
    pub remaps: u64,
}

/// Outcome of one simulation: the wear map plus the bookkeeping lifetime
/// estimation needs.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-cell accumulated writes (and reads, if tracked).
    pub wear: WearMap,
    /// Balancing configuration simulated.
    pub config: BalanceConfig,
    /// Iterations replayed.
    pub iterations: u64,
    /// Sequential steps of one iteration (constant across iterations).
    pub steps_per_iteration: u64,
    /// Architecture style used.
    pub arch: ArchStyle,
    /// Per-epoch wear trajectory (empty unless
    /// [`SimConfig::epoch_series`] was enabled).
    pub series: Vec<EpochSample>,
}

impl SimResult {
    /// Writes per iteration suffered by the most-written cell — the
    /// denominator of Eq. 4.
    #[must_use]
    pub fn max_writes_per_iteration(&self) -> f64 {
        self.wear.max_writes() as f64 / self.iterations as f64
    }

    /// Latency of one iteration in seconds, given an operation latency.
    #[must_use]
    pub fn iteration_latency_s(&self, op_latency_ns: f64) -> f64 {
        self.steps_per_iteration as f64 * op_latency_ns * 1e-9
    }

    /// Total cell writes accumulated over the whole run.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.wear.total_writes()
    }

    /// Total cell reads accumulated over the whole run (0 unless the
    /// configuration enabled read tracking).
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.wear.total_reads()
    }
}

/// A deadline-checked walk stopped at an epoch boundary because its
/// deadline had passed; its wear was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired {
    /// Iterations walked before the stop, a whole number of epochs.
    pub iterations: u64,
}

impl std::fmt::Display for Expired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline passed after {} iterations", self.iterations)
    }
}

impl std::error::Error for Expired {}

/// The epoch-boundary check: `Err` once `deadline` has passed, with the
/// iterations `done` so far. `None` reads no clock.
pub(crate) fn check_deadline(deadline: Option<Instant>, done: u64) -> Result<(), Expired> {
    match deadline {
        Some(deadline) if Instant::now() >= deadline => Err(Expired { iterations: done }),
        _ => Ok(()),
    }
}

/// The answer of a walk run without a deadline, which cannot expire.
pub(crate) fn unbounded<T>(walk: Result<T, Expired>) -> T {
    walk.unwrap_or_else(|_| unreachable!("a walk without a deadline never expires"))
}

/// Replays workload traces under balancing configurations.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceSimulator {
    cfg: SimConfig,
}

/// Which replay arm the shared epoch loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replay {
    /// Static maps through the epoch's flat row table, `+Hw` maps through
    /// the compiled kernel from the artifact store.
    Production,
    /// Per-step `lookup_row` replay: the oracle.
    Reference,
}

impl EnduranceSimulator {
    /// Creates a simulator with the given parameters.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        EnduranceSimulator { cfg }
    }

    /// The simulator's parameters.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Runs `workload` for the configured number of iterations under
    /// `balance` and returns the accumulated write distribution.
    ///
    /// If a process-wide [`nvpim_obs::Observer`] is installed, the run is
    /// instrumented through it; otherwise it executes against
    /// [`NullSink`], whose disabled emission sites monomorphize away.
    #[must_use]
    pub fn run(&self, workload: &Workload, balance: BalanceConfig) -> SimResult {
        self.run_observed(workload, balance, Replay::Production)
    }

    /// The step-replay oracle: [`EnduranceSimulator::run`]'s answer
    /// computed by translating every step through
    /// [`CombinedMap::lookup_row`] — each iteration under `Hw`, one scaled
    /// iteration per epoch otherwise — without the compiled kernel, the
    /// flat row table, or the artifact store. Tests and `nvpim-check`
    /// compare the production paths against it; it reports into the
    /// installed observer exactly as `run` does.
    #[must_use]
    pub fn run_reference(&self, workload: &Workload, balance: BalanceConfig) -> SimResult {
        self.run_observed(workload, balance, Replay::Reference)
    }

    fn run_observed(&self, workload: &Workload, balance: BalanceConfig, arm: Replay) -> SimResult {
        let counts = workload.trace().counts(self.cfg.arch);
        unbounded(match nvpim_obs::observer::current() {
            Some(observer) => self.simulate(workload, balance, &*observer, counts, arm, None),
            None => self.simulate(workload, balance, &NullSink, counts, arm, None),
        })
    }

    /// Runs `workload` under `balance`, emitting progress, phase-timing,
    /// and counter [`Event`]s into `sink`.
    ///
    /// The simulator is generic over the sink so that the disabled path
    /// costs nothing: with [`NullSink`], `sink.enabled()` is a constant
    /// `false` and every guarded emission compiles out. Hot-loop tallies
    /// are plain locals flushed as a handful of events at run end.
    #[must_use]
    pub fn run_with<S: EventSink>(
        &self,
        workload: &Workload,
        balance: BalanceConfig,
        sink: &S,
    ) -> SimResult {
        unbounded(self.run_within(workload, balance, sink, None))
    }

    /// [`EnduranceSimulator::run_with`] under a wall-clock `deadline`,
    /// checked before each epoch: once it has passed, the run stops at
    /// that epoch boundary, drops its wear map and returns [`Expired`]
    /// (a deadline already passed books no epoch). `None` runs to the end
    /// and reads no clock.
    ///
    /// # Errors
    ///
    /// [`Expired`] when the deadline passes before the last epoch.
    pub fn run_within<S: EventSink>(
        &self,
        workload: &Workload,
        balance: BalanceConfig,
        sink: &S,
        deadline: Option<Instant>,
    ) -> Result<SimResult, Expired> {
        let counts = workload.trace().counts(self.cfg.arch);
        self.simulate(workload, balance, sink, counts, Replay::Production, deadline)
    }

    /// [`EnduranceSimulator::run_with`] with the trace's static counts
    /// precomputed by the caller. The counts depend only on the trace and
    /// the architecture style, so batch entry points (the 18-configuration
    /// matrix, the re-mapping sweep) tally them once instead of walking the
    /// trace again for every job.
    pub(crate) fn run_with_counts<S: EventSink>(
        &self,
        workload: &Workload,
        balance: BalanceConfig,
        sink: &S,
        counts: nvpim_array::trace::TraceCounts,
    ) -> SimResult {
        unbounded(self.simulate(workload, balance, sink, counts, Replay::Production, None))
    }

    /// The epoch loop both replay arms share: series samples, counters,
    /// the deadline check and the run-end conservation asserts are common;
    /// `arm` picks how each epoch's wear is tallied.
    fn simulate<S: EventSink>(
        &self,
        workload: &Workload,
        balance: BalanceConfig,
        sink: &S,
        counts: nvpim_array::trace::TraceCounts,
        arm: Replay,
        deadline: Option<Instant>,
    ) -> Result<SimResult, Expired> {
        let trace = workload.trace();
        let dims = trace.dims();
        let mut map = CombinedMap::new(balance, dims.rows(), dims.lanes(), self.cfg.seed);
        assert!(
            trace.rows_used() <= map.logical_rows(),
            "workload uses {} rows but only {} are available under {balance} \
             (Hw reserves one spare row)",
            trace.rows_used(),
            map.logical_rows()
        );

        let enabled = sink.enabled();
        let run_start = Instant::now();
        if enabled {
            let config_name = balance.to_string();
            let arch_name = self.cfg.arch.to_string();
            sink.record(&Event::RunStart {
                workload: workload.name(),
                config: &config_name,
                arch: &arch_name,
                iterations: self.cfg.iterations,
                rows: dims.rows(),
                lanes: dims.lanes(),
                seed: self.cfg.seed,
            });
        }

        let mut acc = Accumulator::new(trace, self.cfg.track_reads);
        let mut wear = WearMap::new(dims);
        // The compiled path's one symbolic trace walk (or its store hit)
        // happens here, booked as the run's one replay.
        let replay_timer = enabled.then(Instant::now);
        let mut hw_engine = (map.is_dynamic() && arm == Replay::Production)
            .then(|| crate::kernel::HwKernelEngine::new(trace, balance, &self.cfg));

        // Per-epoch tallies; cheap plain locals even on the disabled path.
        let mut replays = u64::from(hw_engine.is_some());
        let mut epochs = 0u64;
        let mut replay_ns = replay_timer.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut scatter_ns = 0u64;
        let mut series: Vec<EpochSample> = Vec::new();

        let mut iteration = 0u64;
        while iteration < self.cfg.iterations {
            check_deadline(deadline, iteration)?;
            // Iterations remaining in this software epoch.
            let until_remap = match self.cfg.schedule.period() {
                Some(p) => p - (iteration % p),
                None => self.cfg.iterations - iteration,
            };
            let span = until_remap.min(self.cfg.iterations - iteration);

            // The compiled path walked the trace once, up front; the other
            // paths replay every epoch.
            let replay_timer = enabled.then(Instant::now);
            if hw_engine.is_none() && map.is_dynamic() {
                // Hardware re-mapping evolves per gate: replay each
                // iteration of the epoch. This path allocates nothing per
                // iteration — all tallies live in the accumulator.
                for _ in 0..span {
                    acc.replay(trace, &mut map, self.cfg.arch);
                }
                replays += span;
            } else if hw_engine.is_none() {
                // Static within the epoch: one replay, scaled. In production
                // the epoch's flat row table replaces the per-step lookup
                // chain.
                match arm {
                    Replay::Production => acc.replay_cached(trace, map.row_table(), self.cfg.arch),
                    Replay::Reference => acc.replay(trace, &mut map, self.cfg.arch),
                }
                replays += 1;
            }
            if let Some(t) = replay_timer {
                replay_ns += t.elapsed().as_nanos() as u64;
            }

            let scatter_timer = enabled.then(Instant::now);
            if let Some(engine) = &mut hw_engine {
                engine.apply_epoch(&mut map, span, &mut wear);
                // The compiled path stages its epochs in row space; render
                // them before anything reads the map (an epoch-series
                // sample or the run-end conservation check).
                if self.cfg.epoch_series || iteration + span == self.cfg.iterations {
                    engine.rows.flush(&mut wear);
                }
            } else {
                let scale = if map.is_dynamic() { 1 } else { span };
                acc.scatter(trace, &map, &mut wear, scale);
            }
            if let Some(t) = scatter_timer {
                scatter_ns += t.elapsed().as_nanos() as u64;
            }

            iteration += span;
            if enabled {
                sink.record(&Event::Observe { name: "sim.epoch_span_iters", value: span });
                sink.record(&Event::Progress { done: iteration, total: self.cfg.iterations });
            }
            if self.cfg.schedule.remaps_after(iteration - 1) {
                map.advance_epoch();
                epochs += 1;
                if enabled {
                    sink.record(&Event::EpochAdvance { iteration, epoch: map.epoch() });
                }
            }
            if self.cfg.epoch_series {
                // Sampled *after* the epoch's wear landed (and after any
                // remap), so a sample at iteration N reflects exactly N
                // folded iterations on both the replayed and the compiled
                // path — the bit-for-bit contract the trajectory tests
                // assert.
                let sample = EpochSample {
                    iteration,
                    epoch: series.len() as u64,
                    max_writes: wear.max_writes(),
                    p99_writes: wear.write_quantile(0.99),
                    mean_writes: wear.mean_writes(),
                    gini: wear.gini(),
                    remaps: epochs,
                };
                if enabled {
                    for (name, value) in [
                        ("wear.max_writes", sample.max_writes as f64),
                        ("wear.p99_writes", sample.p99_writes as f64),
                        ("wear.mean_writes", sample.mean_writes),
                        ("wear.gini", sample.gini),
                        ("wear.remaps", sample.remaps as f64),
                    ] {
                        sink.record(&Event::SeriesPoint { series: name, index: iteration, value });
                    }
                }
                series.push(sample);
            }
        }

        // Runtime consistency cross-check: the wear map and the trace's
        // static counts tally the same traffic independently. A mismatch
        // means the epoch-factorized fast path dropped or double-counted
        // writes.
        let total_writes = wear.total_writes();
        assert_eq!(
            total_writes,
            self.cfg.iterations * counts.cell_writes,
            "wear map disagrees with trace write counts under {balance}"
        );
        if self.cfg.track_reads {
            assert_eq!(
                wear.total_reads(),
                self.cfg.iterations * counts.cell_reads,
                "wear map disagrees with trace read counts under {balance}"
            );
        }

        if enabled {
            sink.record(&Event::CounterAdd { name: "sim.iterations", delta: self.cfg.iterations });
            sink.record(&Event::CounterAdd { name: "sim.replays", delta: replays });
            sink.record(&Event::CounterAdd {
                name: "sim.steps_replayed",
                delta: replays * counts.sequential_steps,
            });
            if let Some(engine) = &mut hw_engine {
                let delta = engine.rows.take_lane_renders();
                sink.record(&Event::CounterAdd { name: "sim.lane_renders", delta });
            }
            sink.record(&Event::CounterAdd { name: "balance.remap_events", delta: epochs });
            sink.record(&Event::CounterAdd {
                name: "balance.hw_redirects",
                delta: map.hw_redirects(),
            });
            sink.record(&Event::CounterAdd { name: "array.cell_writes", delta: total_writes });
            sink.record(&Event::CounterAdd { name: "array.cell_reads", delta: wear.total_reads() });
            sink.record(&Event::PhaseEnd { phase: "sim.replay", ns: replay_ns });
            sink.record(&Event::PhaseEnd { phase: "sim.scatter", ns: scatter_ns });
            sink.record(&Event::RunEnd {
                iterations: self.cfg.iterations,
                total_writes,
                max_writes: wear.max_writes(),
                wall_ns: run_start.elapsed().as_nanos() as u64,
            });
            sink.flush();
        }

        Ok(SimResult {
            wear,
            config: balance,
            iterations: self.cfg.iterations,
            steps_per_iteration: counts.sequential_steps,
            arch: self.cfg.arch,
            series,
        })
    }

    /// Answers the configured iteration count through the replay-free
    /// analytic engine ([`crate::analytic`]) — bit-identical wear to
    /// [`EnduranceSimulator::run`]. One-shot convenience;
    /// callers issuing many queries should hold an
    /// [`crate::analytic::AnalyticWearEngine`] directly.
    #[must_use]
    pub fn run_analytic(&self, workload: &Workload, balance: BalanceConfig) -> SimResult {
        crate::analytic::AnalyticWearEngine::new(workload, balance, self.cfg)
            .result_at(self.cfg.iterations)
    }

    /// Runs every one of the paper's 18 balancing configurations.
    #[must_use]
    pub fn run_all_configs(&self, workload: &Workload) -> Vec<SimResult> {
        BalanceConfig::all().into_iter().map(|c| self.run(workload, c)).collect()
    }

    /// Runs `workload` under each of `configs` across `jobs` worker threads
    /// (`0` = auto: `NVPIM_THREADS`, else the machine's parallelism).
    ///
    /// Results come back in the order of `configs`, bit-identical to
    /// running each serially: every job owns its `CombinedMap` (seeded from
    /// the shared [`SimConfig`]), so no simulation state crosses threads.
    /// If a process-wide [`nvpim_obs::Observer`] is installed, each worker records
    /// into a private sink that is merged into it in submission order after
    /// the join, keeping global counters and phase timings exact.
    #[must_use]
    pub fn run_configs_parallel(
        &self,
        workload: &Workload,
        configs: &[BalanceConfig],
        jobs: usize,
    ) -> Vec<SimResult> {
        // The trace's static counts are config-independent: tally them once
        // for the whole batch instead of once per job.
        let counts = workload.trace().counts(self.cfg.arch);
        fan_out(configs.to_vec(), jobs, |config, sink| match sink {
            Some(observer) => self.run_with_counts(workload, config, observer, counts),
            None => self.run_with_counts(workload, config, &NullSink, counts),
        })
    }

    /// The parallel form of [`EnduranceSimulator::run_all_configs`]: the
    /// paper's full 18-configuration matrix fanned across `jobs` worker
    /// threads, bit-identical to the serial path.
    #[must_use]
    pub fn run_all_configs_parallel(&self, workload: &Workload, jobs: usize) -> Vec<SimResult> {
        self.run_configs_parallel(workload, &BalanceConfig::all(), jobs)
    }
}

/// Per-epoch (class × physical row) write/read tallies, scattered into the
/// 2-D wear map once per epoch through the epoch's lane permutation.
#[derive(Debug)]
struct Accumulator {
    writes: Vec<Vec<u64>>,
    reads: Option<Vec<Vec<u64>>>,
    all_lanes: Vec<bool>,
    /// Reused physical-lane scratch set so `scatter` allocates nothing.
    phys_scratch: LaneSet,
}

impl Accumulator {
    fn new(trace: &Trace, track_reads: bool) -> Self {
        let rows = trace.dims().rows();
        let n_classes = trace.classes().len();
        let lanes = trace.dims().lanes();
        Accumulator {
            writes: vec![vec![0; rows]; n_classes],
            reads: track_reads.then(|| vec![vec![0; rows]; n_classes]),
            all_lanes: trace.classes().iter().map(|c| c.count() == lanes).collect(),
            phys_scratch: LaneSet::empty(lanes),
        }
    }

    /// Tallies one iteration of the trace under the current mapping.
    fn replay(&mut self, trace: &Trace, map: &mut CombinedMap, arch: ArchStyle) {
        let writes_per_gate = arch.writes_per_gate();
        for step in trace.steps() {
            match *step {
                Step::Write { row, class, .. } => {
                    self.writes[class][map.lookup_row(row)] += 1;
                }
                Step::Read { row, class } => {
                    if let Some(reads) = &mut self.reads {
                        reads[class][map.lookup_row(row)] += 1;
                    }
                }
                Step::Gate { kind, ins, out, class } => {
                    let out_row = map.gate_output_row(out, self.all_lanes[class]);
                    self.writes[class][out_row] += writes_per_gate;
                    if let Some(reads) = &mut self.reads {
                        reads[class][map.lookup_row(ins[0])] += 1;
                        if kind.arity() == 2 {
                            reads[class][map.lookup_row(ins[1])] += 1;
                        }
                    }
                }
                Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                    self.writes[dst_class][map.lookup_row(dst_row)] += 1;
                    if let Some(reads) = &mut self.reads {
                        reads[src_class][map.lookup_row(src_row)] += 1;
                    }
                }
            }
        }
    }

    /// Tallies one iteration of the trace through the epoch's flat
    /// logical→physical row table ([`CombinedMap::row_table`]) — the
    /// static-map hot path. Semantically identical to [`Accumulator::replay`]
    /// with `Hw` off: every translation is a single slice index, and the
    /// read-tracking branch is hoisted out of the step loop.
    fn replay_cached(&mut self, trace: &Trace, rows: &[usize], arch: ArchStyle) {
        let writes_per_gate = arch.writes_per_gate();
        match &mut self.reads {
            None => {
                for step in trace.steps() {
                    match *step {
                        Step::Write { row, class, .. } => {
                            self.writes[class][rows[row]] += 1;
                        }
                        Step::Read { .. } => {}
                        Step::Gate { out, class, .. } => {
                            self.writes[class][rows[out]] += writes_per_gate;
                        }
                        Step::Transfer { dst_row, dst_class, .. } => {
                            self.writes[dst_class][rows[dst_row]] += 1;
                        }
                    }
                }
            }
            Some(reads) => {
                for step in trace.steps() {
                    match *step {
                        Step::Write { row, class, .. } => {
                            self.writes[class][rows[row]] += 1;
                        }
                        Step::Read { row, class } => {
                            reads[class][rows[row]] += 1;
                        }
                        Step::Gate { kind, ins, out, class } => {
                            self.writes[class][rows[out]] += writes_per_gate;
                            reads[class][rows[ins[0]]] += 1;
                            if kind.arity() == 2 {
                                reads[class][rows[ins[1]]] += 1;
                            }
                        }
                        Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                            self.writes[dst_class][rows[dst_row]] += 1;
                            reads[src_class][rows[src_row]] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Flushes the tallies into `wear`, multiplied by `scale`, through the
    /// epoch's lane permutation, and clears them. Allocation-free: the
    /// physical lane set is built in the reused scratch buffer.
    fn scatter(&mut self, trace: &Trace, map: &CombinedMap, wear: &mut WearMap, scale: u64) {
        let perm = map.lane_permutation();
        for (class, lanes) in trace.classes().iter().enumerate() {
            lanes.permuted_into(perm, &mut self.phys_scratch);
            for (row, &count) in self.writes[class].iter().enumerate() {
                if count > 0 {
                    wear.add_writes(row, &self.phys_scratch, count * scale);
                }
            }
            for slot in &mut self.writes[class] {
                *slot = 0;
            }
            if let Some(reads) = &mut self.reads {
                for (row, &count) in reads[class].iter().enumerate() {
                    if count > 0 {
                        wear.add_reads(row, &self.phys_scratch, count * scale);
                    }
                }
                for slot in &mut reads[class] {
                    *slot = 0;
                }
            }
        }
    }
}

/// Replays the workload naively on a value-less wear map by executing the
/// trace cell by cell — the reference implementation the fast simulator is
/// validated against (and the ablation bench's slow arm).
#[must_use]
pub fn simulate_naive(workload: &Workload, balance: BalanceConfig, cfg: SimConfig) -> WearMap {
    let trace = workload.trace();
    let dims = trace.dims();
    let mut map = CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed);
    let mut array = nvpim_array::PimArray::new(dims).with_arch(cfg.arch);
    for iteration in 0..cfg.iterations {
        array.execute(trace, &mut map, &mut |_, _| false);
        if cfg.schedule.remaps_after(iteration) {
            map.advance_epoch();
        }
    }
    array.wear().clone()
}

/// One-iteration single-lane profile used by Fig. 5: per-cell write and read
/// counts within a lane for a single execution of the workload under a
/// static layout.
#[must_use]
pub fn single_iteration_profile(workload: &Workload, arch: ArchStyle) -> (Vec<u64>, Vec<u64>) {
    let cfg = SimConfig::paper()
        .with_iterations(1)
        .with_arch(arch)
        .with_read_tracking(true)
        .with_schedule(RemapSchedule::never());
    let result = EnduranceSimulator::new(cfg).run(workload, BalanceConfig::baseline());
    let rows = workload.trace().rows_used();
    let writes = (0..rows).map(|r| result.wear.writes_at(r, 0)).collect();
    let reads = (0..rows).map(|r| result.wear.reads_at(r, 0)).collect();
    (writes, reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::ArrayDims;
    use nvpim_workloads::convolution::Convolution;
    use nvpim_workloads::dot_product::DotProduct;
    use nvpim_workloads::parallel_mul::ParallelMul;

    fn small_mul() -> Workload {
        ParallelMul::new(ArrayDims::new(128, 8), 8).build()
    }

    #[test]
    fn total_writes_scale_with_iterations() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(10).with_arch(ArchStyle::SenseAmp);
        let result = EnduranceSimulator::new(cfg).run(&wl, BalanceConfig::baseline());
        let per_iter = wl.trace().counts(ArchStyle::SenseAmp).cell_writes;
        assert_eq!(result.wear.total_writes(), 10 * per_iter);
    }

    #[test]
    fn fast_path_matches_naive_static() {
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(7)
            .with_schedule(RemapSchedule::every(3))
            .with_arch(ArchStyle::PresetOutput);
        for config in ["StxSt", "RaxSt", "StxRa", "BsxBs", "RaxRa"] {
            let balance: BalanceConfig = config.parse().unwrap();
            let fast = EnduranceSimulator::new(cfg).run(&wl, balance);
            let naive = simulate_naive(&wl, balance, cfg);
            for row in 0..128 {
                for lane in 0..8 {
                    assert_eq!(
                        fast.wear.writes_at(row, lane),
                        naive.writes_at(row, lane),
                        "{config} mismatch at ({row},{lane})"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_naive_with_hw() {
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(5)
            .with_schedule(RemapSchedule::every(2))
            .with_arch(ArchStyle::SenseAmp);
        for config in ["StxSt+Hw", "RaxRa+Hw", "BsxSt+Hw"] {
            let balance: BalanceConfig = config.parse().unwrap();
            let fast = EnduranceSimulator::new(cfg).run(&wl, balance);
            let naive = simulate_naive(&wl, balance, cfg);
            for row in 0..128 {
                for lane in 0..8 {
                    assert_eq!(
                        fast.wear.writes_at(row, lane),
                        naive.writes_at(row, lane),
                        "{config} mismatch at ({row},{lane})"
                    );
                }
            }
        }
    }

    #[test]
    fn random_row_mapping_reduces_imbalance() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(500).with_schedule(RemapSchedule::every(10));
        let sim = EnduranceSimulator::new(cfg);
        let static_run = sim.run(&wl, "StxSt".parse().unwrap());
        let random_run = sim.run(&wl, "RaxSt".parse().unwrap());
        assert!(
            random_run.wear.max_writes() < static_run.wear.max_writes(),
            "Ra rows must flatten the hot workspace: {} vs {}",
            random_run.wear.max_writes(),
            static_run.wear.max_writes()
        );
    }

    #[test]
    fn column_mapping_helps_dot_product() {
        let wl = DotProduct::new(ArrayDims::new(256, 16), 16, 8).build();
        let cfg = SimConfig::default().with_iterations(400).with_schedule(RemapSchedule::every(10));
        let sim = EnduranceSimulator::new(cfg);
        let static_run = sim.run(&wl, "StxSt".parse().unwrap());
        let col_run = sim.run(&wl, "StxRa".parse().unwrap());
        assert!(col_run.wear.max_writes() < static_run.wear.max_writes());
    }

    #[test]
    fn hw_remapping_flattens_within_lane() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(200).with_schedule(RemapSchedule::never());
        let sim = EnduranceSimulator::new(cfg);
        let static_run = sim.run(&wl, "StxSt".parse().unwrap());
        let hw_run = sim.run(&wl, "StxSt+Hw".parse().unwrap());
        assert!(hw_run.wear.max_writes() < static_run.wear.max_writes());
    }

    #[test]
    fn conservation_of_total_writes_across_configs() {
        // Balancing moves writes around; it never changes their total.
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(50).with_schedule(RemapSchedule::every(5));
        let sim = EnduranceSimulator::new(cfg);
        let reference = sim.run(&wl, BalanceConfig::baseline()).wear.total_writes();
        for balance in BalanceConfig::all() {
            let total = sim.run(&wl, balance).wear.total_writes();
            assert_eq!(total, reference, "{balance}");
        }
    }

    #[test]
    fn read_tracking_matches_trace_counts() {
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(3)
            .with_read_tracking(true)
            .with_arch(ArchStyle::SenseAmp);
        let result = EnduranceSimulator::new(cfg).run(&wl, BalanceConfig::baseline());
        let per_iter = wl.trace().counts(ArchStyle::SenseAmp).cell_reads;
        assert_eq!(result.wear.total_reads(), 3 * per_iter);
    }

    #[test]
    fn fig5_profile_shows_workspace_imbalance() {
        let wl = ParallelMul::new(ArrayDims::new(1024, 4), 32).without_readout().build();
        let (writes, reads) = single_iteration_profile(&wl, ArchStyle::SenseAmp);
        // Input cells (rows 0..64) are written exactly once per result...
        assert!(writes[..64].iter().all(|&w| w == 1));
        // ...while workspace cells are used many more times (Fig. 5a).
        let max = *writes.iter().max().unwrap();
        assert!(max >= 8, "hot workspace cell: {max}");
        let workspace_mean = writes[128..].iter().sum::<u64>() as f64 / (writes.len() - 128) as f64;
        assert!(workspace_mean > 5.0, "workspace mean {workspace_mean}");
        // Reads concentrate on workspace too (Fig. 5b).
        assert!(reads.iter().sum::<u64>() > 0);
        // Total gate writes must equal the 32-bit multiply count.
        assert_eq!(writes.iter().sum::<u64>(), 64 + 9_824);
        // The ablation policy concentrates the same writes in far fewer
        // cells, producing a much hotter peak.
        let compact = ParallelMul::new(ArrayDims::new(1024, 4), 32)
            .without_readout()
            .with_alloc_policy(nvpim_workloads::AllocPolicy::LowestFirst)
            .build();
        let (compact_writes, _) = single_iteration_profile(&compact, ArchStyle::SenseAmp);
        assert!(*compact_writes.iter().max().unwrap() > 3 * max);
    }

    #[test]
    fn total_writes_accessor_matches_wear_sum() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(12).with_read_tracking(true);
        let result = EnduranceSimulator::new(cfg).run(&wl, "RaxRa".parse().unwrap());
        let mut sum_writes = 0u64;
        let mut sum_reads = 0u64;
        for row in 0..128 {
            for lane in 0..8 {
                sum_writes += result.wear.writes_at(row, lane);
                sum_reads += result.wear.reads_at(row, lane);
            }
        }
        assert_eq!(result.total_writes(), sum_writes);
        assert_eq!(result.total_reads(), sum_reads);
        assert!(sum_reads > 0);
    }

    #[test]
    fn run_with_null_sink_matches_run() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(9).with_schedule(RemapSchedule::every(4));
        let sim = EnduranceSimulator::new(cfg);
        let balance: BalanceConfig = "RaxRa+Hw".parse().unwrap();
        let plain = sim.run(&wl, balance);
        let with_sink = sim.run_with(&wl, balance, &nvpim_obs::NullSink);
        for row in 0..128 {
            for lane in 0..8 {
                assert_eq!(plain.wear.writes_at(row, lane), with_sink.wear.writes_at(row, lane));
            }
        }
    }

    #[test]
    fn instrumented_run_emits_lifecycle_and_counters() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(10).with_schedule(RemapSchedule::every(5));
        let observer = nvpim_obs::Observer::new(nvpim_obs::MemorySink::new());
        let result =
            EnduranceSimulator::new(cfg).run_with(&wl, "StxSt+Hw".parse().unwrap(), &observer);
        let snap = observer.snapshot();
        assert_eq!(snap.counter("sim.iterations"), Some(10));
        // The compiled Hw path walks the trace once per run: the one
        // kernel covers both epochs.
        assert_eq!(snap.counter("sim.replays"), Some(1));
        assert_eq!(snap.counter("balance.remap_events"), Some(2));
        // The counters cross-check the wear map exactly.
        assert_eq!(snap.counter("array.cell_writes"), Some(result.total_writes()));
        let redirects = snap.counter("balance.hw_redirects").unwrap();
        assert!(redirects > 0, "Hw run must redirect");
        // Phase timings were booked under the expected names.
        assert!(observer.spans().phase("sim.replay").is_some());
        assert!(observer.spans().phase("sim.scatter").is_some());
    }

    /// Partial lane classes of `wl` that some step writes.
    fn written_partial_classes(wl: &Workload) -> u64 {
        let trace = wl.trace();
        let lanes = trace.dims().lanes();
        let mut written = vec![false; trace.classes().len()];
        for step in trace.steps() {
            if let Some(class) = step.written_class() {
                written[class] = true;
            }
        }
        trace.classes().iter().zip(&written).filter(|&(c, &w)| w && c.count() < lanes).count()
            as u64
    }

    /// `sim.lane_renders` of a simulator run and of an analytic query.
    fn lane_renders(wl: &Workload, cfg: SimConfig, config: &str) -> (Option<u64>, Option<u64>) {
        let observer = nvpim_obs::Observer::collecting();
        let _ = EnduranceSimulator::new(cfg).run_with(wl, config.parse().unwrap(), &observer);
        let run = observer.snapshot().counter("sim.lane_renders");
        let observer = nvpim_obs::Observer::collecting();
        let mut engine = crate::analytic::AnalyticWearEngine::new(wl, config.parse().unwrap(), cfg);
        let _ = engine.wear_at_with(cfg.iterations, &observer);
        (run, observer.snapshot().counter("sim.lane_renders"))
    }

    #[test]
    fn lanes_render_once_per_lane_table_change() {
        // dot-256x16 has 9 partial lane classes, of which 4 are written.
        // The counter books one render per (class, lane set or row phase)
        // a class actually deposited under. St lanes never move, so each
        // written class renders once (at the final flush); Ra lanes move
        // every epoch, so each renders once per epoch (4 × 4 here; an epoch
        // whose draw kept a class's lane set would save that render).
        let wl = DotProduct::new(ArrayDims::new(256, 16), 16, 8).build();
        let lanes = wl.trace().dims().lanes();
        let partial = wl.trace().classes().iter().filter(|c| c.count() < lanes).count();
        assert_eq!(partial, 9);
        assert_eq!(written_partial_classes(&wl), 4);
        let cfg = SimConfig::default().with_iterations(20).with_schedule(RemapSchedule::every(5));
        assert_eq!(lane_renders(&wl, cfg, "RaxSt+Hw"), (Some(4), Some(4)));
        assert_eq!(lane_renders(&wl, cfg, "RaxRa+Hw"), (Some(16), Some(16)), "once per epoch");
        // Only the staged Hw path books renders in the simulator.
        assert_eq!(lane_renders(&wl, cfg, "RaxSt"), (None, Some(4)));
        assert_eq!(lane_renders(&wl, cfg, "BsxRa+Hw").1, Some(16));
        // St rows stage lane counts under one row phase: one render per
        // written class, however often the Ra lanes move.
        assert_eq!(lane_renders(&wl, cfg, "StxRa").1, Some(4));
    }

    #[test]
    fn lanes_render_once_per_distinct_lane_set() {
        // conv4x3w8's partial classes are the lanes ≡ k (mod 4), and only
        // the first is written. An 8-lane byte shift maps each onto itself,
        // so under Bs lanes its one lane set renders once per run, however
        // many epochs permute it.
        let wl = Convolution::new(ArrayDims::new(640, 16), 4, 3, 8).build();
        assert_eq!(written_partial_classes(&wl), 1);
        let cfg = SimConfig::default().with_iterations(20).with_schedule(RemapSchedule::every(5));
        assert_eq!(lane_renders(&wl, cfg, "RaxBs+Hw"), (Some(1), Some(1)));
        assert_eq!(lane_renders(&wl, cfg, "RaxBs").1, Some(1));
    }

    #[test]
    fn each_query_counts_the_super_cycles_it_folded() {
        // Remapping every 5 iterations, `StxSt(+Hw)`'s super-cycle is one
        // epoch: 23 iterations fold four and walk a 3-iteration tail, and a
        // later query at 3 on the same engine only walks. The workload's one
        // class spans every lane, so the walker keeps `St` lanes and
        // `StxBs`/`StxRa` fold alike; `Ra` rows have no super-cycle.
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(23).with_schedule(RemapSchedule::every(5));
        for (config, want) in [
            ("StxSt", [4, 0]),
            ("StxSt+Hw", [4, 0]),
            ("StxBs+Hw", [4, 0]),
            ("StxRa", [4, 0]),
            ("RaxRa", [0, 0]),
        ] {
            let mut engine =
                crate::analytic::AnalyticWearEngine::new(&wl, config.parse().unwrap(), cfg);
            for (n, want) in [23, 3].into_iter().zip(want) {
                let observer = nvpim_obs::Observer::collecting();
                let _ = engine.wear_at_with(n, &observer);
                let folded = observer.snapshot().counter("sim.super_cycles_folded");
                assert_eq!(folded, Some(want), "{config} at {n}");
            }
        }
    }

    #[test]
    fn instrumented_wear_is_identical_to_uninstrumented() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(7).with_schedule(RemapSchedule::every(3));
        let sim = EnduranceSimulator::new(cfg);
        for config in ["RaxRa", "StxSt+Hw"] {
            let balance: BalanceConfig = config.parse().unwrap();
            let plain = sim.run(&wl, balance);
            let observer = nvpim_obs::Observer::collecting();
            let observed = sim.run_with(&wl, balance, &observer);
            for row in 0..128 {
                for lane in 0..8 {
                    assert_eq!(
                        plain.wear.writes_at(row, lane),
                        observed.wear.writes_at(row, lane),
                        "{config} instrumentation must not perturb results"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_all_configs_matches_serial() {
        let wl = small_mul();
        let cfg = SimConfig::default().with_iterations(6).with_schedule(RemapSchedule::every(3));
        let sim = EnduranceSimulator::new(cfg);
        let serial: Vec<SimResult> =
            BalanceConfig::all().into_iter().map(|b| sim.run(&wl, b)).collect();
        let parallel = sim.run_all_configs_parallel(&wl, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config, p.config);
            assert_eq!(s.wear.max_writes(), p.wear.max_writes());
            assert_eq!(s.wear.total_writes(), p.wear.total_writes());
        }
    }

    #[test]
    fn epoch_series_is_bit_identical_across_replay_paths() {
        // The trajectory samples are pure functions of the wear map at each
        // epoch boundary, so the production paths (compiled kernel, flat
        // row table) and the step-replay oracle must produce the exact same
        // Vec<EpochSample> — including the float fields, which derive from
        // integer write counts.
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(20)
            .with_schedule(RemapSchedule::every(4))
            .with_epoch_series(true);
        let sim = EnduranceSimulator::new(cfg);
        for config in ["StxSt+Hw", "RaxRa+Hw", "BsxSt+Hw", "RaxRa"] {
            let balance: BalanceConfig = config.parse().unwrap();
            let production = sim.run(&wl, balance);
            let reference = sim.run_reference(&wl, balance);
            assert_eq!(production.series.len(), 5, "{config}: 20 iters / period 4");
            assert_eq!(production.series, reference.series, "{config} trajectories diverge");
        }
    }

    #[test]
    fn epoch_series_tracks_the_trajectory() {
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(12)
            .with_schedule(RemapSchedule::every(3))
            .with_epoch_series(true);
        let result = EnduranceSimulator::new(cfg).run(&wl, BalanceConfig::baseline());
        assert_eq!(result.series.len(), 4);
        let last = result.series.last().unwrap();
        assert_eq!(last.iteration, 12);
        assert_eq!(last.max_writes, result.wear.max_writes());
        assert_eq!(last.p99_writes, result.wear.write_quantile(0.99));
        assert_eq!(last.remaps, 4);
        // Wear accumulates: max writes are non-decreasing over epochs.
        for pair in result.series.windows(2) {
            assert!(pair[1].max_writes >= pair[0].max_writes);
            assert!(pair[1].iteration > pair[0].iteration);
        }
        // Off by default: no samples, no cost.
        let plain = EnduranceSimulator::new(cfg.with_epoch_series(false))
            .run(&wl, BalanceConfig::baseline());
        assert!(plain.series.is_empty());
    }

    #[test]
    fn epoch_series_events_reach_the_observer() {
        let wl = small_mul();
        let cfg = SimConfig::default()
            .with_iterations(10)
            .with_schedule(RemapSchedule::every(5))
            .with_epoch_series(true);
        let observer = nvpim_obs::Observer::collecting();
        let result =
            EnduranceSimulator::new(cfg).run_with(&wl, BalanceConfig::baseline(), &observer);
        let snap = observer.series().snapshot();
        let max = snap.series.get("wear.max_writes").expect("series routed");
        assert_eq!(max.points.len(), 2);
        assert_eq!(max.points[1].index, 10);
        assert_eq!(max.points[1].value, result.wear.max_writes() as f64);
        assert!(snap.series.contains_key("wear.gini"));
        assert!(snap.series.contains_key("wear.remaps"));
    }

    #[test]
    fn spare_row_is_always_available_for_hw() {
        // The layout reserves the lane's last row, so every workload runs
        // under every configuration — including +Hw — on its target array.
        for rows in [256usize, 300, 1024] {
            let wl = ParallelMul::new(ArrayDims::new(rows, 4), 16).without_readout().build();
            assert!(wl.trace().rows_used() < rows, "row {rows}");
            let cfg = SimConfig::default().with_iterations(2);
            let result = EnduranceSimulator::new(cfg).run(&wl, "RaxRa+Hw".parse().unwrap());
            assert!(result.wear.total_writes() > 0);
        }
    }
}
