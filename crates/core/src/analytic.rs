//! Replay-free analytic wear evaluation: per-cell wear as a function of the
//! iteration count, answered by one epoch walker.
//!
//! The simulator answers "what does the wear map look like after N
//! iterations?" by replaying the trace's epochs. Lifetime estimation and
//! Fig. 17-style sweeps ask that question at many values of N, so this
//! module factors the *schedule* out the same way [`crate::kernel`]
//! factored the *epoch*.
//!
//! # One walker
//!
//! Every configuration runs on one epoch walker. It enumerates epoch
//! states in schedule order with the exact seeded RNG streams, but each
//! epoch only books O(rows) per lane class into a row-space stage — the
//! trace's logical panels through the epoch's row table (software), or the
//! trace's one kernel relabeled through the row table and folded (`+Hw`,
//! see [`crate::kernel`]) — never a trace walk. Lanes render into the cell
//! map once per answer for classes spanning every lane, and once per
//! distinct lane set or row phase for partial classes; under `Ra` lanes,
//! whose sets never repeat, the partial classes render once per batch of
//! up to `kernel::LANE_BATCH` epochs, one add per lane of each lane
//! signature (`kernel::RowAccumulator`; the walker picks the staging from
//! the configuration, `kernel::LaneStage::of`). With no partial class the
//! walker keeps `St` lanes, as lanes cannot affect wear.
//!
//! An answer is the walker's own cell plane with its stage rendered in
//! place, not a copy, so the walker is spent and the next query walks a
//! fresh one from the seed. Every production caller asks one question per
//! engine; halving the fresh 8 MB planes per paper-dims answer is worth
//! more than continuing a walk. The plane exists only once something
//! renders into it: construction builds it when partial classes will
//! render, on a retired plane from `WearMap`'s free list (zeroed row by
//! row, its pages already mapped) or else zeroed by writing it, so the
//! query does not pay its page faults twice; otherwise the answer takes it
//! from the free list or allocates it when it takes it.
//!
//! A lifetime-only query ([`AnalyticWearEngine::max_writes_at`], Eq. 4's
//! input) shares the whole walk with [`AnalyticWearEngine::result_at`] and
//! differs only in its last step. When no partial class was staged or
//! rendered, as on mul32, the answer is one row vector, every cell of a
//! row holding that row's count, so its hottest cell is read off the stage
//! and no plane is ever built. Otherwise it renders into the walker's
//! plane as an answer does.
//!
//! # Super-cycle fold
//!
//! A configuration is *periodic* ([`AnalyticPath::ClosedForm`]) when every
//! software row and lane table is a pure function of the epoch index
//! ([`nvpim_balance::Strategy::epoch_period`]): `{St,Bs}` on both axes, or
//! any configuration under a `never()` schedule (one endless epoch, which
//! the walker books in one step). Under a schedule of period `p` its tables
//! repeat every `L = lcm(L_row, L_col)` epochs, where `L_col` is the period
//! of the lanes the walker keeps: `St` (1) when every class spans every
//! lane, so mul32's `StxBs` folds one-epoch super-cycles like `StxSt`, and
//! so does `StxRa`, whose random lane tables nothing reads. Each epoch
//! advances the hardware arrangement `D` by a permutation that depends only
//! on the epoch's tables and span (`D_{j+1} = D_j ∘ G_j`, `D_0` the
//! identity), so `D_{L+j} = F ∘ D_j` with `F = D_L` (the identity without
//! `Hw`): epoch `L + j` deposits exactly what epoch `j` did, each row `r`
//! moved to `F[r]`. With `SC` the walker's stage after one super-cycle of
//! `L·p` iterations, the answer at `n = k·L·p + m` (`m < L·p`) is
//!
//! ```text
//! wear(n) = Σ_{i<k} Fⁱ(SC) + Fᵏ(wear(m))
//! ```
//!
//! computed in row space, on the stage rather than on cells. A stage under
//! periodic lanes never renders before it is read (`kernel::LaneStage::of`
//! keys it by lane set, one key per lane phase), so `SC` and the walker's
//! stage at `m` are all of their wear: the full-lane row vectors plus the
//! partial (class, key) slots. Each of `SC`'s row vectors folds through
//! [`PermFolder::fold_into`] over `F`'s cycles (`k ×` the vector without
//! `Hw`; a row phase scales its lane counts instead of its once-booked
//! row vector). The remainder's rows move through `Fᵏ`, the two stages
//! merge key by key, and the merged stage renders once into the walker's
//! plane, writing only the rows it counts: O(rows × staged vectors) plus
//! one render for any `k`. Only whole super-cycles
//! compose to a fixed permutation: under `+Hw` the software row table
//! covers `rows − 1` rows, so a byte shift is not a power of one epoch's
//! rotation. The engine walks the super-cycle once (at construction when
//! the configured count spans one) on a walker with no cell plane, keeps
//! `SC` and `F`, and stores no cell plane for them.
//!
//! [`AnalyticPath::Lazy`] configurations (`Ra` on an axis under a remap
//! schedule) have no period and walk every epoch, unless the only `Ra`
//! axis is lanes the walker does not keep.
//!
//! # Deadlines
//!
//! [`AnalyticWearEngine::new_within`] and
//! [`AnalyticWearEngine::result_at_within`] take a wall-clock deadline that
//! every walk reads at each epoch boundary: the construction-time
//! super-cycle walk and the query's walk alike. Once it has passed, the
//! walk stops there, drops its walker and plane, and returns
//! [`Expired`]; nothing is answered. [`AnalyticWearEngine::new`] and
//! [`AnalyticWearEngine::result_at_with`] are the no-deadline case, which
//! reads no clock.
//!
//! Every answer is bit-identical to the simulator — the bit-identity suite
//! (`tests/analytic.rs`) pins `analytic == run == run_reference` across
//! all 18 configurations, and each query re-asserts conservation against
//! the trace's static counts. Answers carry no epoch series: per-epoch
//! trajectories come from the simulator ([`crate::sim`]).
//!
//! # Artifact reuse
//!
//! Engine construction routes its expensive intermediates — the logical
//! panels of one trace walk and the trace's compiled `+Hw` kernel — through
//! [`crate::artifacts`]: a content-addressed store shared across matrix
//! cells, sweep points, and serve requests. The trace's static counts (the
//! conservation audit's reference) and its content fingerprint (the store
//! key) are memoized on the trace itself ([`Trace::counts`],
//! [`Trace::fingerprint`]), so building an engine on a trace already seen,
//! against a store that holds its intermediates, walks none of its steps.
//! Sibling configurations that share a trace (all 18 do) reuse each
//! other's work; [`AnalyticWearEngine::new_with_store`] swaps in a private
//! store, and [`AnalyticWearEngine::artifact_use`] reports how many
//! lookups hit. Because every memoized builder is deterministic in its
//! key, reuse is bit-identity-safe (see the `artifacts` module docs for
//! the keying argument).
//!
//! # Examples
//!
//! ```
//! use nvpim_array::ArrayDims;
//! use nvpim_balance::BalanceConfig;
//! use nvpim_core::analytic::{AnalyticPath, AnalyticWearEngine};
//! use nvpim_core::SimConfig;
//! use nvpim_workloads::parallel_mul::ParallelMul;
//!
//! let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
//! let cfg = SimConfig::default();
//! let mut engine = AnalyticWearEngine::new(&wl, "BsxBs".parse().unwrap(), cfg);
//! assert_eq!(engine.path(), AnalyticPath::ClosedForm);
//! let wear = engine.wear_at(100_000);
//! assert!(wear.max_writes() > 0);
//! ```

use std::sync::Arc;
use std::time::Instant;

use nvpim_array::trace::TraceCounts;
use nvpim_array::{ArchStyle, ArrayDims, PermFolder, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{BalanceConfig, CombinedMap, HwRemapper, RemapSchedule, Strategy};
use nvpim_obs::{Event, EventSink, NullSink};
use nvpim_workloads::Workload;

use crate::artifacts::{self, ArtifactKind, ArtifactStore, ArtifactUse, Fingerprint, StoreCtx};
use crate::kernel;
use crate::parallel::fan_out;
use crate::sim::{check_deadline, unbounded, Expired, SimConfig, SimResult};

/// Which rung of the reducibility ladder a configuration landed on — see
/// the [module docs](self) for the criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyticPath {
    /// Periodic tables: answers past one super-cycle fold whole
    /// super-cycles of the walker's own answer.
    ClosedForm,
    /// `Ra` draws under a remap schedule: every epoch is walked (exact RNG
    /// streams, no trace walks); monotone queries advance incrementally.
    Lazy,
    /// No configuration lands here: every one is closed form or lazy. The
    /// variant is kept only because the `e2ebench` package, which matches
    /// on every rung by name, must keep building unchanged.
    Fallback,
}

impl AnalyticPath {
    /// Stable label for manifests and bench IDs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AnalyticPath::ClosedForm => "closed_form",
            AnalyticPath::Lazy => "lazy",
            AnalyticPath::Fallback => "fallback",
        }
    }
}

impl std::fmt::Display for AnalyticPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Predicts which [`AnalyticPath`] [`AnalyticWearEngine::new`] will report
/// for a configuration, without building the engine — used by `repro` and
/// `serve` to label manifests.
///
/// The label depends on the strategies and the schedule alone. `_dims` and
/// `_track_reads` are unused; they are kept only because the `e2ebench`
/// package, which calls `classify` with four arguments, must keep building
/// unchanged.
#[must_use]
pub fn classify(
    balance: BalanceConfig,
    schedule: RemapSchedule,
    _dims: ArrayDims,
    _track_reads: bool,
) -> AnalyticPath {
    // The period's value depends on the axis length; whether it exists
    // does not.
    let periodic = balance.row.epoch_period(1).is_some() && balance.col.epoch_period(1).is_some();
    if periodic || schedule.period().is_none() {
        AnalyticPath::ClosedForm
    } else {
        AnalyticPath::Lazy
    }
}

/// The configuration the walker runs for `balance` on `trace`: with every
/// class spanning every lane, lanes cannot affect wear, so it keeps `St`
/// lanes instead of drawing tables nothing reads. Its row tables are
/// unchanged, because `CombinedMap::new` seeds the row mapper
/// independently of the lane mapper.
fn walked_balance(trace: &Trace, balance: BalanceConfig) -> BalanceConfig {
    let lanes = trace.dims().lanes();
    if trace.classes().iter().all(|c| c.count() == lanes) {
        BalanceConfig::new(balance.row, Strategy::Static, balance.hw)
    } else {
        balance
    }
}

/// Iterations in one super-cycle (`L·p`) of the walked configuration
/// ([`walked_balance`]) under a remap schedule; `None` for `Ra` axes,
/// `never()`, or a super-cycle longer than `u64` counts (which no query
/// can span).
fn super_cycle_iterations(
    walked: BalanceConfig,
    schedule: RemapSchedule,
    dims: ArrayDims,
) -> Option<u64> {
    // Under Hw the software row table covers every row but the spare.
    let row_space = dims.rows() - usize::from(walked.hw);
    let epochs = lcm(walked.row.epoch_period(row_space)?, walked.col.epoch_period(dims.lanes())?);
    epochs.checked_mul(schedule.period()?)
}

/// Per-class, per-logical-row write (and read) panels of one trace walk —
/// the table-independent core of the non-`Hw` replay, and the first artifact
/// kind the store shares across configurations (all 18 configs of a matrix
/// share one trace, hence one panel set).
#[derive(Debug)]
struct LogicalPanels {
    writes: Vec<Vec<u64>>,
    reads: Option<Vec<Vec<u64>>>,
}

impl LogicalPanels {
    fn approx_bytes(&self) -> usize {
        let entries = self.writes.iter().map(Vec::len).sum::<usize>()
            + self.reads.as_ref().map_or(0, |r| r.iter().map(Vec::len).sum::<usize>());
        entries * std::mem::size_of::<u64>()
    }
}

/// Walks the trace once into [`LogicalPanels`]: an epoch with row table `T`
/// and lane permutation `P` deposits `V[class][r]` at `(T[r], P[lane])` for
/// each lane of the class. Mirrors `Accumulator::replay_cached` with the
/// identity table.
fn logical_panels(trace: &Trace, arch: ArchStyle, track_reads: bool) -> LogicalPanels {
    let rows = trace.dims().rows();
    let n_classes = trace.classes().len();
    let writes_per_gate = arch.writes_per_gate();
    let mut writes = vec![vec![0u64; rows]; n_classes];
    let mut reads = track_reads.then(|| vec![vec![0u64; rows]; n_classes]);
    for step in trace.steps() {
        match *step {
            Step::Write { row, class, .. } => writes[class][row] += 1,
            Step::Read { row, class } => {
                if let Some(reads) = &mut reads {
                    reads[class][row] += 1;
                }
            }
            Step::Gate { kind, ins, out, class } => {
                writes[class][out] += writes_per_gate;
                if let Some(reads) = &mut reads {
                    reads[class][ins[0]] += 1;
                    if kind.arity() == 2 {
                        reads[class][ins[1]] += 1;
                    }
                }
            }
            Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                writes[dst_class][dst_row] += 1;
                if let Some(reads) = &mut reads {
                    reads[src_class][src_row] += 1;
                }
            }
        }
    }
    LogicalPanels { writes, reads }
}

/// Fetches (or builds) the trace's logical panels through the store.
fn fetch_panels(
    trace: &Trace,
    cfg: SimConfig,
    fp: Fingerprint,
    ctx: &mut StoreCtx<'_>,
) -> Arc<LogicalPanels> {
    let key = artifacts::panels_key(fp, cfg.arch, cfg.track_reads);
    ctx.get_or_build(ArtifactKind::Panels, key, || {
        let panels = logical_panels(trace, cfg.arch, cfg.track_reads);
        let bytes = panels.approx_bytes();
        (panels, bytes)
    })
}

/// How an epoch books its deposits into the walker's stage.
#[derive(Debug)]
enum Booking {
    /// The trace's logical panels, booked through the epoch's row table.
    Sw(Arc<LogicalPanels>),
    /// The trace's one kernel, relabeled through the epoch's row table and
    /// folded; the arrangement advances exactly like the simulator's
    /// compiled path.
    Hw(Arc<WearKernel>),
}

/// The epoch walker: the exact seeded maps, the wear rendered so far, its
/// row-space stage, and the iterations done.
#[derive(Debug)]
struct Walker {
    map: CombinedMap,
    /// The cell plane partial classes render into: built with an answer
    /// walker whose partial classes will render, else `None` until an
    /// answer takes it.
    wear: Option<WearMap>,
    rows: kernel::RowAccumulator,
    /// The row period, when partial classes stage by row phase.
    row_period: Option<u64>,
    done: u64,
}

/// A lifetime-only answer: the hottest cell (Eq. 4), the write and read
/// totals the conservation check compares, and the (class, key) renders.
#[derive(Debug, Clone, Copy)]
struct Summary {
    max_writes: u64,
    writes: u64,
    reads: u64,
    renders: u64,
}

impl Summary {
    /// The summary of a rendered answer, whose maximum `finish` carries.
    fn of(wear: &WearMap, renders: u64) -> Self {
        let (writes, reads) = (wear.total_writes(), wear.total_reads());
        Summary { max_writes: wear.max_writes(), writes, reads, renders }
    }
}

impl Walker {
    /// A walker at iteration 0. An `answer` walker whose partial classes
    /// will render builds its plane here, paying its page faults
    /// (`zeroed_map`) before the query; any other walker gets its plane
    /// only when an answer takes it. A super-cycle walk is all stage and
    /// never renders (`fold_cycles` asserts it), so it never gets one.
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig, answer: bool) -> Self {
        let dims = trace.dims();
        let balance = walked_balance(trace, balance);
        let stage = kernel::LaneStage::of(balance, dims, &cfg);
        let rows = kernel::RowAccumulator::new(trace, cfg.track_reads, stage);
        Walker {
            map: CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed),
            wear: if answer { rows.zeroed_map(dims) } else { None },
            rows,
            row_period: match stage {
                kernel::LaneStage::RowPhases { period } => Some(period),
                kernel::LaneStage::LaneSets { .. } | kernel::LaneStage::EpochBatches => None,
            },
            done: 0,
        }
    }

    /// Books each epoch span from the walker's position up to `n`
    /// iterations, in schedule order, stopping at the first epoch boundary
    /// that finds `deadline` passed.
    fn walk_to(
        &mut self,
        booking: &Booking,
        schedule: RemapSchedule,
        n: u64,
        deadline: Option<Instant>,
    ) -> Result<(), Expired> {
        let period = schedule.period();
        while self.done < n {
            check_deadline(deadline, self.done)?;
            let span = period.map_or(n, |p| p - self.done % p).min(n - self.done);
            self.book_epoch(booking, span);
            self.done += span;
            if period.is_some_and(|p| self.done % p == 0) {
                self.map.advance_epoch();
            }
        }
        Ok(())
    }

    fn book_epoch(&mut self, booking: &Booking, span: u64) {
        match booking {
            Booking::Sw(panels) => {
                let lanes = self.map.lane_permutation();
                match self.row_period {
                    Some(period) => self.rows.set_row_phase(lanes, self.map.epoch() % period, span),
                    None => self.rows.set_lanes(lanes, self.wear.as_mut()),
                }
                let table = self.map.row_table();
                for (class, writes) in panels.writes.iter().enumerate() {
                    self.rows.book(class, table, writes, span, false);
                }
                for (class, reads) in panels.reads.iter().flatten().enumerate() {
                    self.rows.book(class, table, reads, span, true);
                }
            }
            Booking::Hw(kernel) => {
                self.rows.apply_kernel_epoch(kernel, &mut self.map, span, self.wear.as_mut());
            }
        }
    }

    /// The wear walked so far as an owned map — the walker's own plane
    /// (allocated now if nothing rendered into it) with its stage rendered
    /// in place, so an answer costs no copy of the cells — and the walk's
    /// partial-class renders.
    fn into_answer(self, dims: ArrayDims) -> (WearMap, u64) {
        let mut wear = self.wear.unwrap_or_else(|| WearMap::new(dims));
        let renders = self.rows.finish(&mut wear);
        (wear, renders)
    }

    /// The answer's [`Summary`]: straight from the stage when its full-lane
    /// rows hold all of the wear (each cell of row `r` holds row `r`'s
    /// count, over `lanes` lanes), else read off [`Walker::into_answer`].
    fn into_summary(self, dims: ArrayDims) -> Summary {
        if let Some((writes, reads)) = self.rows.full_lane_rows() {
            let lanes = dims.lanes() as u64;
            return Summary {
                max_writes: writes.iter().copied().max().unwrap_or(0),
                writes: writes.iter().sum::<u64>() * lanes,
                reads: reads.map_or(0, |reads| reads.iter().sum::<u64>() * lanes),
                renders: 0,
            };
        }
        let (wear, renders) = self.into_answer(dims);
        Summary::of(&wear, renders)
    }
}

/// One walked super-cycle of a periodic configuration (module docs).
#[derive(Debug)]
struct SuperCycle {
    /// The walker's stage after it (`SC`), never rendered.
    stage: kernel::RowAccumulator,
    /// The hardware arrangement the walker then holds (`F`; the identity
    /// without `Hw`).
    f: PermFolder,
}

/// Replay-free per-cell wear as a function of the iteration count, for one
/// (workload, configuration) pair — bit-identical to running the simulator
/// ([`crate::sim`]) for the same number of iterations.
///
/// Construction reads the trace's memoized counts and fingerprint, fetches
/// its logical panels or `+Hw` kernel (one trace walk on a store miss,
/// none on a trace already seen: the facts live on the trace and the
/// intermediates in the store) and, for a periodic configuration whose
/// configured count spans a super-cycle, walks that super-cycle's stage
/// once; an answer at that count then folds it in row space into the walk
/// of its remainder (none at a multiple of the super-cycle). Every answer,
/// a lifetime-only one ([`AnalyticWearEngine::max_writes_at`]) included,
/// takes the walker, so a later query walks again from the seed, at most
/// one super-cycle's remainder for a folded count. See the
/// [module docs](self).
#[derive(Debug)]
pub struct AnalyticWearEngine<'w> {
    workload: &'w Workload,
    balance: BalanceConfig,
    cfg: SimConfig,
    counts: TraceCounts,
    path: AnalyticPath,
    booking: Booking,
    /// A fresh walker built with the engine, until an answer takes it.
    walker: Option<Walker>,
    /// Iterations per super-cycle, for a periodic config under a remap
    /// schedule.
    cycle_iterations: Option<u64>,
    /// That super-cycle, walked the first time an answer spans it.
    cycle: Option<SuperCycle>,
    usage: ArtifactUse,
}

impl<'w> AnalyticWearEngine<'w> {
    /// Builds the engine for `balance` under `cfg.schedule`. Intermediates
    /// are shared through [`artifacts::global`].
    ///
    /// # Panics
    ///
    /// Panics if the workload uses more rows than the configuration makes
    /// available (same contract as the simulator).
    #[must_use]
    pub fn new(workload: &'w Workload, balance: BalanceConfig, cfg: SimConfig) -> Self {
        unbounded(Self::new_within(workload, balance, cfg, None))
    }

    /// [`AnalyticWearEngine::new`] under a wall-clock `deadline`, read at
    /// each epoch boundary of the construction-time super-cycle walk (see
    /// the [module docs](self)). `None` reads no clock.
    ///
    /// # Errors
    ///
    /// [`Expired`] when the deadline passes before the super-cycle walk
    /// ends.
    ///
    /// # Panics
    ///
    /// As [`AnalyticWearEngine::new`].
    pub fn new_within(
        workload: &'w Workload,
        balance: BalanceConfig,
        cfg: SimConfig,
        deadline: Option<Instant>,
    ) -> Result<Self, Expired> {
        Self::build(workload, balance, cfg, artifacts::global(), deadline)
    }

    /// [`AnalyticWearEngine::new`] against an explicit store (the identity
    /// suite and `nvpim-check` use private stores to exercise hit, miss,
    /// and eviction regimes in isolation).
    ///
    /// The trace's counts and fingerprint come from its memo, so a build
    /// walks the trace at most once, to build panels or a kernel on a store
    /// miss, and not at all on a trace already seen whose intermediates the
    /// store holds.
    ///
    /// # Panics
    ///
    /// As [`AnalyticWearEngine::new`].
    #[must_use]
    pub fn new_with_store(
        workload: &'w Workload,
        balance: BalanceConfig,
        cfg: SimConfig,
        store: &'w ArtifactStore,
    ) -> Self {
        unbounded(Self::build(workload, balance, cfg, store, None))
    }

    fn build(
        workload: &'w Workload,
        balance: BalanceConfig,
        cfg: SimConfig,
        store: &'w ArtifactStore,
        deadline: Option<Instant>,
    ) -> Result<Self, Expired> {
        let trace = workload.trace();
        let dims = trace.dims();
        let logical_rows = dims.rows() - usize::from(balance.hw);
        assert!(
            trace.rows_used() <= logical_rows,
            "workload uses {} rows but only {logical_rows} are available under {balance} \
             (Hw reserves one spare row)",
            trace.rows_used(),
        );
        let counts = trace.counts(cfg.arch);
        let fp = artifacts::trace_fingerprint(trace);
        let mut ctx = StoreCtx::new(store);
        let booking = if balance.hw {
            Booking::Hw(kernel::fetch(trace, cfg.arch, cfg.track_reads, fp, &mut ctx))
        } else {
            Booking::Sw(fetch_panels(trace, cfg, fp, &mut ctx))
        };
        let usage = ctx.tally();
        let walker = Walker::new(trace, balance, cfg, true);
        let mut engine = AnalyticWearEngine {
            workload,
            balance,
            cfg,
            counts,
            path: classify(balance, cfg.schedule, dims, cfg.track_reads),
            booking,
            walker: Some(walker),
            cycle_iterations: super_cycle_iterations(
                walked_balance(trace, balance),
                cfg.schedule,
                dims,
            ),
            cycle: None,
            usage,
        };
        if let Some(len) = engine.cycle_iterations.filter(|&len| cfg.iterations >= len) {
            engine.walk_super_cycle(len, deadline)?;
        }
        Ok(engine)
    }

    /// How many artifact-store lookups this engine's construction answered
    /// from cache versus built (queries issue none).
    #[must_use]
    pub fn artifact_use(&self) -> ArtifactUse {
        self.usage
    }

    /// The reducibility rung this configuration landed on.
    #[must_use]
    pub fn path(&self) -> AnalyticPath {
        self.path
    }

    /// The configuration the engine answers for.
    #[must_use]
    pub fn balance(&self) -> BalanceConfig {
        self.balance
    }

    /// The engine's simulation parameters (`iterations` is ignored —
    /// queries carry their own count).
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        self.cfg
    }

    /// Sequential steps of one workload iteration (Eq. 4's latency term).
    #[must_use]
    pub fn steps_per_iteration(&self) -> u64 {
        self.counts.sequential_steps
    }

    /// The wear map after exactly `iterations` iterations, instrumented
    /// through the process-wide observer if one is installed.
    #[must_use]
    pub fn wear_at(&mut self, iterations: u64) -> WearMap {
        self.result_at(iterations).wear
    }

    /// [`AnalyticWearEngine::wear_at`] with an explicit event sink.
    #[must_use]
    pub fn wear_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> WearMap {
        self.result_at_with(iterations, sink).wear
    }

    /// A full [`SimResult`] at `iterations` — bit-identical wear to a
    /// simulator run, with an empty epoch series.
    #[must_use]
    pub fn result_at(&mut self, iterations: u64) -> SimResult {
        match nvpim_obs::observer::current() {
            Some(observer) => self.result_at_with(iterations, &*observer),
            None => self.result_at_with(iterations, &NullSink),
        }
    }

    /// [`AnalyticWearEngine::result_at`] with an explicit event sink. Each
    /// call bumps the `sim.analytic_queries` counter and books the
    /// iteration and cell-traffic counters the simulator would have, so
    /// dashboards stay comparable, plus the answer's (class, key) renders
    /// (`sim.lane_renders`) and the whole super-cycles it folded
    /// (`sim.super_cycles_folded`, 0 when walked).
    #[must_use]
    pub fn result_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> SimResult {
        unbounded(self.result_at_within(iterations, sink, None))
    }

    /// [`AnalyticWearEngine::result_at_with`] under a wall-clock
    /// `deadline`, read at each epoch boundary of the walk (and of the
    /// super-cycle walk, when this query is the first to span one). Once
    /// it has passed, the walk stops there and its walker and plane are
    /// dropped; a later query walks again from the seed. `None` reads no
    /// clock.
    ///
    /// # Errors
    ///
    /// [`Expired`] when the deadline passes before the walk ends; nothing
    /// is recorded into `sink`.
    pub fn result_at_within<S: EventSink>(
        &mut self,
        iterations: u64,
        sink: &S,
        deadline: Option<Instant>,
    ) -> Result<SimResult, Expired> {
        let (walker, folded) = self.walk(iterations, deadline)?;
        let (wear, renders) = walker.into_answer(self.workload.trace().dims());
        self.audit(iterations, Summary::of(&wear, renders), folded, sink);
        Ok(SimResult {
            wear,
            config: self.balance,
            iterations,
            steps_per_iteration: self.counts.sequential_steps,
            arch: self.cfg.arch,
            series: Vec::new(),
        })
    }

    /// The hottest cell's writes after exactly `iterations` iterations —
    /// `result_at(iterations).wear.max_writes()`, the input of Eq. 4
    /// ([`crate::LifetimeModel::lifetime_of`]), without a wear map when the
    /// answer is one row vector: with no partial class staged or rendered,
    /// every cell of a row holds that row's count, so the maximum is the
    /// stage's. Otherwise the stage renders into the walker's plane, as
    /// for [`AnalyticWearEngine::result_at`].
    #[must_use]
    pub fn max_writes_at(&mut self, iterations: u64) -> u64 {
        match nvpim_obs::observer::current() {
            Some(observer) => self.max_writes_at_with(iterations, &*observer),
            None => self.max_writes_at_with(iterations, &NullSink),
        }
    }

    /// [`AnalyticWearEngine::max_writes_at`] with an explicit event sink; it
    /// checks conservation and records the counters
    /// [`AnalyticWearEngine::result_at_with`] does.
    #[must_use]
    pub fn max_writes_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> u64 {
        let (walker, folded) = unbounded(self.walk(iterations, None));
        let summary = walker.into_summary(self.workload.trace().dims());
        self.audit(iterations, summary, folded, sink);
        summary.max_writes
    }

    /// Checks an answer's totals against the trace's static counts and
    /// records its counters.
    fn audit<S: EventSink>(&self, iterations: u64, summary: Summary, folded: u64, sink: &S) {
        // Same conservation cross-check as the simulator: the walker's
        // bookings (and the super-cycle fold) and the trace's static counts
        // tally the same traffic independently.
        assert_eq!(
            summary.writes,
            iterations * self.counts.cell_writes,
            "analytic wear disagrees with trace write counts under {}",
            self.balance
        );
        if self.cfg.track_reads {
            assert_eq!(
                summary.reads,
                iterations * self.counts.cell_reads,
                "analytic wear disagrees with trace read counts under {}",
                self.balance
            );
        }
        if sink.enabled() {
            sink.record(&Event::CounterAdd { name: "sim.analytic_queries", delta: 1 });
            sink.record(&Event::CounterAdd { name: "sim.iterations", delta: iterations });
            sink.record(&Event::CounterAdd { name: "array.cell_writes", delta: summary.writes });
            sink.record(&Event::CounterAdd { name: "array.cell_reads", delta: summary.reads });
            sink.record(&Event::CounterAdd { name: "sim.lane_renders", delta: summary.renders });
            sink.record(&Event::CounterAdd { name: "sim.super_cycles_folded", delta: folded });
            sink.flush();
        }
    }

    /// Walks one super-cycle of `len` iterations on a walker of its own and
    /// keeps its stage and the arrangement it ends in.
    fn walk_super_cycle(&mut self, len: u64, deadline: Option<Instant>) -> Result<(), Expired> {
        let trace = self.workload.trace();
        let mut walker = Walker::new(trace, self.balance, self.cfg, false);
        walker.walk_to(&self.booking, self.cfg.schedule, len, deadline)?;
        let rows = trace.dims().rows();
        let f = walker.map.hw().map_or_else(|| (0..rows).collect(), HwRemapper::arrangement);
        self.cycle = Some(SuperCycle { stage: walker.rows, f: PermFolder::new(f) });
        Ok(())
    }

    /// The walk every answer at `n` shares, taking the walker (the fresh
    /// one built with the engine, or a new one from the seed): its walk to
    /// `n`, or, when `n` spans `k` super-cycles, its walk of the remainder
    /// with them folded into its stage. Returns the walker, whose stage
    /// then holds the answer's unrendered wear, and `k` (0 when walked).
    fn walk(&mut self, n: u64, deadline: Option<Instant>) -> Result<(Walker, u64), Expired> {
        let fold = self.cycle_iterations.filter(|&len| n >= len);
        if let Some(len) = fold.filter(|_| self.cycle.is_none()) {
            self.walk_super_cycle(len, deadline)?;
        }
        let (k, m) = fold.map_or((0, n), |len| (n / len, n % len));
        let trace = self.workload.trace();
        let fresh = || Walker::new(trace, self.balance, self.cfg, true);
        let mut walker = self.walker.take().unwrap_or_else(fresh);
        walker.walk_to(&self.booking, self.cfg.schedule, m, deadline)?;
        if let Some(cycle) = self.cycle.as_ref().filter(|_| k > 0) {
            walker.rows.fold_cycles(&cycle.stage, &cycle.f, k);
        }
        Ok((walker, k))
    }
}

/// Runs `configs` analytically across `jobs` worker threads (`0` = auto),
/// answering each at `cfg.iterations` — the analytic counterpart of the
/// simulator's `run_configs_parallel`, bit-identical to it and to the
/// serial simulator.
///
/// Every worker shares the same immutable artifact store (passed by
/// reference into the pool; values come back as `Arc` clones), so sibling
/// cells reuse trace walks, panels, and kernels regardless of which thread
/// evaluates them. Per-cell hit/miss tallies are buffered through
/// [`artifacts::record_provenance`] in submission order for manifest
/// auditing.
#[must_use]
pub fn run_configs_analytic(
    workload: &Workload,
    configs: &[BalanceConfig],
    cfg: SimConfig,
    jobs: usize,
) -> Vec<SimResult> {
    let outputs = fan_out(configs.to_vec(), jobs, |config, sink| {
        let mut engine = AnalyticWearEngine::new(workload, config, cfg);
        let result = match sink {
            Some(observer) => engine.result_at_with(cfg.iterations, observer),
            None => engine.result_at_with(cfg.iterations, &NullSink),
        };
        (result, engine.artifact_use())
    });
    outputs
        .into_iter()
        .map(|(result, usage)| {
            artifacts::record_provenance(result.config.to_string(), usage);
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_configs_are_closed_form_at_every_dims() {
        let schedules =
            [RemapSchedule::never(), RemapSchedule::every(1), RemapSchedule::every(100)];
        for balance in BalanceConfig::all() {
            let random = balance.row == Strategy::Random || balance.col == Strategy::Random;
            for schedule in schedules {
                let want = if random && schedule.period().is_some() {
                    AnalyticPath::Lazy
                } else {
                    AnalyticPath::ClosedForm
                };
                for dims in [ArrayDims::new(104, 24), ArrayDims::new(1024, 1024)] {
                    for track_reads in [false, true] {
                        assert_eq!(
                            classify(balance, schedule, dims, track_reads),
                            want,
                            "{balance} {schedule} {}x{} reads={track_reads}",
                            dims.rows(),
                            dims.lanes()
                        );
                    }
                }
            }
        }
    }
}
