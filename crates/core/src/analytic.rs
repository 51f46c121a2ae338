//! Replay-free analytic wear evaluation: per-cell wear as a closed-form (or
//! incrementally materialized) function of the iteration count.
//!
//! The simulator answers "what does the wear map look like after N
//! iterations?" in O(N/period) epoch folds. Lifetime estimation and
//! Fig. 17-style sweeps ask that question at many values of N, so this
//! module factors the *schedule* out the same way [`crate::kernel`]
//! factored the *epoch*: express the whole epoch sequence as permutation
//! cycle algebra and answer any N directly.
//!
//! # Reducibility ladder
//!
//! Every configuration lands on one of two rungs. A configuration's epoch
//! sequence is *periodic* when every future software row/lane table is a
//! pure function of the epoch index
//! ([`nvpim_balance::Strategy::epoch_period`]):
//!
//! 1. **Closed form** ([`AnalyticPath::ClosedForm`], O(cells) per query) —
//!    `{St,Bs}` on both axes, or any config under a `never()` schedule.
//!    The table sequence has finite period `L = lcm(L_row, L_col)`, so we
//!    precompute *prefix panels*: cumulative per-cell deposits of the first
//!    `j` epochs, `j = 0..=L`. Without `Hw` each epoch's one-iteration
//!    deposit pattern is constant within the epoch and the query is pure
//!    arithmetic on the prefix panels. With `Hw` the hardware arrangement
//!    also evolves, but each epoch advances it by a *fixed* permutation
//!    (the trace's one kernel relabeled through the epoch's row table,
//!    its end permutation raised to the schedule period), so a super-cycle
//!    of `L` epochs advances the arrangement by a fixed permutation `F`;
//!    `k` super-cycles fold over `F`'s cycle structure in O(cells) exactly
//!    like one epoch folds over `E` ([`PermFolder`]).
//! 2. **Lazy** ([`AnalyticPath::Lazy`], O(epochs elapsed) per first query,
//!    O(new epochs) for monotone follow-ups) — any axis running `Ra`, with
//!    or without `Hw`, or a closed form whose prefix panels would exceed
//!    [`MAX_PREFIX_ENTRIES`]. Epoch states are enumerated in schedule
//!    order with the exact seeded RNG streams, but each epoch only books
//!    O(rows) per lane class into a row-space stage — the logical panels
//!    through the row table (software), or the trace's one kernel
//!    relabeled through the row table and folded (hardware, see
//!    [`crate::kernel`]) — never a trace walk. Lanes render into the cell
//!    map once per query for classes spanning every lane, and once per
//!    lane-table change for partial classes (`kernel::RowAccumulator`).
//!
//! Every path is bit-identical to the simulator — the bit-identity suite
//! (`tests/analytic.rs`) pins `analytic == run == run_reference` across
//! all 18 configurations, and each query re-asserts conservation against
//! the trace's static counts. Answers carry no epoch series: per-epoch
//! trajectories come from the simulator ([`crate::sim`]).
//!
//! # Artifact reuse
//!
//! Engine construction routes its expensive intermediates — the logical
//! panels of one trace walk, the trace's compiled +Hw kernel, and whole
//! closed-form backends — through [`crate::artifacts`]: a content-addressed
//! store shared across matrix cells, sweep points, and serve requests.
//! Sibling configurations that share a trace (all 18 do) reuse each
//! other's work; [`AnalyticWearEngine::new_with_store`] swaps in a private
//! store, and [`AnalyticWearEngine::artifact_use`] reports how many
//! lookups hit.
//! Because every memoized builder is deterministic in its key, reuse is
//! bit-identity-safe (see the `artifacts` module docs for the keying
//! argument).
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

use nvpim_array::trace::TraceCounts;
use nvpim_array::{ArchStyle, ArrayDims, PermFolder, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{BalanceConfig, CombinedMap, RemapSchedule};
use nvpim_obs::{Event, EventSink, NullSink};
use nvpim_workloads::Workload;

use crate::artifacts::{self, ArtifactKind, ArtifactStore, ArtifactUse, Fingerprint, StoreCtx};
use crate::kernel;
use crate::parallel::fan_out;
use crate::sim::{SimConfig, SimResult};

/// Chunk length (in `u64` cells) for the closed-form evaluation loop: four zipped
/// streams of 1024 × 8 B stay L1-resident on every target we care about.
const FOLD_CHUNK: usize = 1 << 10;

/// Ceiling on closed-form prefix-panel storage, in `u64` entries
/// (`(L + 1) × cells`, doubled when reads are tracked). A super-cycle
/// whose panels would exceed this demotes to the lazy path, which stores
/// O(cells) regardless of `L`.
pub const MAX_PREFIX_ENTRIES: usize = 8 << 20;

/// Which rung of the reducibility ladder a configuration landed on — see
/// the [module docs](self) for the criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyticPath {
    /// O(cells) pure-arithmetic queries from precomputed prefix panels.
    ClosedForm,
    /// Epoch states enumerated lazily (exact RNG streams) and folded
    /// without trace walks; monotone queries advance incrementally.
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

/// The concrete backend behind each [`AnalyticPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathChoice {
    Static,
    HwClosed,
    LazySw,
    LazyHw,
}

impl PathChoice {
    fn path(self) -> AnalyticPath {
        match self {
            PathChoice::Static | PathChoice::HwClosed => AnalyticPath::ClosedForm,
            PathChoice::LazySw | PathChoice::LazyHw => AnalyticPath::Lazy,
        }
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

fn prefix_entries(l: u64, dims: ArrayDims, track_reads: bool) -> usize {
    (l as usize).saturating_add(1).saturating_mul(dims.cells()).saturating_mul(if track_reads {
        2
    } else {
        1
    })
}

fn classify_inner(
    balance: BalanceConfig,
    schedule: RemapSchedule,
    dims: ArrayDims,
    track_reads: bool,
) -> PathChoice {
    let never = schedule.period().is_none();
    if !balance.hw {
        if never {
            return PathChoice::Static;
        }
        match (balance.row.epoch_period(dims.rows()), balance.col.epoch_period(dims.lanes())) {
            (Some(rp), Some(cp))
                if prefix_entries(lcm(rp, cp), dims, track_reads) <= MAX_PREFIX_ENTRIES =>
            {
                PathChoice::Static
            }
            _ => PathChoice::LazySw,
        }
    } else {
        if never {
            // A single epoch: one kernel folded over its own permutation,
            // no prefix panels at all.
            return PathChoice::HwClosed;
        }
        let sw_rows = dims.rows() - 1;
        match (balance.row.epoch_period(sw_rows), balance.col.epoch_period(dims.lanes())) {
            (Some(rp), Some(cp))
                if prefix_entries(lcm(rp, cp), dims, track_reads) <= MAX_PREFIX_ENTRIES =>
            {
                PathChoice::HwClosed
            }
            _ => PathChoice::LazyHw,
        }
    }
}

/// Predicts which [`AnalyticPath`] [`AnalyticWearEngine::new`] will choose
/// for a configuration, without building the engine — used by `repro` and
/// `serve` to label manifests.
#[must_use]
pub fn classify(
    balance: BalanceConfig,
    schedule: RemapSchedule,
    dims: ArrayDims,
    track_reads: bool,
) -> AnalyticPath {
    classify_inner(balance, schedule, dims, track_reads).path()
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

/// Adds `deltas[i]` at row `row_of(i)` across `lanes` of a flat row-major
/// plane `width` lanes wide.
fn scatter_rows(
    plane: &mut [u64],
    width: usize,
    deltas: &[u64],
    row_of: impl Fn(usize) -> usize,
    lanes: &[usize],
) {
    for (i, &delta) in deltas.iter().enumerate() {
        if delta > 0 {
            let row = &mut plane[row_of(i) * width..][..width];
            for &lane in lanes {
                row[lane] += delta;
            }
        }
    }
}

/// Writes per-class row deposits `deltas[class][row]` across each class's
/// `lanes` into a fresh row-major plane, one whole row at a time, so every
/// page of the plane is first touched by a write.
fn render_class_rows(dims: ArrayDims, deltas: &[Vec<u64>], lanes: &[Vec<usize>]) -> Vec<u64> {
    let mut plane = Vec::with_capacity(dims.cells());
    let mut row = vec![0u64; dims.lanes()];
    for r in 0..dims.rows() {
        row.fill(0);
        for (deltas, class_lanes) in deltas.iter().zip(lanes) {
            if deltas[r] > 0 {
                for &lane in class_lanes {
                    row[lane] += deltas[r];
                }
            }
        }
        plane.extend_from_slice(&row);
    }
    plane
}

/// Reusable per-engine query scratch for the closed-form paths' per-slot
/// and per-row working buffers. The answer planes themselves are allocated
/// fresh per query and handed to [`WearMap::from_planes`], so their pages
/// are first touched by a write.
#[derive(Debug, Default)]
struct QueryScratch {
    folded: Vec<u64>,
    rows: Vec<u64>,
}

/// Closed form for software-only configs with periodic tables.
///
/// `prefix[j][cell]` holds the per-iteration deposit pattern of epochs
/// `0..j` summed — so `N = (qL + r)·p + rem` iterations evaluate as
/// `p·(q·prefix[L] + prefix[r]) + rem·(prefix[r+1] − prefix[r])`,
/// element-wise over cells.
#[derive(Debug)]
struct StaticClosedForm {
    dims: ArrayDims,
    period: Option<u64>,
    l: u64,
    prefix_w: Vec<Vec<u64>>,
    prefix_r: Option<Vec<Vec<u64>>>,
}

impl StaticClosedForm {
    fn build(
        trace: &Trace,
        panels: &LogicalPanels,
        balance: BalanceConfig,
        cfg: SimConfig,
    ) -> Self {
        let dims = trace.dims();
        let (rows, lanes, cells) = (dims.rows(), dims.lanes(), dims.cells());
        let (vw, vr) = (&panels.writes, panels.reads.as_ref());
        let period = cfg.schedule.period();
        let l = match period {
            None => 1,
            Some(_) => lcm(
                balance.row.epoch_period(rows).expect("closed form requires periodic rows"),
                balance.col.epoch_period(lanes).expect("closed form requires periodic lanes"),
            ),
        };
        let mut acc_w = vec![0u64; cells];
        let mut acc_r = vr.as_ref().map(|_| vec![0u64; cells]);
        let mut prefix_w = vec![acc_w.clone()];
        let mut prefix_r = acc_r.clone().map(|z| vec![z]);
        for e in 0..l {
            // Epoch 0 is the identity for every strategy, which covers the
            // never() schedule (where `Ra` is closed-form too).
            let rt = match period {
                None => (0..rows).collect(),
                Some(_) => balance.row.table_at_epoch(rows, e).expect("periodic rows"),
            };
            let lp = match period {
                None => (0..lanes).collect(),
                Some(_) => balance.col.table_at_epoch(lanes, e).expect("periodic lanes"),
            };
            for (class, laneset) in trace.classes().iter().enumerate() {
                let phys: Vec<usize> = laneset.iter().map(|l| lp[l]).collect();
                scatter_rows(&mut acc_w, lanes, &vw[class], |row| rt[row], &phys);
                if let (Some(vr), Some(acc_r)) = (&vr, &mut acc_r) {
                    scatter_rows(acc_r, lanes, &vr[class], |row| rt[row], &phys);
                }
            }
            prefix_w.push(acc_w.clone());
            if let (Some(prefix_r), Some(acc_r)) = (&mut prefix_r, &acc_r) {
                prefix_r.push(acc_r.clone());
            }
        }
        StaticClosedForm { dims, period, l, prefix_w, prefix_r }
    }

    /// Evaluates one plane (writes or reads) at iteration count `n` via the
    /// prefix-panel identity, writing the whole plane into `out` in
    /// L1-sized chunks of exact-size slices (no bounds checks in the inner
    /// loop).
    fn eval_plane_into(&self, prefix: &[Vec<u64>], n: u64, out: &mut [u64]) {
        match self.period {
            None => {
                for (o, &q) in out.iter_mut().zip(prefix[1].iter()) {
                    *o = n * q;
                }
            }
            Some(p) => {
                let (full, rem) = (n / p, n % p);
                let (q, r) = (full / self.l, (full % self.l) as usize);
                let whole = &prefix[self.l as usize];
                let head = &prefix[r];
                let next = &prefix[r + 1];
                let mut start = 0;
                while start < out.len() {
                    let end = (start + FOLD_CHUNK).min(out.len());
                    let o = &mut out[start..end];
                    let w = &whole[start..end];
                    let h = &head[start..end];
                    let x = &next[start..end];
                    for i in 0..o.len() {
                        o[i] = p * (q * w[i] + h[i]) + rem * (x[i] - h[i]);
                    }
                    start = end;
                }
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        let entries = self.prefix_w.iter().map(Vec::len).sum::<usize>()
            + self.prefix_r.as_ref().map_or(0, |p| p.iter().map(Vec::len).sum::<usize>());
        entries * std::mem::size_of::<u64>()
    }

    fn query(&self, n: u64) -> WearMap {
        let eval = |prefix: &[Vec<u64>]| {
            let mut plane = vec![0; self.dims.cells()];
            self.eval_plane_into(prefix, n, &mut plane);
            plane
        };
        let reads = self.prefix_r.as_deref().map_or_else(Vec::new, eval);
        WearMap::from_planes(self.dims, eval(&self.prefix_w), reads)
    }
}

/// Closed form for `Hw` configs with periodic software tables.
///
/// One kernel serves every epoch: epoch `j` runs it relabeled through its
/// extended row table `T_j'` (row phase `j mod L_row`, see
/// [`crate::kernel`]) under the lane permutation of phase `j mod L_col`.
/// With `D_j` the arrangement entering epoch `j` (`D_0` the identity, so
/// slot space *is* physical-row space), epoch `j` deposits kernel slot `s`
/// at `D_j[T_j'(s)]` and leaves `D_{j+1} = D_j ∘ T_j'·Eᵖ·T_j'⁻¹`. Over a
/// super-cycle of `L = lcm` epochs the arrangement advances by the fixed
/// permutation `F = D_L`, so `k` full super-cycles fold the super-cycle
/// deposit panel over `F`'s cycles, `r` remainder epochs add a stored
/// prefix panel shifted by `Fᵏ`, and a partial epoch folds the kernel over
/// `E` and deposits at `Fᵏ[D_r[T_r'(s)]]`.
#[derive(Debug)]
struct HwClosedForm {
    dims: ArrayDims,
    period: Option<u64>,
    l: u64,
    lc: u64,
    /// The trace's one compiled kernel (a store entry of its own, shared
    /// with every `+Hw` config of the trace).
    kernel: Arc<WearKernel>,
    /// `[lane phase][class]` → physical lanes.
    phys_lanes: Vec<Vec<Vec<usize>>>,
    /// Where epoch `j` of a super-cycle deposits kernel slot `s`:
    /// `starts[j][s] = D_j[T_j'(s)]`, `j = 0..L`.
    starts: Vec<Vec<usize>>,
    /// Cycle folder over `F`.
    f: PermFolder,
    /// Cumulative deposits of epochs `0..j` of one super-cycle (flat
    /// row-major cells), `j = 0..=L`.
    scp_w: Vec<Vec<u64>>,
    scp_r: Option<Vec<Vec<u64>>>,
}

impl HwClosedForm {
    fn build(
        trace: &Trace,
        balance: BalanceConfig,
        cfg: SimConfig,
        kernel: Arc<WearKernel>,
    ) -> Self {
        let dims = trace.dims();
        let (slots, lanes, cells) = (dims.rows(), dims.lanes(), dims.cells());
        let sw_rows = slots - 1;
        let identity: Vec<usize> = (0..slots).collect();
        let Some(p) = cfg.schedule.period() else {
            // Single endless epoch under the identity table: queries fold
            // the kernel over its own end permutation.
            return HwClosedForm {
                dims,
                period: None,
                l: 1,
                lc: 1,
                kernel,
                phys_lanes: vec![trace.classes().iter().map(|c| c.iter().collect()).collect()],
                starts: vec![identity.clone()],
                f: PermFolder::new(identity),
                scp_w: Vec::new(),
                scp_r: None,
            };
        };
        let lr = balance.row.epoch_period(sw_rows).expect("closed form requires periodic rows");
        let lc = balance.col.epoch_period(lanes).expect("closed form requires periodic lanes");
        let l = lcm(lr, lc);
        // T_j' per row phase: the software table with the spare slot fixed.
        let tables: Vec<Vec<usize>> = (0..lr)
            .map(|phase| {
                let mut table = balance.row.table_at_epoch(sw_rows, phase).expect("periodic rows");
                table.push(sw_rows);
                table
            })
            .collect();
        let phys_lanes: Vec<Vec<Vec<usize>>> = (0..lc)
            .map(|phase| {
                let perm = balance.col.table_at_epoch(lanes, phase).expect("periodic lanes");
                trace.classes().iter().map(|c| c.iter().map(|l| perm[l]).collect()).collect()
            })
            .collect();
        // Every whole epoch folds the same kernel over the same span, so
        // each class's per-slot epoch totals are computed once.
        let fold = |panel: &[u64]| {
            let mut folded = vec![0; slots];
            kernel.fold_epoch_into(p, panel, &mut folded);
            folded
        };
        let classes = 0..kernel.classes();
        let folded_w: Vec<Vec<u64>> =
            classes.clone().map(|c| fold(kernel.slot_writes(c))).collect();
        let folded_r: Option<Vec<Vec<u64>>> =
            classes.map(|c| kernel.slot_reads(c).map(fold)).collect();
        let epoch_perm = kernel.folder().power(p);

        let mut d = identity;
        let mut starts = Vec::with_capacity(l as usize);
        let mut acc_w = vec![0u64; cells];
        let mut acc_r = cfg.track_reads.then(|| vec![0u64; cells]);
        let mut scp_w = vec![acc_w.clone()];
        let mut scp_r = acc_r.clone().map(|z| vec![z]);
        for j in 0..l {
            let table = &tables[(j % lr) as usize];
            let start: Vec<usize> = table.iter().map(|&t| d[t]).collect();
            for (class, class_lanes) in phys_lanes[(j % lc) as usize].iter().enumerate() {
                scatter_rows(&mut acc_w, lanes, &folded_w[class], |s| start[s], class_lanes);
                if let (Some(acc_r), Some(folded_r)) = (&mut acc_r, &folded_r) {
                    scatter_rows(acc_r, lanes, &folded_r[class], |s| start[s], class_lanes);
                }
            }
            // D_{j+1}[T_j'(s)] = D_j[T_j'(Eᵖ[s])].
            for (s, &t) in table.iter().enumerate() {
                d[t] = start[epoch_perm[s]];
            }
            starts.push(start);
            scp_w.push(acc_w.clone());
            if let (Some(scp_r), Some(acc_r)) = (&mut scp_r, &acc_r) {
                scp_r.push(acc_r.clone());
            }
        }
        let f = PermFolder::new(d);
        HwClosedForm { dims, period: Some(p), l, lc, kernel, phys_lanes, starts, f, scp_w, scp_r }
    }

    fn approx_bytes(&self) -> usize {
        let panels = self.scp_w.iter().map(Vec::len).sum::<usize>()
            + self.scp_r.as_ref().map_or(0, |p| p.iter().map(Vec::len).sum::<usize>());
        let starts = self.starts.iter().map(Vec::len).sum::<usize>();
        let lanes = self
            .phys_lanes
            .iter()
            .flat_map(|per_phase| per_phase.iter())
            .map(Vec::len)
            .sum::<usize>();
        // The kernel is a shared store entry in its own right; count only
        // the Arc handle here so it is not billed twice.
        (panels + starts + lanes) * std::mem::size_of::<u64>()
            + self.dims.rows() * 2 * std::mem::size_of::<usize>()
    }

    /// The answer within the first epoch, or in the one endless epoch of a
    /// `never()` schedule: the kernel folded over `n` iterations and
    /// deposited at `starts[0]`, under lane phase 0, written into fresh
    /// planes one row at a time.
    fn first_epoch(&self, n: u64) -> WearMap {
        let kernel = &self.kernel;
        let start = &self.starts[0];
        let fold = |panel: &[u64]| {
            let mut folded = vec![0; self.dims.rows()];
            kernel.fold_epoch_into(n, panel, &mut folded);
            let mut by_row = vec![0; self.dims.rows()];
            for (&row, &total) in start.iter().zip(&folded) {
                by_row[row] = total;
            }
            by_row
        };
        let classes = 0..kernel.classes();
        let writes: Vec<Vec<u64>> = classes.clone().map(|c| fold(kernel.slot_writes(c))).collect();
        let reads: Option<Vec<Vec<u64>>> =
            classes.map(|c| kernel.slot_reads(c).map(fold)).collect();
        let render =
            |deltas: &[Vec<u64>]| render_class_rows(self.dims, deltas, &self.phys_lanes[0]);
        WearMap::from_planes(
            self.dims,
            render(&writes),
            reads.as_deref().map_or_else(Vec::new, render),
        )
    }

    fn query(&self, n: u64, s: &mut QueryScratch) -> WearMap {
        let Some(p) = self.period.filter(|&p| n >= p) else {
            return self.first_epoch(n);
        };
        let lanes = self.dims.lanes();
        let slots = self.dims.rows();
        let cells = self.dims.cells();
        let track = self.scp_r.is_some();
        let (full, rem) = (n / p, n % p);
        let (k, r) = (full / self.l, (full % self.l) as usize);
        let fk = self.f.power(k);

        // (1) k full super-cycles: the super-cycle panel folded over F
        // whole lane rows at a time (contiguous row-major vector adds via
        // the cycle algebra), then (2) r whole remainder epochs: their
        // stored prefix panel, shifted through F^k one contiguous lane row
        // at a time. The fold overwrites every cell, so each fresh plane
        // is first touched by a write; with k = 0 (then r > 0, as n ≥ p),
        // F^k is the identity and the plane starts as a copy of the prefix
        // panel.
        let mut superfold = |scp: &[Vec<u64>]| -> Vec<u64> {
            if k == 0 {
                return scp[r].clone();
            }
            let mut acc = vec![0; cells];
            self.f.fold_rows_into(k, &scp[self.l as usize], lanes, &mut acc, &mut s.rows);
            if r > 0 {
                for (slot, &fs) in fk.iter().enumerate() {
                    let src = &scp[r][slot * lanes..(slot + 1) * lanes];
                    let dst = &mut acc[fs * lanes..(fs + 1) * lanes];
                    for (d, &v) in dst.iter_mut().zip(src.iter()) {
                        *d += v;
                    }
                }
            }
            acc
        };
        let mut acc_w = superfold(&self.scp_w);
        let mut acc_r = self.scp_r.as_deref().map_or_else(Vec::new, &mut superfold);

        // (3) partial final epoch: fold the kernel over E for `rem`
        // iterations and deposit at F^k[D_r[T_r'(s)]]. Epoch `full` has row
        // phase `r mod L_row` (L_row divides L) and lane phase `full mod L_col`.
        if rem > 0 {
            s.folded.resize(slots, 0);
            let folded = &mut s.folded;
            let kernel = &self.kernel;
            let start = &self.starts[r];
            let lanes_of = &self.phys_lanes[(full % self.lc) as usize];
            for (class, class_lanes) in lanes_of.iter().enumerate() {
                kernel.fold_epoch_into(rem, kernel.slot_writes(class), folded);
                scatter_rows(&mut acc_w, lanes, folded, |slot| fk[start[slot]], class_lanes);
                if let (true, Some(reads)) = (track, kernel.slot_reads(class)) {
                    kernel.fold_epoch_into(rem, reads, folded);
                    scatter_rows(&mut acc_r, lanes, folded, |slot| fk[start[slot]], class_lanes);
                }
            }
        }

        WearMap::from_planes(self.dims, acc_w, acc_r)
    }
}

/// The cumulative state both lazy backends walk: the exact seeded maps,
/// the wear rendered so far, its row-space stage, and the iterations done.
#[derive(Debug)]
struct LazyRun {
    map: CombinedMap,
    wear: WearMap,
    rows: kernel::RowAccumulator,
    done: u64,
}

impl LazyRun {
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let dims = trace.dims();
        LazyRun {
            map: CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed),
            wear: WearMap::new(dims),
            rows: kernel::RowAccumulator::new(trace, cfg.track_reads),
            done: 0,
        }
    }

    /// The wear after `n` iterations: hands each remaining epoch span to
    /// `epoch` (which books it into the stage) in schedule order, then
    /// reads the stage. A query behind the cached position restarts from
    /// the seed (backwards queries are rare — sweeps ascend).
    fn query(
        &mut self,
        trace: &Trace,
        balance: BalanceConfig,
        cfg: SimConfig,
        n: u64,
        mut epoch: impl FnMut(&mut LazyRun, u64),
    ) -> WearMap {
        if n < self.done {
            *self = LazyRun::new(trace, balance, cfg);
        }
        let period = cfg.schedule.period();
        while self.done < n {
            let span = period.map_or(n, |p| p - self.done % p).min(n - self.done);
            epoch(self, span);
            self.done += span;
            if period.is_some_and(|p| self.done % p == 0) {
                self.map.advance_epoch();
            }
        }
        self.rows.snapshot(&mut self.wear)
    }
}

/// Lazy enumerator for software-only configs with `Ra` on an axis: walks
/// the epoch sequence with the exact seeded mappers, booking the
/// precomputed logical panels through each epoch's row table into the
/// row-space stage — O(rows) per class per epoch, zero trace walks; lanes
/// render only when the lane table changes and at the end of a query.
/// Monotone queries continue from the cached cumulative state.
#[derive(Debug)]
struct LazySw {
    panels: Arc<LogicalPanels>,
    run: LazyRun,
}

impl LazySw {
    fn query(&mut self, trace: &Trace, balance: BalanceConfig, cfg: SimConfig, n: u64) -> WearMap {
        let panels = &self.panels;
        self.run.query(trace, balance, cfg, n, |run, span| {
            run.rows.set_lanes(run.map.lane_permutation(), &mut run.wear);
            let table = run.map.row_table();
            for (class, writes) in panels.writes.iter().enumerate() {
                run.rows.book(class, table, writes, span, false);
            }
            for (class, reads) in panels.reads.iter().flatten().enumerate() {
                run.rows.book(class, table, reads, span, true);
            }
        })
    }
}

/// Lazy enumerator for `Hw` configs whose tables are not closed form (`Ra`
/// on either axis, or a super-cycle too long for prefix panels): each epoch
/// relabels the trace's one kernel through its row table, folds it and
/// advances the arrangement exactly like the simulator's compiled path.
#[derive(Debug)]
struct LazyHw {
    kernel: Arc<WearKernel>,
    run: LazyRun,
}

impl LazyHw {
    fn query(&mut self, trace: &Trace, balance: BalanceConfig, cfg: SimConfig, n: u64) -> WearMap {
        let kernel = &self.kernel;
        self.run.query(trace, balance, cfg, n, |run, span| {
            run.rows.apply_kernel_epoch(kernel, &mut run.map, span, &mut run.wear);
        })
    }
}

#[derive(Debug)]
enum Backend {
    Static(Arc<StaticClosedForm>),
    HwClosed(Arc<HwClosedForm>),
    LazySw(Box<LazySw>),
    LazyHw(Box<LazyHw>),
}

/// Fetches (or builds) the software-only closed form through the store.
fn build_static(
    trace: &Trace,
    balance: BalanceConfig,
    cfg: SimConfig,
    fp: Fingerprint,
    ctx: &mut StoreCtx<'_>,
) -> Arc<StaticClosedForm> {
    let panels = fetch_panels(trace, cfg, fp, ctx);
    let key = artifacts::closed_form_key(1, fp, balance, cfg.schedule, cfg.arch, cfg.track_reads);
    ctx.get_or_build(ArtifactKind::ClosedForm, key, || {
        let form = StaticClosedForm::build(trace, &panels, balance, cfg);
        let bytes = form.approx_bytes();
        (form, bytes)
    })
}

/// Fetches (or builds) the +Hw closed form. The trace's kernel is fetched
/// first as its own store entry, so every other `+Hw` config of the trace
/// reuses it even if the whole closed form misses.
fn build_hw_closed(
    trace: &Trace,
    balance: BalanceConfig,
    cfg: SimConfig,
    fp: Fingerprint,
    ctx: &mut StoreCtx<'_>,
) -> Arc<HwClosedForm> {
    let kernel = kernel::fetch(trace, cfg.arch, cfg.track_reads, fp, ctx);
    let key = artifacts::closed_form_key(2, fp, balance, cfg.schedule, cfg.arch, cfg.track_reads);
    ctx.get_or_build(ArtifactKind::ClosedForm, key, || {
        let form = HwClosedForm::build(trace, balance, cfg, kernel);
        let bytes = form.approx_bytes();
        (form, bytes)
    })
}

/// Replay-free per-cell wear as a function of the iteration count, for one
/// (workload, configuration) pair — bit-identical to running the simulator
/// ([`crate::sim`]) for the same number of iterations.
///
/// Construction pays the one-time symbolic cost (at most one trace walk
/// for the logical panels or the `+Hw` kernel); every
/// [`AnalyticWearEngine::wear_at`] afterwards is O(cells) on the
/// closed-form path. See the [module docs](self) for the path criteria.
#[derive(Debug)]
pub struct AnalyticWearEngine<'w> {
    workload: &'w Workload,
    balance: BalanceConfig,
    cfg: SimConfig,
    counts: TraceCounts,
    backend: Backend,
    usage: ArtifactUse,
    scratch: QueryScratch,
}

impl<'w> AnalyticWearEngine<'w> {
    /// Builds the engine, choosing the strongest reducible path for
    /// `balance` under `cfg.schedule`. Intermediates are shared through
    /// [`artifacts::global`].
    ///
    /// # Panics
    ///
    /// Panics if the workload uses more rows than the configuration makes
    /// available (same contract as the simulator).
    #[must_use]
    pub fn new(workload: &'w Workload, balance: BalanceConfig, cfg: SimConfig) -> Self {
        Self::new_with_store(workload, balance, cfg, artifacts::global())
    }

    /// [`AnalyticWearEngine::new`] against an explicit store (the identity
    /// suite and `nvpim-check` use private stores to exercise hit, miss,
    /// and eviction regimes in isolation).
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
        let choice = classify_inner(balance, cfg.schedule, dims, cfg.track_reads);
        let fp = artifacts::trace_fingerprint(trace);
        let mut ctx = StoreCtx::new(store);
        let backend = match choice {
            PathChoice::Static => Backend::Static(build_static(trace, balance, cfg, fp, &mut ctx)),
            PathChoice::HwClosed => {
                Backend::HwClosed(build_hw_closed(trace, balance, cfg, fp, &mut ctx))
            }
            PathChoice::LazySw => Backend::LazySw(Box::new(LazySw {
                panels: fetch_panels(trace, cfg, fp, &mut ctx),
                run: LazyRun::new(trace, balance, cfg),
            })),
            PathChoice::LazyHw => Backend::LazyHw(Box::new(LazyHw {
                kernel: kernel::fetch(trace, cfg.arch, cfg.track_reads, fp, &mut ctx),
                run: LazyRun::new(trace, balance, cfg),
            })),
        };
        let usage = ctx.tally();
        AnalyticWearEngine {
            workload,
            balance,
            cfg,
            counts,
            backend,
            usage,
            scratch: QueryScratch::default(),
        }
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
        match self.backend {
            Backend::Static(_) | Backend::HwClosed(_) => AnalyticPath::ClosedForm,
            Backend::LazySw(_) | Backend::LazyHw(_) => AnalyticPath::Lazy,
        }
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
    /// dashboards stay comparable.
    #[must_use]
    pub fn result_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> SimResult {
        let trace = self.workload.trace();
        let wear = match &mut self.backend {
            Backend::Static(b) => b.query(iterations),
            Backend::HwClosed(b) => b.query(iterations, &mut self.scratch),
            Backend::LazySw(b) => b.query(trace, self.balance, self.cfg, iterations),
            Backend::LazyHw(b) => b.query(trace, self.balance, self.cfg, iterations),
        };
        // Same conservation cross-check as the simulator: the closed-form
        // algebra and the trace's static counts tally the same traffic
        // independently.
        assert_eq!(
            wear.total_writes(),
            iterations * self.counts.cell_writes,
            "analytic wear disagrees with trace write counts under {}",
            self.balance
        );
        if self.cfg.track_reads {
            assert_eq!(
                wear.total_reads(),
                iterations * self.counts.cell_reads,
                "analytic wear disagrees with trace read counts under {}",
                self.balance
            );
        }
        // Partial-class lane renders of a lazy query.
        let lane_renders = match &mut self.backend {
            Backend::LazySw(b) => Some(b.run.rows.take_lane_renders()),
            Backend::LazyHw(b) => Some(b.run.rows.take_lane_renders()),
            _ => None,
        };
        if sink.enabled() {
            sink.record(&Event::CounterAdd { name: "sim.analytic_queries", delta: 1 });
            sink.record(&Event::CounterAdd { name: "sim.iterations", delta: iterations });
            sink.record(&Event::CounterAdd {
                name: "array.cell_writes",
                delta: wear.total_writes(),
            });
            sink.record(&Event::CounterAdd { name: "array.cell_reads", delta: wear.total_reads() });
            if let Some(delta) = lane_renders {
                sink.record(&Event::CounterAdd { name: "sim.lane_renders", delta });
            }
            sink.flush();
        }
        SimResult {
            wear,
            config: self.balance,
            iterations,
            steps_per_iteration: self.counts.sequential_steps,
            arch: self.cfg.arch,
            series: Vec::new(),
        }
    }

    /// Writes on the hottest cell after `iterations` iterations — the
    /// monotone objective [`crate::lifetime::solve`] searches over.
    /// Uninstrumented (a solve issues O(log N) probes).
    #[must_use]
    pub fn max_writes_at(&mut self, iterations: u64) -> u64 {
        self.result_at_with(iterations, &NullSink).wear.max_writes()
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
    fn classify_never_falls_back() {
        let schedules =
            [RemapSchedule::never(), RemapSchedule::every(1), RemapSchedule::every(100)];
        for balance in BalanceConfig::all() {
            for schedule in schedules {
                for dims in [ArrayDims::new(128, 8), ArrayDims::new(1024, 1024)] {
                    for track_reads in [false, true] {
                        let path = classify(balance, schedule, dims, track_reads);
                        assert_ne!(
                            path,
                            AnalyticPath::Fallback,
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
