//! The compiled replay engine for dynamic (`+Hw`) configurations.
//!
//! Hardware free-row renaming is a *position-based* state machine: which
//! entries of its arrangement a trace reads, redirects, and swaps is fixed
//! by the trace and the software row table — the arrangement's current
//! contents never feed back into the control flow. That makes one symbolic
//! replay per trace sufficient:
//!
//! 1. **Compile** ([`compile`]): walk the trace once against a *fresh*
//!    [`HwRemapper`] (identity arrangement) under the identity software
//!    table. Record each operation's returned slot into per-(class, slot)
//!    delta panels, plus the net slot permutation `E` and the redirect
//!    count `k` of one iteration. If the start-of-epoch arrangement is
//!    `A₀`, the real replay's iteration `i` deposits the slot-`t` delta at
//!    physical row `A₀[Eⁱ[t]]` — exactly (proved inductively: real state =
//!    `A₀ ∘ symbolic state` before every operation, and both sides apply
//!    the same position swaps).
//! 2. **Relabel**: an epoch under software row table `T` is the same run
//!    with every position relabeled by `T'` (`T` extended with the spare
//!    slot `rows − 1` held fixed): a redirect of logical row `r` swaps
//!    positions `T'(r)` and `rows − 1` instead of `r` and `rows − 1`. So
//!    the epoch starts from `B = A₀ ∘ T'`, deposits the identity kernel's
//!    slot `t` at `B[Eⁱ[t]]`, and ends at `A_end = B ∘ E^span ∘ T'⁻¹` —
//!    O(rows) per epoch, whatever the table
//!    ([`RowAccumulator::apply_kernel_epoch`]).
//! 3. **Fold**: collapse the epoch's `span` iterations into per-slot totals
//!    over `E`'s cycle structure (O(rows), any span —
//!    [`WearKernel::fold_epoch_into`]; when `E` is the identity this is
//!    `span ×` the one-shot panel) and book them per (class, physical row)
//!    into a [`RowAccumulator`] — O(rows) per class, no lane rendering at
//!    all.
//! 4. **Advance**: set the remapper to `A_end` and book `span × k`
//!    redirects, so the renaming state and the observability tally are
//!    bit-identical to having replayed every iteration.
//!
//! Lanes are rendered into the wear map only when the map is read or a
//! stage fills ([`RowAccumulator`]): a class spanning every lane once per
//! read as full-row adds, a partial class once per distinct lane set its
//! deposits were booked under, or once per row phase from span-weighted
//! lane counts ([`LaneStage`]). So `St` lanes render a partial class once
//! per run, `Bs` lanes once per shifted lane set (once in all for a class
//! the shift maps onto itself). `Ra` lanes under `+Hw` or `Ra` rows draw a
//! new lane set every epoch; they stage up to [`LANE_BATCH`] epochs and
//! render the batch in one pass, with one add per lane of each lane
//! signature instead of one per (class, lane). The analytic engine's epoch
//! walker stages its epochs through the same accumulator.

use std::collections::BTreeMap;
use std::sync::Arc;

use nvpim_array::{ArchStyle, ArrayDims, LaneSet, PermFolder, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{BalanceConfig, CombinedMap, HwRemapper, Strategy};

use crate::artifacts::{self, ArtifactKind, Fingerprint, StoreCtx};
use crate::sim::SimConfig;

/// How a [`RowAccumulator`] stages its partial lane classes between
/// renders. Every stage is exact because wear is
/// `Σ_c Σ_e (T_e·v_c) ⊗ P_e(1_c)`: deposits booked under the same lane set
/// share a row vector, deposits booked under the same row table share a
/// lane-count vector, and the classes holding the same lanes share one
/// add per lane (DESIGN.md §"Lane staging").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneStage {
    /// Each partial class keys its staged row vector by its own sorted
    /// physical lane set, holding up to `keys` sets before every staged
    /// class renders.
    LaneSets { keys: usize },
    /// Each partial class books its row vector once per row phase
    /// (`epoch mod period`) at unit scale, and counts span-weighted lane
    /// occupancy per phase; it renders `v ⊗ counts` once per phase.
    RowPhases { period: u64 },
    /// `Ra` lanes: each epoch keeps its own lane table and per-(row,
    /// class) counts, up to [`LANE_BATCH`] epochs, and the batch renders
    /// in one row-major pass, one add per lane of each lane signature
    /// ([`EpochBatch`]).
    EpochBatches,
}

/// Epochs a [`LaneStage::EpochBatches`] stage holds before it renders. A
/// per-cell probe over the ten `Ra`-lane cells of conv4x3w8 and dot1024x32
/// at 1024×1024 timed batches of 1, 4, 8, 16 and 32 epochs: time fell up
/// to 16, and 32 gained 3% more at 1 000 epochs for twice the stage bytes
/// (DESIGN.md §"Lane staging").
pub(crate) const LANE_BATCH: usize = 16;

/// Row phases a partial class may stage: one byte-shift period over the
/// paper's 1024 rows. At 1024×1024 a phase costs 16 KiB (row vector and
/// lane counts, plus its weights at render), so the cap bounds a
/// `dot1024x32` phased stage at about 28 MiB, as measured (DESIGN.md
/// §"Lane staging").
pub(crate) const MAX_STAGE_KEYS: usize = 128;

impl LaneStage {
    /// The staging for `balance` at `dims`, for a walk of `cfg`'s
    /// iterations:
    ///
    /// - row phases without `Hw` when rows are periodic, lanes move and the
    ///   walk revisits a row phase: `St` rows have one phase (so one render
    ///   per class, whatever the lanes do), and `Ra` lanes under `Bs` rows
    ///   render once per phase instead of once per epoch, up to
    ///   [`MAX_STAGE_KEYS`] phases;
    /// - otherwise, under `Ra` lanes, whose sets never repeat, epoch
    ///   batches: one render pass per [`LANE_BATCH`] epochs;
    /// - otherwise lane-set keys, one per lane phase under `Bs` or `St`
    ///   lanes. A class meets at most one lane set per lane phase, so such
    ///   a stage never renders before it is read: a walked super-cycle is
    ///   all stage, which the analytic fold needs.
    ///
    /// Every staging is exact for any walk; the choice only sets how
    /// often and how a class renders.
    pub(crate) fn of(balance: BalanceConfig, dims: ArrayDims, cfg: &SimConfig) -> Self {
        let random_lanes = balance.col == Strategy::Random;
        let epochs = cfg.schedule.period().map_or(1, |p| cfg.iterations.div_ceil(p));
        // Row phases pay only when the configured walk revisits one.
        let row_period = if balance.hw { None } else { balance.row.epoch_period(dims.rows()) }
            .filter(|&period| period < epochs);
        match row_period {
            Some(1) if balance.col != Strategy::Static => LaneStage::RowPhases { period: 1 },
            Some(period) if random_lanes && period <= MAX_STAGE_KEYS as u64 => {
                LaneStage::RowPhases { period }
            }
            _ if random_lanes => LaneStage::EpochBatches,
            _ => LaneStage::LaneSets {
                keys: balance.col.epoch_period(dims.lanes()).map_or(1, |p| p as usize),
            },
        }
    }
}

/// One partial class's deposits under one key: a lane set, or a row phase.
#[derive(Debug, Default)]
struct Slot {
    /// The lane set's fingerprint, or the row phase.
    key: u64,
    /// Physical lanes, ascending: the key's lane set, or (row phases) the
    /// lanes with a nonzero count, gathered at render.
    lanes: Vec<usize>,
    /// The key's lane set as half-open runs of consecutive lanes, when it
    /// has few enough runs to render through a difference array; else
    /// empty.
    runs: Vec<(usize, usize)>,
    /// Row phases only: span-weighted occupancy per physical lane, and at
    /// render the nonzero counts in `lanes` order.
    counts: Vec<u64>,
    weights: Vec<u64>,
    /// Staged writes and reads per physical row; empty until booked.
    writes: Vec<u64>,
    reads: Vec<u64>,
}

/// A lane class that does not span every lane.
#[derive(Debug)]
struct PartialClass {
    logical: Vec<usize>,
    /// Physical lanes under the current permutation, ascending, and their
    /// fingerprint.
    lanes: Vec<usize>,
    fingerprint: u64,
    /// The slot this epoch's deposits go to, once booked.
    current: Option<usize>,
    slots: Vec<Slot>,
}

/// The half-open runs of consecutive lanes in an ascending lane set, if
/// there are at most a quarter as many runs as lanes (a byte-shifted block
/// has one or two); else none, and the set renders lane by lane.
fn lane_runs(lanes: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &lane in lanes {
        match runs.last_mut() {
            Some((_, end)) if *end == lane => *end += 1,
            _ => runs.push((lane, lane + 1)),
        }
        if 4 * runs.len() > lanes.len() {
            return Vec::new();
        }
    }
    runs
}

/// The `Ra`-lane stage ([`LaneStage::EpochBatches`]): up to [`LANE_BATCH`]
/// epochs, each booked under its own lane table, rendered in one
/// row-major pass.
///
/// The logical lanes that the same partial classes hold form one
/// *signature* (dot1024x32's nested prefix classes `[0, 2^k)` make ten,
/// conv4x3w8's disjoint stride-4 classes one each); each epoch maps every
/// signature through its permutation to a disjoint, ascending physical
/// lane list. A booked class adds its row vector into its column of the
/// epoch's counts, laid out so that one row's counts for the whole batch
/// are contiguous. The render gives each signature, per row and epoch,
/// the sum of the counts of the classes holding it, and adds that once per
/// lane of its list: the same u64 sum as one add per (class, lane),
/// reordered, with one add per lane.
#[derive(Debug)]
struct EpochBatch {
    /// The write counts, then the read counts.
    planes: [BatchPlane; 2],
    /// Signature `s` holds logical lanes `logical[ends[s - 1]..ends[s]]`
    /// (from 0 for the first).
    logical: Vec<u32>,
    ends: Vec<u32>,
    /// Each staged epoch's signatures as physical lanes, ascending within
    /// each signature: `logical.len()` per epoch.
    lanes: Vec<u32>,
    /// Epochs staged, and whether the last still takes deposits (its lane
    /// table is the current one).
    staged: usize,
    open: bool,
    /// Per (staged epoch, partial class), at `epoch × classes + class`:
    /// whether the class deposited, one (class, lane table) render each.
    deposited: Vec<bool>,
    classes: usize,
    /// Render scratch: one entry per signature.
    palette: Vec<u64>,
}

/// One plane's columns and counts in an [`EpochBatch`].
#[derive(Debug, Default)]
struct BatchPlane {
    /// Partial class → its column, when it deposits in this plane.
    column: Vec<Option<usize>>,
    /// Columns per (row, epoch).
    width: usize,
    /// Per signature, the columns of the classes holding it.
    signature_columns: Vec<Vec<usize>>,
    /// Counts at `(row × LANE_BATCH + epoch) × width + column`.
    counts: Vec<u64>,
}

impl EpochBatch {
    /// The stage for the trace's partial classes, in trace order: a class
    /// takes a write column if some step writes it, and a read column if
    /// some step reads it and reads are tracked.
    fn new(trace: &Trace, track_reads: bool) -> Self {
        let (rows, lanes) = (trace.dims().rows(), trace.dims().lanes());
        let mut deposits = [vec![false; trace.classes().len()], vec![false; trace.classes().len()]];
        for step in trace.steps() {
            if let Some(class) = step.written_class() {
                deposits[0][class] = true;
            }
            if let Some(class) = step.read_class().filter(|_| track_reads) {
                deposits[1][class] = true;
            }
        }
        let partial: Vec<(usize, &LaneSet)> =
            trace.classes().iter().enumerate().filter(|(_, c)| c.count() < lanes).collect();
        let mut planes = deposits.map(|deposits| {
            let mut plane = BatchPlane::default();
            for &(class, _) in &partial {
                plane.column.push(deposits[class].then_some(plane.width));
                plane.width += usize::from(deposits[class]);
            }
            plane.counts = vec![0; rows * LANE_BATCH * plane.width];
            plane
        });
        // Each lane's signature: the depositing partial classes holding it.
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for (p, (_, set)) in partial.iter().enumerate() {
            if planes.iter().any(|plane| plane.column[p].is_some()) {
                for lane in set.iter() {
                    holders[lane].push(p);
                }
            }
        }
        let mut signatures: BTreeMap<&[usize], Vec<u32>> = BTreeMap::new();
        for (lane, classes) in holders.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
            signatures.entry(classes).or_default().push(lane as u32);
        }
        let (mut logical, mut ends) = (Vec::new(), Vec::new());
        for (classes, lanes) in signatures {
            logical.extend(lanes);
            ends.push(logical.len() as u32);
            for plane in &mut planes {
                let columns = classes.iter().filter_map(|&p| plane.column[p]).collect();
                plane.signature_columns.push(columns);
            }
        }
        EpochBatch {
            planes,
            palette: vec![0; ends.len()],
            lanes: Vec::with_capacity(LANE_BATCH * logical.len()),
            logical,
            ends,
            staged: 0,
            open: false,
            deposited: vec![false; LANE_BATCH * partial.len()],
            classes: partial.len(),
        }
    }

    /// Starts staging an epoch under lane permutation `perm`.
    fn open_epoch(&mut self, perm: &[usize]) {
        debug_assert!(self.staged < LANE_BATCH, "a full batch renders before it opens an epoch");
        let start = self.lanes.len();
        self.lanes.extend(self.logical.iter().map(|&lane| perm[lane as usize] as u32));
        let mut from = start;
        for &end in &self.ends {
            let to = start + end as usize;
            // Ascending lanes walk each row front to back when rendered.
            self.lanes[from..to].sort_unstable();
            from = to;
        }
        self.staged += 1;
        self.open = true;
    }

    /// Adds `deposits` to partial class `p`'s counts in the open epoch
    /// (writes, or reads when `reads`). The caller books only a class with
    /// a nonempty support.
    fn book(&mut self, p: usize, deposits: &Deposits<'_>, reads: bool) {
        let plane = &mut self.planes[usize::from(reads)];
        let column = plane.column[p].expect("a class no step touches deposited");
        assert!(self.open, "an epoch booked before its lane table was set");
        let (epoch, width) = (self.staged - 1, plane.width);
        deposits.add_into(&mut plane.counts, |row| (row * LANE_BATCH + epoch) * width + column);
        self.deposited[epoch * self.classes + p] = true;
    }

    /// Whether a staged epoch holds a deposit.
    fn holds_deposits(&self) -> bool {
        self.deposited.iter().any(|&d| d)
    }

    /// Renders every staged epoch into `wear` in one row-major pass per
    /// plane and empties the batch; returns its (class, lane table)
    /// renders.
    fn render(&mut self, wear: &mut WearMap) -> u64 {
        let epoch_lanes = self.logical.len();
        for (reads, plane) in self.planes.iter_mut().enumerate().filter(|(_, p)| p.width > 0) {
            let width = plane.width;
            for (row, block) in plane.counts.chunks_exact_mut(LANE_BATCH * width).enumerate() {
                let epochs = block[..self.staged * width].chunks_exact_mut(width);
                for (epoch, counts) in epochs.enumerate().filter(|(_, c)| c.iter().any(|&c| c > 0))
                {
                    for (entry, columns) in self.palette.iter_mut().zip(&plane.signature_columns) {
                        *entry = columns.iter().map(|&c| counts[c]).sum();
                    }
                    let lanes = &self.lanes[epoch * epoch_lanes..][..epoch_lanes];
                    wear.add_row_groups(row, lanes, &self.ends, &self.palette, reads == 1);
                    counts.fill(0);
                }
            }
        }
        self.lanes.clear();
        (self.staged, self.open) = (0, false);
        let renders = self.deposited.iter().filter(|&&d| d).count() as u64;
        self.deposited.fill(false);
        renders
    }
}

/// One class's deposits in one epoch: `deltas[i] × scale` at physical row
/// `rows[i]` for each `i` in `support`. A software epoch's support is the
/// rows its logical panel counts, ascending; a `+Hw` epoch's folded totals
/// are dense, so it passes every row, or none for a class the kernel never
/// touches in that plane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deposits<'a> {
    pub(crate) rows: &'a [usize],
    pub(crate) deltas: &'a [u64],
    pub(crate) support: &'a [usize],
    pub(crate) scale: u64,
}

impl Deposits<'_> {
    /// The one booking loop: adds each deposit at `staged[at(row)]`.
    fn add_into(&self, staged: &mut [u64], at: impl Fn(usize) -> usize) {
        for &i in self.support {
            staged[at(self.rows[i])] += self.deltas[i] * self.scale;
        }
    }
}

/// FNV-1a over a sorted lane set.
fn lane_set_key(lanes: &[usize]) -> u64 {
    lanes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &lane| {
        (h ^ lane as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Row-space wear staging shared by every per-epoch path: the simulator's
/// compiled `+Hw` path and the analytic engine's epoch walker.
///
/// An epoch books its deposits per (lane class, physical row) in O(rows);
/// lanes are rendered only when the wear map needs them. This is exact
/// because wear is `Σ_class Σ_epoch (T_e·v_c) ⊗ P_e(1_c)` and `P_e(1_c)`
/// is all ones for a class spanning every lane under any lane permutation
/// `P_e`: such classes share one row vector, rendered as contiguous
/// full-row adds only at a read ([`RowAccumulator::flush`] or
/// [`RowAccumulator::finish`]), however many permutations its deposits
/// were booked under. A partial class stages per [`LaneStage`] key — its
/// lane set, or the row phase — and each (class, key) renders once, at a
/// read or when a class runs out of keys. Under `Ra` lanes the partial
/// classes stage whole epochs instead, up to [`LANE_BATCH`] of them, and
/// render them together ([`EpochBatch`]). Every render is one row-major
/// pass over the plane through the wear map's own adders, so its running
/// sums (and every conservation assert built on them) stay exact.
#[derive(Debug)]
pub(crate) struct RowAccumulator {
    stage: LaneStage,
    /// Class → 0 for a full-lane class, else 1 + its index in `partial`.
    bucket: Vec<usize>,
    /// Every full-lane class's staged writes (and reads) per physical row.
    full_writes: Vec<u64>,
    full_reads: Option<Vec<u64>>,
    partial: Vec<PartialClass>,
    /// The partial classes' epochs under [`LaneStage::EpochBatches`], which
    /// keeps no per-class slots.
    batch: Option<EpochBatch>,
    /// The lane permutation the partial classes' `lanes` (or the open
    /// batch epoch's lane table) were resolved under.
    perm: Vec<usize>,
    /// The current epoch's row phase and span (row-phase staging).
    phase: u64,
    span: u64,
    /// Zeroed row vectors from rendered slots.
    spare_rows: Vec<Vec<u64>>,
    /// Render scratch: a difference array per plane (empty until a
    /// run-shaped slot renders).
    diff: [Vec<u64>; 2],
    /// (Class, key) renders since the last
    /// [`RowAccumulator::take_lane_renders`].
    lane_renders: u64,
    /// Kernel-epoch scratch: one class's folded per-slot totals, the
    /// support they are booked through (every row, built at the first
    /// kernel epoch), and the relabeled arrangement (B = A₀ ∘ T', advanced
    /// in place).
    totals: Vec<u64>,
    every_row: Vec<usize>,
    arrangement: Vec<usize>,
    cycle_scratch: Vec<usize>,
}

impl RowAccumulator {
    pub(crate) fn new(trace: &Trace, track_reads: bool, stage: LaneStage) -> Self {
        let (rows, lanes) = (trace.dims().rows(), trace.dims().lanes());
        let mut bucket = Vec::new();
        let mut partial = Vec::new();
        for class in trace.classes() {
            if class.count() == lanes {
                bucket.push(0);
            } else {
                partial.push(PartialClass {
                    logical: class.iter().collect(),
                    lanes: Vec::new(),
                    fingerprint: 0,
                    current: None,
                    slots: Vec::new(),
                });
                bucket.push(partial.len());
            }
        }
        let batch = (stage == LaneStage::EpochBatches).then(|| EpochBatch::new(trace, track_reads));
        RowAccumulator {
            stage,
            bucket,
            full_writes: vec![0; rows],
            full_reads: track_reads.then(|| vec![0; rows]),
            partial,
            batch,
            perm: Vec::new(),
            phase: 0,
            span: 0,
            spare_rows: Vec::new(),
            diff: [Vec::new(), Vec::new()],
            lane_renders: 0,
            totals: vec![0; rows],
            every_row: Vec::new(),
            arrangement: Vec::new(),
            cycle_scratch: Vec::new(),
        }
    }

    /// A zeroed cumulative map for this stage's partial classes to render
    /// into: a recycled plane, or one whose pages are faulted in by writing
    /// them ([`WearMap::prefaulted`]; DESIGN.md §"Answers take the
    /// walker's plane"). `None` without
    /// partial classes: nothing renders before the answer, which allocates
    /// its plane then.
    pub(crate) fn zeroed_map(&self, dims: ArrayDims) -> Option<WearMap> {
        (!self.partial.is_empty()).then(|| WearMap::prefaulted(dims))
    }

    /// The full-lane bucket's staged row writes (and reads), when they hold
    /// all of the stage's wear: nothing rendered and no partial class
    /// staged. Every cell of row `r` of the answer then holds `writes[r]`,
    /// so a lifetime-only answer reads its hottest cell and totals here,
    /// with no cell plane.
    pub(crate) fn full_lane_rows(&self) -> Option<(&[u64], Option<&[u64]>)> {
        let staged = self.partial.iter().any(|c| !c.slots.is_empty())
            || self.batch.as_ref().is_some_and(EpochBatch::holds_deposits);
        (self.lane_renders == 0 && !staged)
            .then(|| (&self.full_writes[..], self.full_reads.as_deref()))
    }

    /// Resolves every partial class's physical lanes under `perm`, if it
    /// differs from the permutation they were resolved under; returns
    /// whether it did.
    fn resolve_lanes(&mut self, perm: &[usize]) -> bool {
        if self.perm == perm {
            return false;
        }
        self.perm.clear();
        self.perm.extend_from_slice(perm);
        for class in &mut self.partial {
            class.lanes.clear();
            class.lanes.extend(class.logical.iter().map(|&l| perm[l]));
            // Ascending lanes walk each row front to back when rendered.
            class.lanes.sort_unstable();
            class.fingerprint = lane_set_key(&class.lanes);
        }
        true
    }

    /// Declares the lane permutation the next deposits are booked under
    /// (lane-set staging or epoch batches). Under lane-set keys each
    /// partial class's deposits go to the slot keyed by its new physical
    /// lane set; if a class has no such slot and already holds its `keys`,
    /// every staged partial class renders into `wear` first. Under epoch
    /// batches a new permutation (or a first epoch after a render) opens
    /// an epoch, rendering a full batch into `wear` first.
    ///
    /// # Panics
    ///
    /// Panics if the stage must render and `wear` is `None` (a walker with
    /// no plane yet).
    pub(crate) fn set_lanes(&mut self, perm: &[usize], wear: Option<&mut WearMap>) {
        if self.partial.is_empty() {
            // Every class spans every lane: no permutation changes a deposit.
            return;
        }
        if let Some(batch) = &mut self.batch {
            if self.perm != perm {
                self.perm.clear();
                self.perm.extend_from_slice(perm);
                batch.open = false;
            }
            if !batch.open {
                if batch.staged == LANE_BATCH {
                    let wear = wear.expect("a partial class rendered before its plane existed");
                    self.lane_renders += batch.render(wear);
                }
                batch.open_epoch(&self.perm);
            }
            return;
        }
        let LaneStage::LaneSets { keys } = self.stage else {
            unreachable!("set_lanes under row-phase staging");
        };
        if !self.resolve_lanes(perm) {
            return;
        }
        let mut full = false;
        for class in &mut self.partial {
            let (key, lanes) = (class.fingerprint, &class.lanes);
            class.current = class.slots.iter().position(|s| s.key == key && s.lanes == *lanes);
            full |= class.current.is_none() && class.slots.len() >= keys;
        }
        if full {
            self.render_partial(wear.expect("a partial class rendered before its plane existed"));
        }
    }

    /// Declares the lane permutation and row phase of the next epoch of
    /// `span` iterations (row-phase staging): a partial class already
    /// staged under `phase` adds `span` to the count of each lane it now
    /// occupies, and its booking this epoch is a no-op.
    pub(crate) fn set_row_phase(&mut self, perm: &[usize], phase: u64, span: u64) {
        debug_assert!(matches!(self.stage, LaneStage::RowPhases { period } if phase < period));
        self.resolve_lanes(perm);
        (self.phase, self.span) = (phase, span);
        for class in &mut self.partial {
            class.current = class.slots.iter().position(|s| s.key == phase);
            if let Some(slot) = class.current.map(|i| &mut class.slots[i]) {
                for &lane in &class.lanes {
                    slot.counts[lane] += span;
                }
            }
        }
    }

    /// Books `deposits` for `class` (writes, or reads when `reads` is set),
    /// touching only the rows of their support: a class with an empty
    /// support books nothing. Under row-phase staging a partial class books
    /// its phase's deltas once, at unit scale, and the deposits' scale (the
    /// epoch's span) goes to its lane counts instead.
    pub(crate) fn book(&mut self, class: usize, deposits: &Deposits<'_>, reads: bool) {
        debug_assert_eq!(
            deposits.rows.len(),
            deposits.deltas.len(),
            "row table and deltas disagree"
        );
        if deposits.support.is_empty() {
            return;
        }
        let bucket = self.bucket[class];
        if bucket == 0 {
            let staged = if reads {
                self.full_reads.as_mut().expect("accumulator built without read tracking")
            } else {
                &mut self.full_writes
            };
            deposits.add_into(staged, |row| row);
            return;
        }
        if let Some(batch) = &mut self.batch {
            batch.book(bucket - 1, deposits, reads);
            return;
        }
        let phased = matches!(self.stage, LaneStage::RowPhases { .. });
        let class = &mut self.partial[bucket - 1];
        let slot = match class.current {
            Some(i) => &mut class.slots[i],
            None => {
                let mut slot = Slot { key: class.fingerprint, ..Slot::default() };
                if phased {
                    debug_assert_eq!(
                        deposits.scale, self.span,
                        "booked at another span than declared"
                    );
                    slot.key = self.phase;
                    let lanes = self.perm.len();
                    slot.counts = vec![0; lanes];
                    for &lane in &class.lanes {
                        slot.counts[lane] += deposits.scale;
                    }
                } else {
                    slot.lanes.extend_from_slice(&class.lanes);
                    slot.runs = lane_runs(&slot.lanes);
                }
                class.current = Some(class.slots.len());
                class.slots.push(slot);
                class.slots.last_mut().expect("pushed above")
            }
        };
        let staged = if reads { &mut slot.reads } else { &mut slot.writes };
        if phased && !staged.is_empty() {
            // Booked at an earlier epoch of this phase.
            return;
        }
        if staged.is_empty() {
            let rows = self.full_writes.len();
            *staged = self.spare_rows.pop().unwrap_or_else(|| vec![0; rows]);
        }
        let scale = if phased { 1 } else { deposits.scale };
        Deposits { scale, ..*deposits }.add_into(staged, |row| row);
    }

    /// Folds one epoch of `span` iterations of `kernel` into the stage and
    /// advances the map's renaming state, bit-identically to `span` step
    /// replays once the stage is flushed. The kernel is relabeled through
    /// the map's current software row table (module docs, step 2).
    ///
    /// # Panics
    ///
    /// Panics if the map is not dynamic, or as
    /// [`RowAccumulator::set_lanes`].
    pub(crate) fn apply_kernel_epoch(
        &mut self,
        kernel: &WearKernel,
        map: &mut CombinedMap,
        span: u64,
        wear: Option<&mut WearMap>,
    ) {
        self.set_lanes(map.lane_permutation(), wear);
        let start = map.hw().expect("compiled path requires a dynamic map").arrangement();
        let table = map.sw_row_table();
        let spare = start.len() - 1;
        // B = A₀ ∘ T': slot t of the identity kernel lands at B[t].
        let mut relabeled = std::mem::take(&mut self.arrangement);
        relabeled.clear();
        relabeled.extend(table.iter().map(|&t| start[t]));
        relabeled.push(start[spare]);
        let mut totals = std::mem::take(&mut self.totals);
        let mut every_row = std::mem::take(&mut self.every_row);
        if every_row.is_empty() {
            every_row.extend(0..totals.len());
        }
        for class in 0..kernel.classes() {
            if !kernel.is_write_free(class) {
                kernel.fold_epoch_into(span, kernel.slot_writes(class), &mut totals);
                let deposits =
                    Deposits { rows: &relabeled, deltas: &totals, support: &every_row, scale: 1 };
                self.book(class, &deposits, false);
            }
            if let Some(reads) = kernel.slot_reads(class).filter(|_| !kernel.is_read_free(class)) {
                kernel.fold_epoch_into(span, reads, &mut totals);
                let deposits =
                    Deposits { rows: &relabeled, deltas: &totals, support: &every_row, scale: 1 };
                self.book(class, &deposits, true);
            }
        }
        self.every_row = every_row;
        // A_end[T'(x)] = (B ∘ E^span)[x], written back over A₀'s buffer.
        kernel.advance_arrangement(span, &mut relabeled, &mut self.cycle_scratch);
        let mut end = start;
        for (&t, &row) in table.iter().zip(&relabeled) {
            end[t] = row;
        }
        end[spare] = relabeled[spare];
        let hw = map.hw_mut().expect("compiled path requires a dynamic map");
        hw.set_arrangement(&end);
        hw.add_redirects(span * kernel.redirects_per_iteration());
        (self.arrangement, self.totals) = (relabeled, totals);
    }

    /// Renders every staged deposit into `wear` and empties the stage.
    pub(crate) fn flush(&mut self, wear: &mut WearMap) {
        self.render_partial(wear);
        for (row, &count) in self.full_writes.iter().enumerate().filter(|&(_, &c)| c > 0) {
            wear.add_full_row_writes(row, count);
        }
        self.full_writes.fill(0);
        if let Some(reads) = &mut self.full_reads {
            for (row, &count) in reads.iter().enumerate().filter(|&(_, &c)| c > 0) {
                wear.add_full_row_reads(row, count);
            }
            reads.fill(0);
        }
    }

    /// The analytic walker's answer: renders the staged partial classes
    /// into `wear`, the walker's cumulative map, then adds the full-lane
    /// bucket in place in one fused pass that also sets the map's maximum
    /// ([`WearMap::add_full_rows`]). The map becomes the answer, so the
    /// stage is spent; returns its (class, key) renders.
    pub(crate) fn finish(mut self, wear: &mut WearMap) -> u64 {
        self.render_partial(wear);
        wear.add_full_rows(&self.full_writes, self.full_reads.as_deref());
        self.lane_renders
    }

    /// Moves this stage, a walk from the seed shorter than `cycle`, `k`
    /// whole super-cycles later: each staged row `r` moves to `Fᵏ[r]`, and
    /// `Σ_{i<k} Fⁱ(cycle)` merges in key by key, where `cycle` is the stage
    /// of one super-cycle and `f` the arrangement `F` it ends in (`analytic`
    /// module docs). This stage's keys are among `cycle`'s, as its epochs
    /// book what `cycle`'s first ones did. The full-lane bucket and each
    /// lane-set key fold their row vector over `F`'s cycles (`k ×` it when
    /// `F` is the identity). Row phases occur only then, and scale their
    /// lane counts instead of their once-booked row vectors. O(rows ×
    /// staged vectors) for any `k`; nothing renders until
    /// [`RowAccumulator::finish`].
    pub(crate) fn fold_cycles(&mut self, cycle: &RowAccumulator, f: &PermFolder, k: u64) {
        // A stage that rendered a key has wear outside its vectors; `Ra`
        // lanes have no super-cycle.
        assert_eq!(self.lane_renders + cycle.lane_renders, 0, "a folded stage rendered early");
        assert!(self.batch.is_none(), "epoch batches do not fold");
        let rows = self.full_writes.len();
        let sources: Vec<&Vec<u64>> = cycle.scaled_rows().collect();
        let fk = f.power(k);
        let (mut column, mut moved, mut folded) = (0, vec![0; rows], vec![0; rows]);
        // Replaces `staged` (this stage's vector, or empty) by itself moved
        // through `Fᵏ` plus the next source, folded; the swap hands its old
        // buffer, `rows` long, back as scratch.
        let mut add = |staged: &mut Vec<u64>| {
            moved.fill(0);
            for (&count, &to) in staged.iter().zip(&fk) {
                moved[to] = count;
            }
            f.fold_into(k, sources[column], &mut folded);
            for (count, &cycles) in moved.iter_mut().zip(&folded) {
                *count += cycles;
            }
            staged.resize(rows, 0);
            std::mem::swap(staged, &mut moved);
            column += 1;
        };
        add(&mut self.full_writes);
        if let Some(reads) = &mut self.full_reads {
            add(reads);
        }
        for (class, theirs) in self.partial.iter_mut().zip(&cycle.partial) {
            for slot in &theirs.slots {
                let at =
                    class.slots.iter().position(|s| s.key == slot.key && s.lanes == slot.lanes);
                let at = at.unwrap_or_else(|| {
                    let (key, lanes, runs) = (slot.key, slot.lanes.clone(), slot.runs.clone());
                    let counts = vec![0; slot.counts.len()];
                    class.slots.push(Slot { key, lanes, runs, counts, ..Slot::default() });
                    class.slots.len() - 1
                });
                let mine = &mut class.slots[at];
                let pairs = [(&mut mine.writes, &slot.writes), (&mut mine.reads, &slot.reads)];
                if slot.counts.is_empty() {
                    for (staged, _) in pairs.into_iter().filter(|(_, theirs)| !theirs.is_empty()) {
                        add(staged);
                    }
                    continue;
                }
                // The phase's row vector, booked once by either walk.
                for (count, &theirs) in mine.counts.iter_mut().zip(&slot.counts) {
                    *count += k * theirs;
                }
                for (staged, theirs) in pairs {
                    staged.clone_from(theirs);
                }
            }
        }
    }

    /// The staged row vectors whose counts scale with the iterations
    /// booked: the full-lane bucket's, then each lane-set key's in class
    /// and slot order. A row phase's vector is booked once at unit scale,
    /// so it is not among them.
    fn scaled_rows(&self) -> impl Iterator<Item = &Vec<u64>> {
        let keys = self.partial.iter().flat_map(|c| &c.slots).filter(|s| s.counts.is_empty());
        std::iter::once(&self.full_writes)
            .chain(&self.full_reads)
            .chain(keys.flat_map(|s| [&s.writes, &s.reads]).filter(|v| !v.is_empty()))
    }

    /// (Class, key) renders since the last call (the `sim.lane_renders`
    /// counter): one per lane set or row phase a class deposited under.
    pub(crate) fn take_lane_renders(&mut self) -> u64 {
        std::mem::take(&mut self.lane_renders)
    }

    /// Renders every staged (class, key) into `wear` and empties the
    /// partial stage: lane-set keys and epoch batches in one row-major
    /// pass, so each cell row is rendered while it is cache-resident; row
    /// phases in one row-major pass per phase, so each pass's lane weights
    /// stay cache-resident too.
    fn render_partial(&mut self, wear: &mut WearMap) {
        if let Some(batch) = &mut self.batch {
            self.lane_renders += batch.render(wear);
        }
        let mut slots: Vec<Slot> = Vec::new();
        for class in &mut self.partial {
            class.current = None;
            slots.append(&mut class.slots);
        }
        if slots.is_empty() {
            return;
        }
        for slot in slots.iter_mut().filter(|s| !s.counts.is_empty()) {
            for (lane, &count) in slot.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
                slot.lanes.push(lane);
                slot.weights.push(count);
            }
        }
        if slots.iter().any(|s| !s.runs.is_empty()) && self.diff[0].is_empty() {
            let lanes = wear.dims().lanes();
            self.diff = [vec![0; lanes + 1], vec![0; lanes + 1]];
        }
        let phased = matches!(self.stage, LaneStage::RowPhases { .. });
        if phased {
            slots.sort_by_key(|s| s.key);
        }
        let mut rest = &slots[..];
        while let Some(first) = rest.first() {
            let len = if phased {
                rest.iter().take_while(|s| s.key == first.key).count()
            } else {
                rest.len()
            };
            let (pass, tail) = rest.split_at(len);
            render_pass(pass, self.full_writes.len(), &mut self.diff, wear);
            rest = tail;
        }
        self.lane_renders += slots.len() as u64;
        for slot in slots {
            for mut rows in [slot.writes, slot.reads].into_iter().filter(|v| !v.is_empty()) {
                rows.fill(0);
                self.spare_rows.push(rows);
            }
        }
    }
}

/// Renders `slots` into `wear` in one row-major pass. Run-shaped slots add
/// into a difference array per plane (`diff`, one entry past the last
/// lane, all zero between rows), which renders as one per-lane add per
/// row.
fn render_pass(slots: &[Slot], rows: usize, diff: &mut [Vec<u64>; 2], wear: &mut WearMap) {
    for row in 0..rows {
        let mut ran = [false; 2];
        for slot in slots {
            for (plane, staged) in [&slot.writes, &slot.reads].into_iter().enumerate() {
                let Some(&count) = staged.get(row).filter(|&&c| c > 0) else { continue };
                let reads = plane == 1;
                if !slot.runs.is_empty() {
                    for &(start, end) in &slot.runs {
                        diff[plane][start] = diff[plane][start].wrapping_add(count);
                        diff[plane][end] = diff[plane][end].wrapping_sub(count);
                    }
                    ran[plane] = true;
                } else if !slot.weights.is_empty() {
                    wear.add_row_weighted(row, &slot.lanes, &slot.weights, count, reads);
                } else if reads {
                    wear.add_row_reads(row, &slot.lanes, count);
                } else {
                    wear.add_row_writes(row, &slot.lanes, count);
                }
            }
        }
        for (plane, diff) in diff.iter_mut().enumerate().filter(|&(p, _)| ran[p]) {
            let lanes = diff.len() - 1;
            let mut running = 0u64;
            for d in diff.iter_mut() {
                running = running.wrapping_add(*d);
                *d = running;
            }
            wear.add_row_per_lane(row, &diff[..lanes], plane == 1);
            diff.fill(0);
        }
    }
}

/// Reusable compiled-replay state for one simulation run: the trace's one
/// kernel plus the row-space stage, so steady-state epochs allocate
/// nothing.
///
/// The kernel is shared through the global artifact store by content key
/// — the trace fingerprint, the architecture, and read tracking — so
/// sibling matrix cells and repeated runs skip the symbolic trace walk
/// entirely on a hit.
#[derive(Debug)]
pub(crate) struct HwKernelEngine {
    kernel: Arc<WearKernel>,
    /// The row-space stage; flush it before reading the wear map.
    pub(crate) rows: RowAccumulator,
}

impl HwKernelEngine {
    pub(crate) fn new(trace: &Trace, balance: BalanceConfig, cfg: &SimConfig) -> Self {
        let (arch, track_reads) = (cfg.arch, cfg.track_reads);
        let fp = artifacts::trace_fingerprint(trace);
        let mut ctx = StoreCtx::new(artifacts::global());
        let kernel = fetch(trace, arch, track_reads, fp, &mut ctx);
        let stage = LaneStage::of(balance, trace.dims(), cfg);
        HwKernelEngine { kernel, rows: RowAccumulator::new(trace, track_reads, stage) }
    }

    /// Folds one epoch of `span` iterations into the stage and advances the
    /// map's renaming state (see [`RowAccumulator::apply_kernel_epoch`]).
    ///
    /// # Panics
    ///
    /// Panics if the map is not dynamic.
    pub(crate) fn apply_epoch(&mut self, map: &mut CombinedMap, span: u64, wear: &mut WearMap) {
        self.rows.apply_kernel_epoch(&self.kernel, map, span, Some(wear));
    }
}

/// Fetches the trace's one kernel from the store behind `ctx`, compiling it
/// on a miss. `fp` is the trace's fingerprint.
pub(crate) fn fetch(
    trace: &Trace,
    arch: ArchStyle,
    track_reads: bool,
    fp: Fingerprint,
    ctx: &mut StoreCtx<'_>,
) -> Arc<WearKernel> {
    let key = artifacts::kernel_key(fp, arch, track_reads);
    ctx.get_or_build(ArtifactKind::Kernel, key, || {
        let kernel = compile(trace, arch, track_reads);
        let bytes = kernel.approx_bytes();
        (kernel, bytes)
    })
}

/// Symbolically replays one iteration under the identity software table: a
/// fresh remapper plays the hardware stage. Mirrors `Accumulator::replay`
/// operation for operation — in particular a gate redirects *before* its
/// input reads are tallied.
fn compile(trace: &Trace, arch: ArchStyle, track_reads: bool) -> WearKernel {
    let slots = trace.dims().rows();
    let lanes = trace.dims().lanes();
    let mut sym = HwRemapper::new(slots);
    let all_lanes: Vec<bool> = trace.classes().iter().map(|c| c.count() == lanes).collect();
    let writes_per_gate = arch.writes_per_gate();
    let n_classes = trace.classes().len();
    let mut slot_writes = vec![vec![0u64; slots]; n_classes];
    let mut slot_reads = track_reads.then(|| vec![vec![0u64; slots]; n_classes]);
    for step in trace.steps() {
        match *step {
            Step::Write { row, class, .. } => {
                slot_writes[class][sym.lookup(row)] += 1;
            }
            Step::Read { row, class } => {
                if let Some(reads) = &mut slot_reads {
                    reads[class][sym.lookup(row)] += 1;
                }
            }
            Step::Gate { kind, ins, out, class } => {
                let slot = if all_lanes[class] { sym.redirect(out) } else { sym.lookup(out) };
                slot_writes[class][slot] += writes_per_gate;
                if let Some(reads) = &mut slot_reads {
                    reads[class][sym.lookup(ins[0])] += 1;
                    if kind.arity() == 2 {
                        reads[class][sym.lookup(ins[1])] += 1;
                    }
                }
            }
            Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                slot_writes[dst_class][sym.lookup(dst_row)] += 1;
                if let Some(reads) = &mut slot_reads {
                    reads[src_class][sym.lookup(src_row)] += 1;
                }
            }
        }
    }
    let redirects = sym.redirects();
    WearKernel::new(slot_writes, slot_reads, sym.arrangement(), redirects)
}

#[cfg(test)]
mod tests {
    use nvpim_workloads::convolution::Convolution;
    use nvpim_workloads::dot_product::DotProduct;

    use super::*;

    /// A xorshift stream for lane and row tables and deltas.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn permutation(&mut self, n: usize) -> Vec<usize> {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, self.below(i + 1));
            }
            perm
        }
    }

    /// Books `epochs` epochs of random lane and row tables and sparse
    /// deltas (writes and reads) into an epoch-batch stage, and renders
    /// each (class, epoch) booking straight into a reference map, lane by
    /// lane. Epoch 5 keeps epoch 4's lane table, so it books into the same
    /// staged epoch, and the stage is flushed after epoch 20, mid-batch.
    /// The rendered stage must equal the reference cell for cell, keep
    /// exact running sums, and count one render per (class, lane table)
    /// with deposits.
    fn assert_batches_match_per_slot_renders(trace: &Trace, epochs: usize) {
        let dims = trace.dims();
        let mut written = vec![false; trace.classes().len()];
        let mut read = vec![false; trace.classes().len()];
        for step in trace.steps() {
            if let Some(class) = step.written_class() {
                written[class] = true;
            }
            if let Some(class) = step.read_class() {
                read[class] = true;
            }
        }
        let mut stream = Stream(0x5eed_ba7c);
        let mut stage = RowAccumulator::new(trace, true, LaneStage::EpochBatches);
        let mut wear = stage.zeroed_map(dims).expect("partial classes render");
        let mut want = WearMap::new(dims);
        let (mut tables, mut renders) = (0, std::collections::BTreeSet::new());
        let mut perm = Vec::new();
        for epoch in 0..epochs {
            if epoch != 5 {
                perm = stream.permutation(dims.lanes());
                tables += 1;
            }
            stage.set_lanes(&perm, Some(&mut wear));
            let rows = stream.permutation(dims.rows());
            let scale = 1 + stream.below(4) as u64;
            for (class, set) in trace.classes().iter().enumerate() {
                for (reads, deposits) in [(false, written[class]), (true, read[class])] {
                    let deltas: Vec<u64> = (0..dims.rows())
                        .map(|_| {
                            if deposits && stream.below(3) == 0 {
                                stream.below(5) as u64
                            } else {
                                0
                            }
                        })
                        .collect();
                    let support: Vec<usize> = (0..dims.rows()).filter(|&r| deltas[r] > 0).collect();
                    let deposits =
                        Deposits { rows: &rows, deltas: &deltas, support: &support, scale };
                    stage.book(class, &deposits, reads);
                    let lanes: Vec<usize> = set.iter().map(|l| perm[l]).collect();
                    for (&row, &delta) in rows.iter().zip(&deltas).filter(|(_, &d)| d > 0) {
                        if reads {
                            want.add_row_reads(row, &lanes, delta * scale);
                        } else {
                            want.add_row_writes(row, &lanes, delta * scale);
                        }
                    }
                    if set.count() < dims.lanes() && deltas.iter().any(|&d| d > 0) {
                        renders.insert((class, tables));
                    }
                }
            }
            if epoch == 20 {
                stage.flush(&mut wear);
            }
        }
        assert_eq!(stage.finish(&mut wear), renders.len() as u64, "one render per (class, table)");
        for row in 0..dims.rows() {
            assert_eq!(wear.row_writes(row), want.row_writes(row), "writes of row {row}");
            for lane in 0..dims.lanes() {
                assert_eq!(
                    wear.reads_at(row, lane),
                    want.reads_at(row, lane),
                    "reads ({row},{lane})"
                );
            }
        }
        assert_eq!(wear.total_writes(), wear.recount_writes());
        assert_eq!(wear.total_reads(), wear.recount_reads());
        assert_eq!(
            (wear.total_writes(), wear.total_reads()),
            (want.total_writes(), want.total_reads())
        );
        assert_eq!(wear.max_writes(), wear.recount_max_writes());
    }

    #[test]
    fn batched_renders_match_per_slot_renders_for_nested_classes() {
        // dot-104x24 over 16 elements: nested prefix classes [0, 2^k),
        // the senders [2^k, 2^(k+1)) that are only read, and lanes 16..24
        // that only the full-lane class holds. 37 epochs fill two batches
        // and end in a partial one.
        let wl = DotProduct::new(ArrayDims::new(104, 24), 16, 8).build();
        assert_batches_match_per_slot_renders(wl.trace(), 37);
    }

    #[test]
    fn batched_renders_match_per_slot_renders_for_disjoint_classes() {
        // conv-640x16: four disjoint stride-4 classes, one written.
        let wl = Convolution::new(ArrayDims::new(640, 16), 4, 3, 8).build();
        assert_batches_match_per_slot_renders(wl.trace(), 37);
    }
}
