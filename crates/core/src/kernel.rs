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
//! Lanes are rendered into the wear map only when the lane table changes
//! or the map is read ([`RowAccumulator`]): a class spanning every lane
//! once per read as full-row adds, a partial class once per lane-table
//! change or read (once per run for `St` lanes). The analytic engine's
//! epoch walker stages its epochs through the same accumulator.

use std::sync::Arc;

use nvpim_array::{ArchStyle, ArrayDims, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{CombinedMap, HwRemapper};

use crate::artifacts::{self, ArtifactKind, Fingerprint, StoreCtx};

/// Row-space wear staging shared by every per-epoch path: the simulator's
/// compiled `+Hw` path and the analytic engine's epoch walker.
///
/// An epoch books its deposits per (lane class, physical row) in O(rows);
/// lanes are rendered only when the wear map needs them. This is exact
/// because wear is `Σ_class Σ_epoch (T_e·v_c) ⊗ P_e(1_c)` and `P_e(1_c)`
/// is all ones for a class spanning every lane under any lane permutation
/// `P_e`: such classes share one bucket, rendered as contiguous full-row
/// adds only at a read ([`RowAccumulator::flush`],
/// [`RowAccumulator::finish`] or [`RowAccumulator::staged`]), however
/// many permutations its deposits were booked under. A partial class is
/// rendered under the permutation its deposits were booked under — when
/// [`RowAccumulator::set_lanes`] sees the permutation change, or at a
/// read. Every render goes through
/// the wear map's own adders or fused passes, so its running sums (and
/// every conservation assert built on them) stay exact.
#[derive(Debug)]
pub(crate) struct RowAccumulator {
    /// Class → bucket: every full-lane class shares bucket 0, each partial
    /// class owns one of the rest.
    bucket: Vec<usize>,
    /// Per bucket: logical lanes, and physical lanes under `perm` (both
    /// empty for the full bucket).
    logical: Vec<Vec<usize>>,
    physical: Vec<Vec<usize>>,
    /// Per bucket: staged writes (and reads, when tracked) per physical row.
    writes: Vec<Vec<u64>>,
    reads: Option<Vec<Vec<u64>>>,
    /// The lane permutation the staged partial deposits were booked under.
    perm: Vec<usize>,
    partial_pending: bool,
    /// Partial-class renders since the last [`RowAccumulator::take_lane_renders`].
    lane_renders: u64,
    /// Kernel-epoch scratch: one class's folded per-slot totals, and the
    /// relabeled arrangement (B = A₀ ∘ T', advanced in place).
    totals: Vec<u64>,
    arrangement: Vec<usize>,
    cycle_scratch: Vec<usize>,
}

impl RowAccumulator {
    pub(crate) fn new(trace: &Trace, track_reads: bool) -> Self {
        let (rows, lanes) = (trace.dims().rows(), trace.dims().lanes());
        let mut bucket = Vec::new();
        let mut logical = vec![Vec::new()];
        for class in trace.classes() {
            if class.count() == lanes {
                bucket.push(0);
            } else {
                bucket.push(logical.len());
                logical.push(class.iter().collect());
            }
        }
        RowAccumulator {
            bucket,
            physical: vec![Vec::new(); logical.len()],
            writes: vec![vec![0; rows]; logical.len()],
            reads: track_reads.then(|| vec![vec![0; rows]; logical.len()]),
            logical,
            perm: Vec::new(),
            partial_pending: false,
            lane_renders: 0,
            totals: vec![0; rows],
            arrangement: Vec::new(),
            cycle_scratch: Vec::new(),
        }
    }

    /// A zeroed cumulative map for this stage to render into. With partial
    /// classes its write plane is zeroed by writing it, so each page is
    /// first touched by a write fault here instead of by a read fault and
    /// then a copy-on-write fault in the first render (DESIGN.md §"Answers
    /// take the walker's plane"). Without them nothing renders into the
    /// plane before the full-lane bucket writes its rows.
    pub(crate) fn zeroed_map(&self, dims: ArrayDims) -> WearMap {
        if self.logical.len() == 1 {
            return WearMap::new(dims);
        }
        // An opaque zero keeps the compiler from turning the fill into a
        // zeroed allocation, which would leave the pages untouched.
        let mut writes = Vec::with_capacity(dims.cells());
        writes.resize(dims.cells(), std::hint::black_box(0));
        WearMap::from_planes(dims, writes, Vec::new())
    }

    /// Declares the lane permutation the next deposits are booked under.
    /// If it differs from the one staged partial deposits were booked
    /// under, those are rendered into `wear` first.
    pub(crate) fn set_lanes(&mut self, perm: &[usize], wear: &mut WearMap) {
        if self.perm == perm {
            return;
        }
        self.render_partial(wear);
        self.perm.clear();
        self.perm.extend_from_slice(perm);
        for (physical, logical) in self.physical.iter_mut().zip(&self.logical) {
            physical.clear();
            physical.extend(logical.iter().map(|&l| perm[l]));
            // Ascending lanes walk each row front to back when rendered.
            physical.sort_unstable();
        }
    }

    /// Books `deltas[i] × scale` at physical row `rows[i]` for `class`
    /// (writes, or reads when `reads` is set).
    pub(crate) fn book(
        &mut self,
        class: usize,
        rows: &[usize],
        deltas: &[u64],
        scale: u64,
        reads: bool,
    ) {
        debug_assert_eq!(rows.len(), deltas.len(), "row table and deltas disagree");
        let bucket = self.bucket[class];
        let staged = if reads {
            &mut self.reads.as_mut().expect("accumulator built without read tracking")[bucket]
        } else {
            &mut self.writes[bucket]
        };
        for (&row, &delta) in rows.iter().zip(deltas) {
            staged[row] += delta * scale;
        }
        self.partial_pending |= bucket != 0;
    }

    /// Folds one epoch of `span` iterations of `kernel` into the stage and
    /// advances the map's renaming state, bit-identically to `span` step
    /// replays once the stage is flushed. The kernel is relabeled through
    /// the map's current software row table (module docs, step 2).
    ///
    /// # Panics
    ///
    /// Panics if the map is not dynamic.
    pub(crate) fn apply_kernel_epoch(
        &mut self,
        kernel: &WearKernel,
        map: &mut CombinedMap,
        span: u64,
        wear: &mut WearMap,
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
        for class in 0..kernel.classes() {
            kernel.fold_epoch_into(span, kernel.slot_writes(class), &mut totals);
            self.book(class, &relabeled, &totals, 1, false);
            if let Some(reads) = kernel.slot_reads(class) {
                kernel.fold_epoch_into(span, reads, &mut totals);
                self.book(class, &relabeled, &totals, 1, true);
            }
        }
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
        self.render_full(wear);
        self.writes[0].fill(0);
        if let Some(reads) = &mut self.reads {
            reads[0].fill(0);
        }
    }

    /// The analytic walker's answer: renders the staged partial classes
    /// into `wear`, the walker's cumulative map, then adds the full-lane
    /// bucket in place in one fused pass that also sets the map's maximum
    /// ([`WearMap::add_full_rows`]). The map becomes the answer, so the
    /// stage is spent; returns its partial-class renders.
    pub(crate) fn finish(mut self, wear: &mut WearMap) -> u64 {
        self.render_partial(wear);
        wear.add_full_rows(&self.writes[0], self.reads.as_ref().map(|reads| &reads[0][..]));
        self.lane_renders
    }

    /// Renders the staged partial classes into `wear` and returns the
    /// full-lane bucket's per-row writes (and reads), which stay staged: the
    /// wear so far is `wear` plus those rows across every lane.
    pub(crate) fn staged(&mut self, wear: &mut WearMap) -> (&[u64], Option<&[u64]>) {
        self.render_partial(wear);
        (&self.writes[0], self.reads.as_ref().map(|reads| &reads[0][..]))
    }

    fn render_full(&self, wear: &mut WearMap) {
        for (row, &count) in self.writes[0].iter().enumerate().filter(|&(_, &c)| c > 0) {
            wear.add_full_row_writes(row, count);
        }
        let reads = self.reads.iter().flat_map(|reads| reads[0].iter().enumerate());
        for (row, &count) in reads.filter(|&(_, &c)| c > 0) {
            wear.add_full_row_reads(row, count);
        }
    }

    /// Partial-class renders since the last call (the `sim.lane_renders`
    /// counter): one per partial class per lane-table change or read.
    pub(crate) fn take_lane_renders(&mut self) -> u64 {
        std::mem::take(&mut self.lane_renders)
    }

    fn render_partial(&mut self, wear: &mut WearMap) {
        if !self.partial_pending {
            return;
        }
        // Row-major across classes, so each cell row is rendered while it
        // is cache-resident.
        for row in 0..self.writes[0].len() {
            for (bucket, lanes) in self.physical.iter().enumerate().skip(1) {
                let count = std::mem::take(&mut self.writes[bucket][row]);
                if count > 0 {
                    wear.add_row_writes(row, lanes, count);
                }
                if let Some(reads) = &mut self.reads {
                    let count = std::mem::take(&mut reads[bucket][row]);
                    if count > 0 {
                        wear.add_row_reads(row, lanes, count);
                    }
                }
            }
        }
        self.lane_renders += (self.physical.len() - 1) as u64;
        self.partial_pending = false;
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
    pub(crate) fn new(trace: &Trace, arch: ArchStyle, track_reads: bool) -> Self {
        let fp = artifacts::trace_fingerprint(trace);
        let mut ctx = StoreCtx::new(artifacts::global());
        let kernel = fetch(trace, arch, track_reads, fp, &mut ctx);
        HwKernelEngine { kernel, rows: RowAccumulator::new(trace, track_reads) }
    }

    /// Folds one epoch of `span` iterations into the stage and advances the
    /// map's renaming state (see [`RowAccumulator::apply_kernel_epoch`]).
    ///
    /// # Panics
    ///
    /// Panics if the map is not dynamic.
    pub(crate) fn apply_epoch(&mut self, map: &mut CombinedMap, span: u64, wear: &mut WearMap) {
        self.rows.apply_kernel_epoch(&self.kernel, map, span, wear);
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
