//! Physical operation traces: one workload iteration as executed by the
//! array.
//!
//! A [`Trace`] is the bridge between workload construction (which emits it in
//! *logical* row/lane coordinates) and execution: the endurance simulator
//! replays it under a load-balancing [`crate::AddressMap`], and
//! [`crate::PimArray`] replays it functionally to verify correctness.

use std::sync::OnceLock;

use nvpim_logic::GateKind;

use crate::{ArchStyle, ArrayDims, LaneSet};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a-style hasher: the one behind
/// [`Trace::fingerprint`] and every content key derived from it.
///
/// Words fold in one multiply each (not byte-at-a-time FNV): keys are
/// word-heavy — trace steps above all — so the 8× fewer multiplies
/// matter. Fingerprints are process-internal content addresses; only
/// determinism and spread are required, not FNV test-vector compliance.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(FNV_OFFSET)
    }
}

impl Fnv128 {
    /// A hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Folds one 64-bit word.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ u128::from(v)).wrapping_mul(FNV_PRIME);
    }

    /// Folds a `usize` as a 64-bit word.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds a flag as one byte.
    pub fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    /// Folds a 128-bit value (an earlier digest) as its low, then high,
    /// 64-bit word.
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// Index into a trace's table of lane activity classes.
pub type ClassId = usize;

/// Where a standard memory write gets its value during functional execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteSource {
    /// The k-th per-iteration input bit; the value may differ per lane.
    Input(usize),
    /// A fixed constant (e.g. a threshold bit or the comparator's carry-in).
    Const(bool),
}

/// One sequential array operation, in logical coordinates.
///
/// Rows are lane-local cell addresses (0-based); lane subsets are named by
/// [`ClassId`] into the owning trace's class table.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Standard memory write of one row in the given lanes (input loading).
    /// Costs 1 sequential step and 1 cell write per active lane.
    Write {
        /// Destination row.
        row: usize,
        /// Lanes written.
        class: ClassId,
        /// Value source for functional execution.
        source: WriteSource,
    },
    /// Standard memory read of one row (result readout). Costs 1 sequential
    /// step and 1 cell read per active lane.
    Read {
        /// Row read.
        row: usize,
        /// Lanes read.
        class: ClassId,
    },
    /// One logic gate performed in every lane of `class` simultaneously.
    /// Costs 1–2 sequential steps and 1–2 output-cell writes depending on
    /// [`ArchStyle`], plus one read per input cell.
    Gate {
        /// Boolean function.
        kind: GateKind,
        /// Input rows (`ins[..arity]` are meaningful).
        ins: [usize; 2],
        /// Output row.
        out: usize,
        /// Lanes computing.
        class: ClassId,
    },
    /// Inter-lane data movement: the bit at `src_row` of the i-th lane of
    /// `src_class` is rewritten at `dst_row` of the i-th lane of `dst_class`.
    /// Costs 2 sequential steps (§4: "a single data transfer takes 2
    /// sequential operations"), 1 read per source cell and 1 write per
    /// destination cell.
    Transfer {
        /// Source row.
        src_row: usize,
        /// Destination row.
        dst_row: usize,
        /// Source lanes.
        src_class: ClassId,
        /// Destination lanes (must have the same cardinality).
        dst_class: ClassId,
    },
}

impl Step {
    /// The lane class whose cells are *written* by this step, if any.
    #[must_use]
    pub fn written_class(&self) -> Option<ClassId> {
        match *self {
            Step::Write { class, .. } | Step::Gate { class, .. } => Some(class),
            Step::Transfer { dst_class, .. } => Some(dst_class),
            Step::Read { .. } => None,
        }
    }

    /// The lane class whose cells are *read* by this step, if any.
    #[must_use]
    pub fn read_class(&self) -> Option<ClassId> {
        match *self {
            Step::Read { class, .. } | Step::Gate { class, .. } => Some(class),
            Step::Transfer { src_class, .. } => Some(src_class),
            Step::Write { .. } => None,
        }
    }
}

/// Aggregate operation counts of a trace under a given architecture style.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCounts {
    /// Sequential time steps (each `op_latency` long).
    pub sequential_steps: u64,
    /// Total cell writes across all lanes.
    pub cell_writes: u64,
    /// Total cell reads across all lanes.
    pub cell_reads: u64,
    /// Number of gate operations.
    pub gate_ops: u64,
    /// Lane-activity-weighted steps (for utilization: Σ steps × |class|).
    pub weighted_active_lanes: f64,
}

/// The architecture styles in [`Trace::counts`]' memo order.
const ARCHES: [ArchStyle; 2] = [ArchStyle::SenseAmp, ArchStyle::PresetOutput];

fn arch_slot(arch: ArchStyle) -> usize {
    match arch {
        ArchStyle::SenseAmp => 0,
        ArchStyle::PresetOutput => 1,
    }
}

/// A trace's static facts, each derived by one O(steps) walk on first use
/// and kept until the trace changes.
#[derive(Debug, Clone, Default)]
struct Facts {
    /// [`TraceCounts`] under each of [`ARCHES`].
    counts: OnceLock<[TraceCounts; 2]>,
    /// The content fingerprint.
    fingerprint: OnceLock<u128>,
}

impl Facts {
    fn reset(&mut self) {
        self.counts.take();
        self.fingerprint.take();
    }
}

/// One workload iteration as a physical operation stream.
///
/// Its static facts — [`Trace::counts`] and [`Trace::fingerprint`] — are
/// derived on first use and memoized, so every engine built on one trace
/// after the first reads them in O(1). [`Trace::add_class`] and
/// [`Trace::push`] reset them, which during synthesis, before anything
/// was derived, only clears an empty memo.
///
/// # Examples
///
/// ```
/// use nvpim_array::{ArrayDims, LaneSet, Step, Trace, WriteSource};
/// use nvpim_logic::GateKind;
///
/// let dims = ArrayDims::new(16, 4);
/// let mut trace = Trace::new(dims);
/// let all = trace.add_class(LaneSet::full(4));
/// trace.push(Step::Write { row: 0, class: all, source: WriteSource::Input(0) });
/// trace.push(Step::Write { row: 1, class: all, source: WriteSource::Input(1) });
/// trace.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: all });
/// assert_eq!(trace.num_inputs(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    dims: ArrayDims,
    classes: Vec<LaneSet>,
    steps: Vec<Step>,
    rows_used: usize,
    num_inputs: usize,
    facts: Facts,
}

impl Trace {
    /// An empty trace over the given array dimensions.
    #[must_use]
    pub fn new(dims: ArrayDims) -> Self {
        Trace {
            dims,
            classes: Vec::new(),
            steps: Vec::new(),
            rows_used: 0,
            num_inputs: 0,
            facts: Facts::default(),
        }
    }

    /// Array dimensions the trace targets.
    #[must_use]
    pub fn dims(&self) -> ArrayDims {
        self.dims
    }

    /// Registers a lane activity class, returning its id. Identical sets may
    /// be registered twice; ids are never deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the set's universe does not match the array's lane count.
    pub fn add_class(&mut self, lanes: LaneSet) -> ClassId {
        assert_eq!(lanes.lanes(), self.dims.lanes(), "class universe mismatch");
        self.facts.reset();
        self.classes.push(lanes);
        self.classes.len() - 1
    }

    /// The registered classes.
    #[must_use]
    pub fn classes(&self) -> &[LaneSet] {
        &self.classes
    }

    /// Appends a step.
    ///
    /// # Panics
    ///
    /// Panics if the step references an unregistered class or a row outside
    /// the array.
    pub fn push(&mut self, step: Step) {
        let check_class = |c: ClassId| {
            assert!(c < self.classes.len(), "unregistered class {c}");
        };
        let mut check_row = |r: usize| {
            assert!(r < self.dims.rows(), "row {r} outside {} rows", self.dims.rows());
            self.rows_used = self.rows_used.max(r + 1);
        };
        match step {
            Step::Write { row, class, source } => {
                check_class(class);
                check_row(row);
                if let WriteSource::Input(k) = source {
                    self.num_inputs = self.num_inputs.max(k + 1);
                }
            }
            Step::Read { row, class } => {
                check_class(class);
                check_row(row);
            }
            Step::Gate { ins, out, class, kind } => {
                check_class(class);
                for &r in &ins[..kind.arity() as usize] {
                    check_row(r);
                }
                check_row(out);
            }
            Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                check_class(src_class);
                check_class(dst_class);
                check_row(src_row);
                check_row(dst_row);
                assert_eq!(
                    self.classes[src_class].count(),
                    self.classes[dst_class].count(),
                    "transfer classes must pair lanes 1:1"
                );
            }
        }
        self.facts.reset();
        self.steps.push(step);
    }

    /// The steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Highest row index referenced, plus one.
    #[must_use]
    pub fn rows_used(&self) -> usize {
        self.rows_used
    }

    /// Number of distinct per-iteration input bit slots.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Approximate resident size in bytes: the steps and the classes' lane
    /// bitmaps — what a byte-budgeted cache bills for holding this trace.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let class_bytes = |c: &LaneSet| std::mem::size_of::<LaneSet>() + c.lanes().div_ceil(64) * 8;
        std::mem::size_of::<Trace>()
            + self.steps.capacity() * std::mem::size_of::<Step>()
            + self.classes.iter().map(class_bytes).sum::<usize>()
    }

    /// Aggregate operation counts under the given architecture style.
    /// O(1) after the first call on an unchanged trace: one walk fills in
    /// the counts for both styles (see [`Trace::recount_counts`]).
    #[must_use]
    pub fn counts(&self, arch: ArchStyle) -> TraceCounts {
        self.facts.counts.get_or_init(|| self.walk_counts())[arch_slot(arch)]
    }

    /// Aggregate operation counts recomputed by walking every step — the
    /// O(steps) reference the memoized [`Trace::counts`] must always agree
    /// with, bit for bit. Exposed for the conservation checker.
    #[must_use]
    pub fn recount_counts(&self, arch: ArchStyle) -> TraceCounts {
        self.walk_counts()[arch_slot(arch)]
    }

    /// One step walk tallying the counts under every style of [`ARCHES`].
    /// Each style's tally sees the same additions in the same order as a
    /// walk for that style alone.
    fn walk_counts(&self) -> [TraceCounts; 2] {
        let mut both = [TraceCounts::default(); 2];
        for step in &self.steps {
            for (c, arch) in both.iter_mut().zip(ARCHES) {
                match *step {
                    Step::Write { class, .. } => {
                        let n = self.classes[class].count() as u64;
                        c.sequential_steps += 1;
                        c.cell_writes += n;
                        c.weighted_active_lanes += n as f64;
                    }
                    Step::Read { class, .. } => {
                        let n = self.classes[class].count() as u64;
                        c.sequential_steps += 1;
                        c.cell_reads += n;
                        c.weighted_active_lanes += n as f64;
                    }
                    Step::Gate { kind, class, .. } => {
                        let n = self.classes[class].count() as u64;
                        let steps = arch.steps_per_gate();
                        c.sequential_steps += steps;
                        c.cell_writes += arch.writes_per_gate() * n;
                        c.cell_reads += u64::from(kind.arity()) * n;
                        c.gate_ops += 1;
                        c.weighted_active_lanes += (steps * n) as f64;
                    }
                    Step::Transfer { src_class, dst_class, .. } => {
                        let ns = self.classes[src_class].count() as u64;
                        let nd = self.classes[dst_class].count() as u64;
                        c.sequential_steps += 2;
                        c.cell_reads += ns;
                        c.cell_writes += nd;
                        c.weighted_active_lanes += (ns + nd) as f64;
                    }
                }
            }
        }
        both
    }

    /// A 128-bit fingerprint of the trace's *content*: dimensions, lane
    /// classes, input arity, and every step in order. Two traces built
    /// independently but with identical content share one fingerprint,
    /// which content-addressed stores key on. O(1) after the first call on
    /// an unchanged trace.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        *self.facts.fingerprint.get_or_init(|| self.recount_fingerprint())
    }

    /// The fingerprint recomputed by hashing every class and step — the
    /// O(steps + class lanes) reference the memoized [`Trace::fingerprint`]
    /// must always agree with. Exposed for the conservation checker.
    #[must_use]
    pub fn recount_fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.usize(self.dims.rows());
        h.usize(self.dims.lanes());
        h.usize(self.rows_used);
        h.usize(self.num_inputs);
        h.usize(self.classes.len());
        for class in &self.classes {
            h.usize(class.count());
            for lane in class.iter() {
                h.usize(lane);
            }
        }
        h.usize(self.steps.len());
        for step in &self.steps {
            match *step {
                Step::Write { row, class, source } => {
                    h.byte(1);
                    h.usize(row);
                    h.usize(class);
                    match source {
                        WriteSource::Input(k) => {
                            h.byte(1);
                            h.usize(k);
                        }
                        WriteSource::Const(b) => {
                            h.byte(2);
                            h.bool(b);
                        }
                    }
                }
                Step::Read { row, class } => {
                    h.byte(2);
                    h.usize(row);
                    h.usize(class);
                }
                Step::Gate { kind, ins, out, class } => {
                    h.byte(3);
                    h.byte(kind as u8);
                    h.usize(ins[0]);
                    h.usize(ins[1]);
                    h.usize(out);
                    h.usize(class);
                }
                Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                    h.byte(4);
                    h.usize(src_row);
                    h.usize(dst_row);
                    h.usize(src_class);
                    h.usize(dst_class);
                }
            }
        }
        h.finish()
    }

    /// Average fraction of lanes active per sequential step (Table 3's
    /// "Avg Lane Utilization").
    #[must_use]
    pub fn lane_utilization(&self, arch: ArchStyle) -> f64 {
        let c = self.counts(arch);
        if c.sequential_steps == 0 {
            return 0.0;
        }
        c.weighted_active_lanes / (c.sequential_steps as f64 * self.dims.lanes() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let dims = ArrayDims::new(8, 4);
        let mut t = Trace::new(dims);
        let all = t.add_class(LaneSet::full(4));
        let half = t.add_class(LaneSet::range(4, 0, 2));
        t.push(Step::Write { row: 0, class: all, source: WriteSource::Input(0) });
        t.push(Step::Write { row: 1, class: all, source: WriteSource::Input(1) });
        t.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: all });
        t.push(Step::Gate { kind: GateKind::Not, ins: [2, 2], out: 3, class: half });
        t.push(Step::Read { row: 3, class: half });
        t
    }

    #[test]
    fn counts_sense_amp() {
        let t = tiny_trace();
        let c = t.counts(ArchStyle::SenseAmp);
        // 2 writes + 2 gates + 1 read = 5 sequential steps.
        assert_eq!(c.sequential_steps, 5);
        // Writes: 2×4 input + 4 (AND in 4 lanes) + 2 (NOT in 2 lanes) = 14.
        assert_eq!(c.cell_writes, 14);
        // Reads: AND reads 2 cells × 4 lanes + NOT reads 1 × 2 + readout 2.
        assert_eq!(c.cell_reads, 12);
        assert_eq!(c.gate_ops, 2);
    }

    #[test]
    fn counts_preset_output() {
        let t = tiny_trace();
        let c = t.counts(ArchStyle::PresetOutput);
        // Gates cost one extra step and write each.
        assert_eq!(c.sequential_steps, 7);
        assert_eq!(c.cell_writes, 14 + 4 + 2);
        assert_eq!(c.cell_reads, 12);
    }

    #[test]
    fn utilization_weights_by_active_lanes() {
        let dims = ArrayDims::new(4, 4);
        let mut t = Trace::new(dims);
        let all = t.add_class(LaneSet::full(4));
        let one = t.add_class(LaneSet::from_indices(4, &[0]));
        t.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: all });
        t.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: one });
        // Two 1-step gates (sense-amp): (4 + 1) / (2 × 4) = 0.625.
        assert!((t.lane_utilization(ArchStyle::SenseAmp) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn facts_read_before_a_change_are_replaced_after_it() {
        let arches = [ArchStyle::SenseAmp, ArchStyle::PresetOutput];
        // Appending a step: memoized counts and fingerprint must become a
        // freshly built trace's.
        let mut grown = tiny_trace();
        let before = (arches.map(|a| grown.counts(a)), grown.fingerprint());
        grown.push(Step::Write { row: 4, class: 1, source: WriteSource::Const(true) });
        let mut fresh = tiny_trace();
        fresh.push(Step::Write { row: 4, class: 1, source: WriteSource::Const(true) });
        assert_ne!(arches.map(|a| grown.counts(a)), before.0, "push must reset the counts");
        assert_ne!(grown.fingerprint(), before.1, "push must reset the fingerprint");
        assert_eq!(arches.map(|a| grown.counts(a)), arches.map(|a| fresh.recount_counts(a)));
        assert_eq!(grown.fingerprint(), fresh.recount_fingerprint());

        // Registering a class changes the fingerprint, not the counts.
        let mut classed = tiny_trace();
        let before = (arches.map(|a| classed.counts(a)), classed.fingerprint());
        classed.add_class(LaneSet::from_indices(4, &[3]));
        let mut fresh = tiny_trace();
        fresh.add_class(LaneSet::from_indices(4, &[3]));
        assert_ne!(classed.fingerprint(), before.1, "add_class must reset the fingerprint");
        assert_eq!(classed.fingerprint(), fresh.recount_fingerprint());
        assert_eq!(arches.map(|a| classed.counts(a)), arches.map(|a| fresh.recount_counts(a)));

        // A clone carries equal facts.
        let copy = grown.clone();
        assert_eq!(arches.map(|a| copy.counts(a)), arches.map(|a| grown.counts(a)));
        assert_eq!(copy.fingerprint(), grown.fingerprint());
    }

    #[test]
    fn input_slots_are_counted() {
        let t = tiny_trace();
        assert_eq!(t.num_inputs(), 2);
        assert_eq!(t.rows_used(), 4);
    }

    #[test]
    #[should_panic(expected = "unregistered class")]
    fn unknown_class_rejected() {
        let mut t = Trace::new(ArrayDims::new(4, 4));
        t.push(Step::Read { row: 0, class: 0 });
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn row_bounds_enforced() {
        let mut t = Trace::new(ArrayDims::new(4, 4));
        let all = t.add_class(LaneSet::full(4));
        t.push(Step::Read { row: 4, class: all });
    }

    #[test]
    #[should_panic(expected = "1:1")]
    fn transfer_requires_matching_cardinality() {
        let mut t = Trace::new(ArrayDims::new(4, 4));
        let a = t.add_class(LaneSet::range(4, 0, 2));
        let b = t.add_class(LaneSet::range(4, 2, 3));
        t.push(Step::Transfer { src_row: 0, dst_row: 1, src_class: a, dst_class: b });
    }
}
