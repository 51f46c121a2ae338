//! The finished workload artifact.

use nvpim_array::{ArchStyle, ClassId, Trace};
use nvpim_nvm::EnergyModel;

/// One benchmark kernel, fully laid out as a per-iteration [`Trace`].
///
/// A PIM array runs its workload repeatedly — "as soon as it computes the
/// final results a new set of inputs is loaded and the process repeats" (§4)
/// — so the trace describes exactly one iteration; the endurance simulator
/// replays it.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    trace: Trace,
    result_rows: Vec<usize>,
    result_class: ClassId,
}

impl Workload {
    /// Assembles a workload. Normally produced by
    /// [`crate::WorkloadBuilder::finish`].
    #[must_use]
    pub fn new(name: String, trace: Trace, result_rows: Vec<usize>, result_class: ClassId) -> Self {
        Workload { name, trace, result_rows, result_class }
    }

    /// Short identifier (e.g. `mul32`, `dot1024x32`, `conv4x3`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-iteration operation trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Lane-local rows holding the result word (LSB first) after one
    /// iteration.
    #[must_use]
    pub fn result_rows(&self) -> &[usize] {
        &self.result_rows
    }

    /// The lane class in which the result is produced.
    #[must_use]
    pub fn result_class(&self) -> ClassId {
        self.result_class
    }

    /// Approximate resident size in bytes (the trace dominates).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Workload>()
            + self.name.capacity()
            + self.trace.approx_bytes()
            + self.result_rows.capacity() * std::mem::size_of::<usize>()
    }

    /// Latency of one iteration in sequential steps under `arch`.
    #[must_use]
    pub fn steps_per_iteration(&self, arch: ArchStyle) -> u64 {
        self.trace.counts(arch).sequential_steps
    }

    /// Average lane utilization (Table 3).
    #[must_use]
    pub fn lane_utilization(&self, arch: ArchStyle) -> f64 {
        self.trace.lane_utilization(arch)
    }

    /// Energy of one iteration in picojoules: every cell write and read of
    /// the trace priced through the device's [`EnergyModel`]. Extreme energy
    /// efficiency is nonvolatile PIM's main draw (§1, §3.2); this is the
    /// figure balancing hardware must not erode.
    #[must_use]
    pub fn energy_per_iteration_pj(&self, arch: ArchStyle, model: &EnergyModel) -> f64 {
        let counts = self.trace.counts(arch);
        model.total_pj(counts.cell_reads, counts.cell_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArrayDims, LaneSet};

    #[test]
    fn energy_accounts_reads_and_writes() {
        use nvpim_array::{Step, WriteSource};
        let dims = ArrayDims::new(8, 4);
        let mut trace = Trace::new(dims);
        let all = trace.add_class(LaneSet::full(4));
        trace.push(Step::Write { row: 0, class: all, source: WriteSource::Input(0) });
        trace.push(Step::Read { row: 0, class: all });
        let wl = Workload::new("e".into(), trace, vec![0], all);
        let model = EnergyModel::new(2.0, 0.5);
        // 4 writes x 2.0 + 4 reads x 0.5 = 10 pJ.
        let e = wl.energy_per_iteration_pj(ArchStyle::SenseAmp, &model);
        assert!((e - 10.0).abs() < 1e-9);
    }

    #[test]
    fn preset_semantics_cost_more_energy() {
        use nvpim_array::Step;
        use nvpim_logic::GateKind;
        let dims = ArrayDims::new(8, 4);
        let mut trace = Trace::new(dims);
        let all = trace.add_class(LaneSet::full(4));
        trace.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: all });
        let wl = Workload::new("e".into(), trace, vec![2], all);
        let model = EnergyModel::new(1.0, 0.1);
        let sense = wl.energy_per_iteration_pj(ArchStyle::SenseAmp, &model);
        let preset = wl.energy_per_iteration_pj(ArchStyle::PresetOutput, &model);
        assert!(preset > sense);
        assert!((preset - sense - 4.0).abs() < 1e-9); // one extra write per lane
    }

    #[test]
    fn accessors() {
        let dims = ArrayDims::new(8, 2);
        let mut trace = Trace::new(dims);
        let all = trace.add_class(LaneSet::full(2));
        let wl = Workload::new("test".into(), trace, vec![3, 4], all);
        assert_eq!(wl.name(), "test");
        assert_eq!(wl.result_rows(), &[3, 4]);
        assert_eq!(wl.result_class(), all);
        assert_eq!(wl.steps_per_iteration(ArchStyle::SenseAmp), 0);
    }
}
