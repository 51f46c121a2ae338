//! Array lifetime estimation — Eq. 4 of the paper.
//!
//! The array is considered failed when its *first* cell fails: even one
//! failed cell corrupts results and knocks out the same address in every
//! lane (§3.3, §4). Lifetime therefore follows the hottest cell:
//!
//! ```text
//! Lifetime = Cell Endurance / max(WriteCount per iteration) × Application Latency
//! ```

use nvpim_nvm::{DeviceParams, Technology};

use crate::analytic::{AnalyticPath, AnalyticWearEngine};
use crate::SimResult;

/// A lifetime estimate in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lifetime {
    /// Iterations (operations) the array survives before first cell failure.
    pub iterations: f64,
    /// Wall-clock seconds at the workload's iteration latency.
    pub seconds: f64,
}

impl Lifetime {
    /// Lifetime in days.
    #[must_use]
    pub fn days(&self) -> f64 {
        self.seconds / 86_400.0
    }

    /// Lifetime in years.
    #[must_use]
    pub fn years(&self) -> f64 {
        self.days() / 365.25
    }
}

/// Applies Eq. 4 to simulation results for a given device technology.
///
/// # Examples
///
/// ```
/// use nvpim_core::LifetimeModel;
///
/// let model = LifetimeModel::mtj();
/// assert_eq!(model.endurance(), 1_000_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    endurance: u64,
    op_latency_ns: f64,
}

impl LifetimeModel {
    /// A model from explicit endurance and per-operation latency.
    #[must_use]
    pub fn new(endurance: u64, op_latency_ns: f64) -> Self {
        LifetimeModel { endurance, op_latency_ns }
    }

    /// The paper's evaluation model: MTJ endurance (10^12 writes) at 3 ns
    /// per operation.
    #[must_use]
    pub fn mtj() -> Self {
        LifetimeModel::new(1_000_000_000_000, 3.0)
    }

    /// A model from a technology's device parameters.
    #[must_use]
    pub fn for_technology(tech: Technology) -> Self {
        let p = DeviceParams::for_technology(tech);
        LifetimeModel::new(p.endurance_writes, p.op_latency_ns)
    }

    /// Cell endurance in writes.
    #[must_use]
    pub fn endurance(&self) -> u64 {
        self.endurance
    }

    /// Per-operation latency in nanoseconds.
    #[must_use]
    pub fn op_latency_ns(&self) -> f64 {
        self.op_latency_ns
    }

    /// Eq. 4: expected lifetime of the array running this workload
    /// continuously.
    ///
    /// # Panics
    ///
    /// Panics if the simulation produced no writes (the workload would
    /// never wear the array out).
    #[must_use]
    pub fn lifetime(&self, result: &SimResult) -> Lifetime {
        let per_iter = result.max_writes_per_iteration();
        assert!(per_iter > 0.0, "no writes recorded; lifetime undefined");
        let iterations = self.endurance as f64 / per_iter;
        let seconds = iterations * result.iteration_latency_s(self.op_latency_ns);
        Lifetime { iterations, seconds }
    }

    /// Lifetime improvement of `result` relative to `baseline` (Fig. 17's
    /// y-axis: "number of operations before failure" normalized to
    /// `St × St`).
    #[must_use]
    pub fn improvement(&self, result: &SimResult, baseline: &SimResult) -> f64 {
        self.lifetime(result).iterations / self.lifetime(baseline).iterations
    }

    /// Eq. 4 under per-cell endurance *variation* — the ablation of the
    /// paper's uniform-endurance assumption (§4 notes that assumption is
    /// pessimistic about the mean but real devices vary cell to cell).
    ///
    /// Each cell draws its endurance from `endurance`; the array fails when
    /// the first cell exhausts its own draw, i.e. at
    /// `min_i endurance_i / rate_i` iterations.
    ///
    /// # Panics
    ///
    /// Panics if the simulation produced no writes.
    #[must_use]
    pub fn lifetime_with_variation(
        &self,
        result: &SimResult,
        endurance: nvpim_nvm::EnduranceModel,
        seed: u64,
    ) -> Lifetime {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let dims = result.wear.dims();
        let mut min_iterations = f64::INFINITY;
        for row in 0..dims.rows() {
            for &w in result.wear.row_writes(row) {
                // Sample every cell (failure order depends on the draw even
                // for cold cells, but zero-rate cells never fail).
                let e = endurance.sample(&mut rng);
                if w > 0 {
                    let rate = w as f64 / result.iterations as f64;
                    min_iterations = min_iterations.min(e as f64 / rate);
                }
            }
        }
        assert!(min_iterations.is_finite(), "no writes recorded; lifetime undefined");
        let seconds = min_iterations * result.iteration_latency_s(self.op_latency_ns);
        Lifetime { iterations: min_iterations, seconds }
    }
}

impl Default for LifetimeModel {
    fn default() -> Self {
        LifetimeModel::mtj()
    }
}

/// Result of an analytic lifetime solve ([`solve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOutcome {
    /// The lifetime estimate (iterations survived, wall-clock seconds).
    pub lifetime: Lifetime,
    /// First iteration count at which the hottest cell exceeds the cell
    /// endurance — `lifetime.iterations + 1` when `exact`.
    pub failure_iteration: u64,
    /// Whether the failure iteration was located exactly (closed-form
    /// engines) or extrapolated via Eq. 4 from a sampled run.
    pub exact: bool,
    /// Which reducibility rung answered the queries.
    pub path: AnalyticPath,
}

/// Finds the array's failure iteration without replaying the trace.
///
/// On [`AnalyticPath::ClosedForm`] engines, the hottest cell's cumulative
/// write count is a cheap monotone function of the iteration count, so the
/// exact failure iteration (the first `N` whose max write count exceeds
/// the model's endurance) is located by exponential growth plus binary
/// search — O(cells · log N) total, no replay, no Eq. 4 rate averaging.
/// Lazy engines answer one query at `sample_iterations` and
/// extrapolate through Eq. 4 exactly like [`LifetimeModel::lifetime`]
/// (`exact` is `false`).
///
/// # Panics
///
/// Panics if the workload performs no writes (lifetime undefined), or if
/// the failure horizon exceeds 2⁶² iterations.
#[must_use]
pub fn solve(
    engine: &mut AnalyticWearEngine<'_>,
    model: LifetimeModel,
    sample_iterations: u64,
) -> SolveOutcome {
    let path = engine.path();
    if path != AnalyticPath::ClosedForm {
        let result = engine.result_at(sample_iterations);
        let lifetime = model.lifetime(&result);
        return SolveOutcome {
            lifetime,
            failure_iteration: lifetime.iterations as u64,
            exact: false,
            path,
        };
    }
    assert!(engine.max_writes_at(1) > 0, "no writes recorded; lifetime undefined");
    let endurance = model.endurance();
    // Exponential growth to bracket the failure iteration, then binary
    // search: `lo` always survives, `hi` always fails.
    let mut lo = 0u64;
    let mut hi = 1u64;
    while engine.max_writes_at(hi) <= endurance {
        lo = hi;
        hi = hi.checked_mul(2).expect("failure horizon overflow");
        assert!(hi <= 1 << 62, "failure horizon exceeds 2^62 iterations");
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if engine.max_writes_at(mid) <= endurance {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let iterations = lo as f64;
    let seconds = iterations * engine.steps_per_iteration() as f64 * model.op_latency_ns() * 1e-9;
    SolveOutcome {
        lifetime: Lifetime { iterations, seconds },
        failure_iteration: hi,
        exact: true,
        path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, ArrayDims, LaneSet, WearMap};
    use nvpim_balance::BalanceConfig;

    fn synthetic_result(max_writes: u64, iterations: u64, steps: u64) -> SimResult {
        let dims = ArrayDims::new(4, 4);
        let mut wear = WearMap::new(dims);
        wear.add_writes(0, &LaneSet::full(4), max_writes);
        SimResult {
            wear,
            config: BalanceConfig::baseline(),
            iterations,
            steps_per_iteration: steps,
            arch: ArchStyle::SenseAmp,
            series: Vec::new(),
        }
    }

    #[test]
    fn eq4_arithmetic() {
        // Endurance 10^6, hottest cell written 10×/iteration, 100 steps at
        // 3 ns → lifetime = 10^5 iterations = 0.03 s.
        let model = LifetimeModel::new(1_000_000, 3.0);
        let result = synthetic_result(1_000, 100, 100);
        let lt = model.lifetime(&result);
        assert!((lt.iterations - 1e5).abs() < 1e-6);
        assert!((lt.seconds - 1e5 * 100.0 * 3e-9).abs() < 1e-12);
    }

    #[test]
    fn improvement_is_ratio_of_iterations() {
        let model = LifetimeModel::mtj();
        let balanced = synthetic_result(500, 100, 100);
        let baseline = synthetic_result(1_000, 100, 100);
        assert!((model.improvement(&balanced, &baseline) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unit_conversions() {
        let lt = Lifetime { iterations: 1.0, seconds: 86_400.0 * 365.25 };
        assert!((lt.days() - 365.25).abs() < 1e-9);
        assert!((lt.years() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn technology_models_rank_by_endurance() {
        let mtj = LifetimeModel::for_technology(Technology::Mram);
        let rram = LifetimeModel::for_technology(Technology::Rram);
        let result = synthetic_result(100, 10, 10);
        assert!(mtj.lifetime(&result).seconds > rram.lifetime(&result).seconds);
    }

    #[test]
    #[should_panic(expected = "no writes")]
    fn zero_write_workload_rejected() {
        let model = LifetimeModel::mtj();
        let result = synthetic_result(0, 10, 10);
        let _ = model.lifetime(&result);
    }

    #[test]
    fn fixed_variation_matches_eq4() {
        let model = LifetimeModel::new(1_000_000, 3.0);
        let result = synthetic_result(1_000, 100, 100);
        let uniform = model.lifetime(&result);
        let varied =
            model.lifetime_with_variation(&result, nvpim_nvm::EnduranceModel::Fixed(1_000_000), 42);
        assert!((uniform.iterations - varied.iterations).abs() < 1e-6);
        assert!((uniform.seconds - varied.seconds).abs() < 1e-12);
    }

    #[test]
    fn variation_shortens_first_failure() {
        // With many equally-hot cells, the first failure follows the
        // *minimum* endurance draw, which lies below the median — so the
        // varied lifetime must be shorter than the uniform estimate.
        let model = LifetimeModel::new(1_000_000, 3.0);
        let result = synthetic_result(1_000, 100, 100);
        let varied = model.lifetime_with_variation(
            &result,
            nvpim_nvm::EnduranceModel::LogNormal { median: 1_000_000, sigma: 0.5 },
            7,
        );
        let uniform = model.lifetime(&result);
        assert!(
            varied.iterations < uniform.iterations,
            "varied {} vs uniform {}",
            varied.iterations,
            uniform.iterations
        );
    }

    #[test]
    fn variation_is_seed_deterministic() {
        let model = LifetimeModel::mtj();
        let result = synthetic_result(500, 50, 10);
        let e = nvpim_nvm::EnduranceModel::LogNormal { median: 10u64.pow(9), sigma: 0.3 };
        let a = model.lifetime_with_variation(&result, e, 5);
        let b = model.lifetime_with_variation(&result, e, 5);
        assert_eq!(a.iterations.to_bits(), b.iterations.to_bits());
    }
}
