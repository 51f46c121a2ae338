//! Re-mapping-frequency sweeps — the §5 study of how often re-compilation
//! must happen.
//!
//! The paper sweeps re-mapping every {10 000, 1 000, 500, 100, 50, 10}
//! iterations and finds expected lifetime saturates at about every 50
//! iterations, with only ~1.6% further improvement from 50 → 10.

use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_exec::ParallelRunner;
use nvpim_obs::NullSink;
use nvpim_workloads::Workload;

use crate::analytic::AnalyticWearEngine;
use crate::parallel::fan_out;
use crate::{EnduranceSimulator, LifetimeModel, SimConfig};

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Re-mapping period in iterations.
    pub period: u64,
    /// Expected lifetime in iterations (Eq. 4).
    pub lifetime_iterations: f64,
    /// Lifetime improvement relative to never re-mapping.
    pub improvement_vs_never: f64,
}

/// Sweeps the re-mapping period for one workload × configuration, measuring
/// expected lifetime at each point.
///
/// # Panics
///
/// Panics if `periods` is empty.
#[must_use]
pub fn remap_frequency_sweep(
    workload: &Workload,
    balance: BalanceConfig,
    base: SimConfig,
    model: LifetimeModel,
    periods: &[u64],
) -> Vec<SweepPoint> {
    assert!(!periods.is_empty(), "sweep needs at least one period");
    let never =
        EnduranceSimulator::new(base.with_schedule(RemapSchedule::never())).run(workload, balance);
    let never_lifetime = model.lifetime(&never).iterations;
    periods
        .iter()
        .map(|&period| {
            let cfg = base.with_schedule(RemapSchedule::every(period));
            let result = EnduranceSimulator::new(cfg).run(workload, balance);
            let lifetime_iterations = model.lifetime(&result).iterations;
            SweepPoint {
                period,
                lifetime_iterations,
                improvement_vs_never: lifetime_iterations / never_lifetime,
            }
        })
        .collect()
}

/// The sweep's schedule list: the never-remap baseline first, then one
/// entry per period.
fn sweep_schedules(periods: &[u64]) -> Vec<RemapSchedule> {
    assert!(!periods.is_empty(), "sweep needs at least one period");
    std::iter::once(RemapSchedule::never())
        .chain(periods.iter().map(|&p| RemapSchedule::every(p)))
        .collect()
}

/// Splits the schedules into at most `effective-threads` contiguous
/// batches so each pool job amortizes its spawn/join overhead over several
/// sweep points — a single point can be microseconds of work, for which
/// one-job-per-point parallelism loses to serial (`BENCH_sim.json`'s old
/// `parallel_sweep/jobs_*` rows).
fn sweep_batches(schedules: Vec<RemapSchedule>, jobs: usize) -> Vec<Vec<RemapSchedule>> {
    let workers = ParallelRunner::new(jobs).effective_threads(schedules.len()).max(1);
    let batch = schedules.len().div_ceil(workers);
    schedules.chunks(batch).map(<[RemapSchedule]>::to_vec).collect()
}

/// Turns the flattened per-schedule lifetimes (baseline first) into sweep
/// points.
fn sweep_points(periods: &[u64], lifetimes: &[f64]) -> Vec<SweepPoint> {
    let never_lifetime = lifetimes[0];
    periods
        .iter()
        .zip(&lifetimes[1..])
        .map(|(&period, &lifetime_iterations)| SweepPoint {
            period,
            lifetime_iterations,
            improvement_vs_never: lifetime_iterations / never_lifetime,
        })
        .collect()
}

/// [`remap_frequency_sweep`] fanned across `jobs` worker threads (`0` =
/// auto), bit-identical to the serial sweep.
///
/// The never-remap baseline rides along as the first sweep point, and
/// points are batched per pool job ([`sweep_batches`]); improvements are
/// computed against the baseline after the deterministic submission-order
/// join.
///
/// # Panics
///
/// Panics if `periods` is empty.
#[must_use]
pub fn remap_frequency_sweep_parallel(
    workload: &Workload,
    balance: BalanceConfig,
    base: SimConfig,
    model: LifetimeModel,
    periods: &[u64],
    jobs: usize,
) -> Vec<SweepPoint> {
    let batches = sweep_batches(sweep_schedules(periods), jobs);
    // The trace's static counts don't depend on the schedule: one tally
    // serves every job in the batch.
    let counts = workload.trace().counts(base.arch);
    let lifetimes: Vec<f64> = fan_out(batches, jobs, |batch, sink| {
        batch
            .into_iter()
            .map(|schedule| {
                let sim = EnduranceSimulator::new(base.with_schedule(schedule));
                let result = match sink {
                    Some(observer) => sim.run_with_counts(workload, balance, observer, counts),
                    None => sim.run_with_counts(workload, balance, &NullSink, counts),
                };
                model.lifetime(&result).iterations
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    sweep_points(periods, &lifetimes)
}

/// The analytic form of [`remap_frequency_sweep_parallel`]: each sweep
/// point asks a replay-free [`AnalyticWearEngine`] for its hottest cell
/// ([`AnalyticWearEngine::max_writes_at_with`]) instead of running the
/// simulator, bit-identical to both. Every configuration answers through
/// the engine's epoch walker, and a point whose answer is one row vector
/// (no partial lane class, as on mul32) builds no cell plane at all.
///
/// The per-period engines share sub-computations through the process-wide
/// [`crate::artifacts`] store: the trace walk and logical panels depend
/// only on (trace, arch), so every sweep point past the first hits, and
/// schedule-independent kernels are reused across periods too.
///
/// # Panics
///
/// Panics if `periods` is empty.
#[must_use]
pub fn remap_frequency_sweep_analytic(
    workload: &Workload,
    balance: BalanceConfig,
    base: SimConfig,
    model: LifetimeModel,
    periods: &[u64],
    jobs: usize,
) -> Vec<SweepPoint> {
    let batches = sweep_batches(sweep_schedules(periods), jobs);
    let lifetimes: Vec<f64> = fan_out(batches, jobs, |batch, sink| {
        batch
            .into_iter()
            .map(|schedule| {
                let mut engine =
                    AnalyticWearEngine::new(workload, balance, base.with_schedule(schedule));
                let max_writes = match sink {
                    Some(observer) => engine.max_writes_at_with(base.iterations, observer),
                    None => engine.max_writes_at_with(base.iterations, &NullSink),
                };
                let steps = engine.steps_per_iteration();
                model.lifetime_of(max_writes, base.iterations, steps).iterations
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    sweep_points(periods, &lifetimes)
}

/// The saturation analysis of §5: the **largest** period (least frequent
/// re-mapping, i.e. cheapest in re-compilation overhead) whose lifetime is
/// within `tolerance` (e.g. 0.016 = 1.6%) of the best point in the sweep.
///
/// That is the quantity §5 actually asks for — "how infrequently can we
/// re-map before lifetime degrades?" — so ties break toward *larger*
/// periods. The comparison is against the best lifetime anywhere in
/// `points`, so the input needs no particular ordering, and a single-point
/// sweep returns that point's period (it is trivially within tolerance of
/// itself). Returns `None` only for an empty slice.
#[must_use]
pub fn saturation_period(points: &[SweepPoint], tolerance: f64) -> Option<u64> {
    let best = points.iter().map(|p| p.lifetime_iterations).fold(0.0f64, f64::max);
    points
        .iter()
        .filter(|p| p.lifetime_iterations >= best * (1.0 - tolerance))
        .map(|p| p.period)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::ArrayDims;
    use nvpim_workloads::parallel_mul::ParallelMul;

    fn sweep() -> Vec<SweepPoint> {
        let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
        // Enough iterations that even the finest period has seen many
        // epochs — the regime the paper's saturation claim is about.
        let base = SimConfig::default().with_iterations(20_000);
        remap_frequency_sweep(
            &wl,
            "RaxSt".parse().unwrap(),
            base,
            LifetimeModel::mtj(),
            &[500, 100, 50, 10],
        )
    }

    #[test]
    fn more_frequent_remapping_never_hurts_much() {
        let points = sweep();
        assert_eq!(points.len(), 4);
        // Finer periods give at least ~the lifetime of coarser ones.
        assert!(points[3].lifetime_iterations >= points[0].lifetime_iterations * 0.95);
        // And beat never re-mapping handily for random shuffling.
        assert!(points[3].improvement_vs_never > 1.2);
    }

    #[test]
    fn lifetime_saturates() {
        // §5's qualitative claim: returns diminish as re-mapping gets more
        // frequent (the paper reports saturation around every 50 iterations
        // at its 1024×1024/100 000-iteration scale).
        let points = sweep();
        let sat = saturation_period(&points, 0.5).expect("non-empty sweep");
        assert!(sat >= 10, "saturation at period {sat}");
        let p500 = points.iter().find(|p| p.period == 500).unwrap();
        let p50 = points.iter().find(|p| p.period == 50).unwrap();
        let p10 = points.iter().find(|p| p.period == 10).unwrap();
        let coarse_gain = p50.lifetime_iterations / p500.lifetime_iterations;
        let fine_gain = p10.lifetime_iterations / p50.lifetime_iterations;
        assert!(
            fine_gain < coarse_gain,
            "diminishing returns: 500→50 gave {coarse_gain}, 50→10 gave {fine_gain}"
        );
        assert!(fine_gain < 1.35, "50→10 gain {fine_gain} should be modest");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
        let base = SimConfig::default().with_iterations(500);
        let balance: BalanceConfig = "RaxSt".parse().unwrap();
        let periods = [100u64, 50, 10];
        let serial = remap_frequency_sweep(&wl, balance, base, LifetimeModel::mtj(), &periods);
        for jobs in [1, 2, 8] {
            let parallel = remap_frequency_sweep_parallel(
                &wl,
                balance,
                base,
                LifetimeModel::mtj(),
                &periods,
                jobs,
            );
            assert_eq!(serial, parallel, "sweep with {jobs} jobs diverged");
        }
    }

    #[test]
    fn analytic_sweep_is_bit_identical_to_serial() {
        let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
        let base = SimConfig::default().with_iterations(500);
        let periods = [100u64, 50, 10];
        // RaxSt exercises the lazy software path, BsxBs the closed form,
        // RaxSt+Hw the lazy Hw path — the sweep must not care.
        for name in ["RaxSt", "BsxBs", "RaxSt+Hw"] {
            let balance: BalanceConfig = name.parse().unwrap();
            let serial = remap_frequency_sweep(&wl, balance, base, LifetimeModel::mtj(), &periods);
            for jobs in [1, 4] {
                let analytic = remap_frequency_sweep_analytic(
                    &wl,
                    balance,
                    base,
                    LifetimeModel::mtj(),
                    &periods,
                    jobs,
                );
                assert_eq!(
                    serial, analytic,
                    "analytic sweep for {balance} with {jobs} jobs diverged"
                );
            }
        }
    }

    #[test]
    fn saturation_of_single_point_is_that_point() {
        let only = SweepPoint { period: 250, lifetime_iterations: 1e6, improvement_vs_never: 1.5 };
        assert_eq!(saturation_period(&[only], 0.016), Some(250));
        // Tolerance zero still admits the best point itself.
        assert_eq!(saturation_period(&[only], 0.0), Some(250));
        assert_eq!(saturation_period(&[], 0.016), None);
    }

    #[test]
    fn saturation_is_order_independent_and_prefers_larger_periods() {
        let mk = |period, lifetime_iterations| SweepPoint {
            period,
            lifetime_iterations,
            improvement_vs_never: 1.0,
        };
        // Deliberately unsorted: best lifetime sits mid-slice.
        let points = [mk(10, 0.995e6), mk(500, 0.5e6), mk(50, 1.0e6), mk(100, 0.99e6)];
        // 100, 50 and 10 are all within 1.6% of the best; 500 is not. The
        // largest qualifying period wins regardless of slice order.
        assert_eq!(saturation_period(&points, 0.016), Some(100));
        let mut reversed = points;
        reversed.reverse();
        assert_eq!(saturation_period(&reversed, 0.016), Some(100));
        // Loose tolerance admits everything, so the max period wins.
        assert_eq!(saturation_period(&points, 0.6), Some(500));
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn empty_sweep_rejected() {
        let wl = ParallelMul::new(ArrayDims::new(128, 4), 8).build();
        let _ = remap_frequency_sweep(
            &wl,
            BalanceConfig::baseline(),
            SimConfig::default(),
            LifetimeModel::mtj(),
            &[],
        );
    }
}
