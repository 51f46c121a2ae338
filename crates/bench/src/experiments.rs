//! One driver per table/figure of the paper's evaluation.
//!
//! Each `*_report` function computes the experiment's data and renders it
//! alongside the paper's reference values, so drift from the publication is
//! visible at a glance.

use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::{access_aware, BalanceConfig, ParseConfigError, RemapSchedule};
use nvpim_core::report::{ascii_heatmap, fmt_value, text_table};
use nvpim_core::sim::single_iteration_profile;
use nvpim_core::{
    baseline, failure, limits, sweep, EnduranceSimulator, LifetimeModel, SimConfig, SimResult,
};
use nvpim_workloads::Workload;

use crate::Scale;

/// Parses a configuration literal used by a report driver.
///
/// The literals here are compile-time constants, so failure means the
/// source itself is wrong — but when that happens, the panic carries the
/// typed [`ParseConfigError`]'s full guidance (the valid strategy names
/// and label shape) instead of a bare `expect("valid")`.
fn config(label: &str) -> BalanceConfig {
    label.parse().unwrap_or_else(|e: ParseConfigError| panic!("{e}"))
}

/// §3.1 / §1: PIM vs. conventional write amplification.
#[must_use]
pub fn amplification_report() -> String {
    let mut out =
        String::from("== Write amplification: PIM vs conventional architecture (§3.1) ==\n");
    let mut rows = Vec::new();
    for bits in [8u64, 16, 32, 64] {
        let conv = baseline::conventional_multiply(bits);
        let pim = baseline::pim_multiply(bits);
        rows.push(vec![
            format!("{bits}-bit mul"),
            conv.reads.to_string(),
            conv.writes.to_string(),
            pim.reads.to_string(),
            pim.writes.to_string(),
            format!("{:.1}x", baseline::write_amplification(bits)),
        ]);
    }
    out.push_str(&text_table(
        &["kernel", "cpu reads", "cpu writes", "pim reads", "pim writes", "write amp"],
        &rows,
    ));
    out.push_str(
        "\npaper reference (32-bit): 64/64 conventional, 19616/9824 PIM, >150x amplification\n",
    );
    let (r, w) = baseline::per_cell_averages(baseline::pim_multiply(32), 1024);
    out.push_str(&format!(
        "per-cell averages over 1024 cells: {r:.2} reads, {w:.2} writes (paper: 19.16 / 9.59)\n"
    ));
    out
}

/// §3.1 Eqs. 1–2 and the per-technology bounds.
#[must_use]
pub fn limits_report() -> String {
    let mut out = String::from("== Closed-form endurance bounds (§3.1, Eq. 1 & Eq. 2) ==\n");
    let ops = limits::max_operations(1024, 1024, 1_000_000_000_000, 9_824);
    let secs = limits::seconds_to_total_failure(1024, 1024, 1_000_000_000_000, 3.0);
    out.push_str(&format!(
        "Eq. 1: max 32-bit multiplications = {} (paper: 1.07e14)\n",
        fmt_value(ops)
    ));
    out.push_str(&format!(
        "Eq. 2: time to total failure = {} s = {:.2} days (paper: 3,072,000 s = 35.56 days)\n",
        fmt_value(secs),
        secs / 86_400.0
    ));
    let mut rows = Vec::new();
    for b in limits::technology_bounds() {
        rows.push(vec![
            b.technology.to_string(),
            format!("{:.0e}", b.endurance as f64),
            fmt_value(b.max_multiplications),
            format!("{:.2}", b.seconds_to_failure / 86_400.0),
            format!("{:.1}", b.seconds_to_failure / 60.0),
        ]);
    }
    out.push_str(&text_table(
        &["technology", "endurance", "max 32b muls", "days", "minutes"],
        &rows,
    ));
    let rram = limits::seconds_to_total_failure(1024, 1024, 100_000_000, 3.0);
    out.push_str(&format!(
        "\nRRAM at 1e8 endurance: {:.2} minutes (paper: \"just over 5 minutes\")\n",
        rram / 60.0
    ));
    out
}

/// Fig. 5: per-cell write/read counts within a lane for one 32-bit multiply.
#[must_use]
pub fn fig5_report() -> String {
    let wl = nvpim_workloads::parallel_mul::ParallelMul::new(ArrayDims::new(1024, 4), 32)
        .without_readout()
        .build();
    let (writes, reads) = single_iteration_profile(&wl, ArchStyle::SenseAmp);
    let mut out = String::from(
        "== Fig. 5: per-cell accesses in a lane, single 32-bit multiplication ==\n\
         (cell index ascending; inputs occupy the first 64 cells, outputs the next 64)\n",
    );
    out.push_str("cell,writes,reads\n");
    for (i, (w, r)) in writes.iter().zip(&reads).enumerate() {
        out.push_str(&format!("{i},{w},{r}\n"));
    }
    let max_w = writes.iter().max().copied().unwrap_or(0);
    let input_w = writes[..64].iter().max().copied().unwrap_or(0);
    out.push_str(&format!(
        "\ninput cells written {input_w}x each; hottest workspace cell written {max_w}x \
         (paper: workspace cells used many more times than input cells)\n"
    ));
    out
}

/// Table 2: extra COPY gates for memory-access-aware shuffling.
#[must_use]
pub fn table2_report() -> String {
    let mut out = String::from("== Table 2: access-aware shuffling overhead (%) ==\n");
    let paper_mul = [25.0, 10.0, 4.55, 2.17, 1.06];
    let paper_add = [76.47, 67.57, 63.64, 61.78, 60.88];
    let mut rows = Vec::new();
    for (i, row) in access_aware::table2().iter().enumerate() {
        rows.push(vec![
            row.bits.to_string(),
            format!("{:.2}", row.mul_percent),
            format!("{:.2}", paper_mul[i]),
            format!("{:.2}", row.add_percent),
            format!("{:.2}", paper_add[i]),
            format!("{:.2}", 100.0 * access_aware::mul_overhead_nand_scheme(row.bits)),
            format!("{:.2}", 100.0 * access_aware::add_overhead_nand_scheme(row.bits)),
        ]);
    }
    out.push_str(&text_table(
        &["bits", "mul %", "(paper)", "add %", "(paper)", "mul % (nand)", "add % (nand)"],
        &rows,
    ));
    out.push_str("\n(the nand columns are this implementation's executed-gate ablation)\n");
    out
}

/// Fig. 11b: usable bits per lane vs. failed cells in the array.
#[must_use]
pub fn fig11_report() -> String {
    let mut out = String::from(
        "== Fig. 11b: % usable bits per lane vs % failed cells (analytic + Monte Carlo) ==\n",
    );
    let mut rows = Vec::new();
    for permille in [0u32, 1, 2, 5, 10, 20, 50] {
        let f = f64::from(permille) / 1000.0;
        let mut row = vec![format!("{:.1}", f * 100.0)];
        for lanes in [256usize, 512, 1024] {
            row.push(format!("{:.2}", 100.0 * failure::usable_fraction(f, lanes)));
        }
        let dims = ArrayDims::new(128, 128);
        let mc = failure::usable_fraction_monte_carlo(
            dims,
            (f * dims.cells() as f64).round() as usize,
            40,
            7,
        );
        row.push(format!("{:.2}", 100.0 * mc));
        rows.push(row);
    }
    out.push_str(&text_table(
        &["% failed", "256 lanes", "512 lanes", "1024 lanes", "MC 128x128"],
        &rows,
    ));
    out.push_str(
        "\n(paper: available space collapses within fractions of a percent of failures,\n\
         irrespective of array size)\n",
    );
    out
}

/// §3.3's lane-set partitioning workaround.
#[must_use]
pub fn lanesets_report() -> String {
    let mut out = String::from("== §3.3: lane sets — usable space vs throughput ==\n");
    for f in [0.001f64, 0.002, 0.005] {
        out.push_str(&format!("\nfailed fraction {:.1}%:\n", f * 100.0));
        let mut rows = Vec::new();
        for t in failure::lane_set_tradeoffs(1024, f, &[1, 2, 4, 8, 16]) {
            rows.push(vec![
                t.sets.to_string(),
                format!("{:.1}", t.usable_fraction * 100.0),
                format!("{:.2}", t.relative_throughput * 100.0),
            ]);
        }
        out.push_str(&text_table(&["sets", "% usable", "% throughput"], &rows));
    }
    out
}

/// The heatmap figures: Fig. 14 (multiplication), Fig. 15 (convolution),
/// Fig. 16 (dot-product). `which` ∈ {"mul", "conv", "dot"}.
#[must_use]
pub fn heatmap_report(which: &str, scale: Scale) -> String {
    heatmap_report_via(which, scale, false)
}

/// [`heatmap_report`] with an explicit engine choice, so the regression
/// test can pin the analytic path against the replay path bit-for-bit.
fn heatmap_report_via(which: &str, scale: Scale, force_simulator: bool) -> String {
    let (workload, figure) = match which {
        "mul" => (scale.mul_workload(), "Fig. 14 (multiplication)"),
        "conv" => (scale.conv_workload(), "Fig. 15 (convolution)"),
        "dot" => (scale.dot_workload(), "Fig. 16 (dot-product)"),
        other => panic!("unknown workload `{other}` (expected mul, conv, dot)"),
    };
    let mut out = format!(
        "== {figure}: write distributions, {} iterations, re-compile {} ==\n",
        scale.iterations,
        scale.sim_config().schedule,
    );
    let results = matrix_results(&workload, scale, force_simulator);
    for result in &results {
        let config = result.config;
        out.push_str(&format!(
            "\n-- {config}: max {} writes/cell, imbalance {:.2}x, gini {:.3} --\n",
            result.wear.max_writes(),
            result.wear.imbalance(),
            result.wear.gini()
        ));
        out.push_str(&ascii_heatmap(&result.wear, 24, 72));
        out.push('\n');
    }
    // Aggregate panel: total wear across every configuration, a quick
    // visual check that balancing conserves writes while moving them.
    let combined = nvpim_array::WearMap::merged(scale.dims, results.iter().map(|r| r.wear.clone()));
    out.push_str(&format!(
        "\n-- all 18 configs combined: {} total writes --\n",
        combined.total_writes()
    ));
    out.push_str(&ascii_heatmap(&combined, 24, 72));
    out.push('\n');
    out
}

/// All 18 configurations of one workload at `scale`, in the paper's
/// order. The replay-free analytic engine answers unless the run samples
/// per-epoch wear trajectories (`repro --series-out`), which only the
/// simulator records; both give bit-identical wear.
fn matrix_results(workload: &Workload, scale: Scale, force_simulator: bool) -> Vec<SimResult> {
    let cfg = scale.sim_config();
    if force_simulator || cfg.epoch_series {
        EnduranceSimulator::new(cfg).run_all_configs_parallel(workload, scale.jobs)
    } else {
        nvpim_core::run_configs_analytic(workload, &BalanceConfig::all(), cfg, scale.jobs)
    }
}

/// One benchmark's Fig. 17 data: lifetime improvement per configuration
/// relative to `St × St`.
#[must_use]
pub fn fig17_data(workload: &Workload, scale: Scale) -> Vec<(BalanceConfig, f64)> {
    let model = LifetimeModel::mtj();
    let results = matrix_results(workload, scale, false);
    let baseline_run =
        results.iter().find(|r| r.config.is_static()).expect("StxSt is part of the matrix").clone();
    results
        .into_iter()
        .map(|result| (result.config, model.improvement(&result, &baseline_run)))
        .collect()
}

/// Fig. 17: lifetime improvement bars for all three benchmarks.
#[must_use]
pub fn fig17_report(scale: Scale) -> String {
    let workloads = scale.all_workloads();
    let data: Vec<Vec<(BalanceConfig, f64)>> =
        workloads.iter().map(|wl| fig17_data(wl, scale)).collect();
    let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
    fig17_table(&names, &data, scale.iterations)
}

/// Renders the Fig. 17 table from an already-computed improvement matrix.
///
/// # Panics
///
/// Panics if `data` is empty or its series disagree on the config order.
#[must_use]
pub fn fig17_table(
    workload_names: &[&str],
    data: &[Vec<(BalanceConfig, f64)>],
    iterations: u64,
) -> String {
    let mut out =
        format!("== Fig. 17: lifetime improvement vs StxSt ({iterations} iterations) ==\n");
    let mut rows = Vec::new();
    for (i, (config, _)) in data[0].iter().enumerate() {
        let mut row = vec![config.to_string()];
        for series in data {
            assert_eq!(series[i].0, *config, "series must share one config order");
            row.push(format!("{:.3}x", series[i].1));
        }
        rows.push(row);
    }
    let headers: Vec<&str> =
        std::iter::once("config").chain(workload_names.iter().copied()).collect();
    out.push_str(&text_table(&headers, &rows));
    out.push_str("\npaper reference (best config, Table 3): mul 1.59x, conv 2.22x, dot 2.11x\n");
    out
}

/// Table 3: average lane utilization and best lifetime improvement.
#[must_use]
pub fn table3_report(scale: Scale) -> String {
    let data: Vec<Vec<(BalanceConfig, f64)>> =
        scale.all_workloads().iter().map(|wl| fig17_data(wl, scale)).collect();
    table3_table(scale, &data)
}

/// Renders Table 3 from an already-computed improvement matrix (one series
/// per workload, in [`Scale::all_workloads`] order).
fn table3_table(scale: Scale, data: &[Vec<(BalanceConfig, f64)>]) -> String {
    let mut out = format!(
        "== Table 3: lane utilization and best lifetime improvement ({} iterations) ==\n",
        scale.iterations
    );
    let paper = [("mul32", 100.0, 1.59), ("conv4x3w8", 84.78, 2.22), ("dot1024x32", 65.2, 2.11)];
    let mut rows = Vec::new();
    for (i, wl) in scale.all_workloads().iter().enumerate() {
        let util = 100.0 * wl.lane_utilization(ArchStyle::PresetOutput);
        let data = &data[i];
        let (best_cfg, best) =
            data.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("configs nonempty");
        rows.push(vec![
            wl.name().to_owned(),
            format!("{util:.2}"),
            format!("{:.2}", paper[i].1),
            format!("{best:.2}x ({best_cfg})"),
            format!("{:.2}x", paper[i].2),
        ]);
    }
    out.push_str(&text_table(
        &["benchmark", "util %", "(paper)", "best improvement", "(paper)"],
        &rows,
    ));
    out
}

/// §5: the re-compilation frequency study.
#[must_use]
pub fn sweep_report(scale: Scale) -> String {
    let mut out =
        format!("== §5: re-mapping frequency sweep ({} iterations, RaxRa) ==\n", scale.iterations);
    let workload = scale.mul_workload();
    let base = SimConfig::paper().with_iterations(scale.iterations);
    // Analytic sweep: every point is a replay-free lifetime query,
    // bit-identical to the simulated sweep.
    let points = sweep::remap_frequency_sweep_analytic(
        &workload,
        config("RaxRa"),
        base,
        LifetimeModel::mtj(),
        &RemapSchedule::PAPER_SWEEP,
        scale.jobs,
    );
    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            p.period.to_string(),
            fmt_value(p.lifetime_iterations),
            format!("{:.3}x", p.improvement_vs_never),
        ]);
    }
    out.push_str(&text_table(&["remap every", "lifetime (iters)", "vs never"], &rows));
    if let Some(sat) = sweep::saturation_period(&points, 0.016) {
        out.push_str(&format!(
            "\nsaturation (within 1.6% of best): every {sat} iterations \
             (paper: ~every 50 iterations)\n"
        ));
    }
    out
}

/// CI reuse check: renders the fig14–17 matrix pipeline twice in one
/// process and proves three contracts at once — byte-identical outputs
/// across passes (store hits and recycled planes return exactly what
/// recomputation on fresh planes would produce), actual sharing
/// (`artifacts.hits` advances on the warm pass), and plane recycling (the
/// warm pass takes answer planes the cold pass retired). Returns the check
/// report, or an error describing which contract broke.
///
/// # Errors
///
/// Fails if the second pass renders different bytes than the first, if it
/// records no artifact hits, or if it reuses no plane.
pub fn reuse_check_report(scale: Scale) -> Result<String, String> {
    use nvpim_array::wear::plane_reuse;
    use nvpim_core::artifacts;
    let store = artifacts::global();
    let render = || {
        let mut out = String::new();
        for which in ["mul", "conv", "dot"] {
            out.push_str(&heatmap_report(which, scale));
        }
        out.push_str(&fig17_report(scale));
        out
    };

    let before = store.stats().total();
    let first = render();
    let cold_cells = artifacts::take_provenance();
    let cold = store.stats().total();
    let cold_planes = plane_reuse();
    let second = render();
    let warm_cells = artifacts::take_provenance();
    let warm = store.stats();
    let warm_planes = plane_reuse();

    if first != second {
        return Err("reuse check failed: the second pass rendered different bytes than the first \
             (identical inputs must produce identical figures, store hits or not)"
            .into());
    }
    let warm_hits = warm.total().hits - cold.hits;
    if warm_hits == 0 {
        return Err("reuse check failed: the second pass recorded no artifact hits — the store \
             is not sharing sub-computations across passes"
            .into());
    }
    let reused = warm_planes.reused - cold_planes.reused;
    if reused == 0 {
        return Err("reuse check failed: the second pass reused no answer plane — every plane \
             the first pass retired was page-faulted again"
            .into());
    }

    let hot_cold = cold_cells.iter().filter(|c| c.hits > 0).count();
    let hot_warm = warm_cells.iter().filter(|c| c.hits > 0).count();
    let mut out = String::from("== reuse check: fig14-17 matrix twice in one process ==\n");
    out.push_str(&format!(
        "pass 1 (cold)    {} cells, {} artifact hits, {} misses ({} cells shared work)\n",
        cold_cells.len(),
        cold.hits - before.hits,
        cold.misses - before.misses,
        hot_cold,
    ));
    out.push_str(&format!(
        "pass 2 (warm)    {} cells, {} artifact hits, {} misses ({} cells shared work)\n",
        warm_cells.len(),
        warm_hits,
        warm.total().misses - cold.misses,
        hot_warm,
    ));
    out.push_str(&format!(
        "outputs          byte-identical across passes ({} bytes)\n",
        first.len()
    ));
    out.push_str(&format!(
        "planes           pass 2 reused {reused}, allocated {} fresh; {} bytes retained\n",
        warm_planes.fresh - cold_planes.fresh,
        warm_planes.retained_bytes,
    ));
    let t = warm.total();
    out.push_str(&format!(
        "store            {} entries, {} bytes resident, {} evictions (budget {})\n",
        t.entries,
        t.bytes,
        t.evictions,
        store.budget(),
    ));
    for (kind, stats) in nvpim_core::ArtifactKind::ALL.iter().zip(warm.per_kind.iter()) {
        out.push_str(&format!(
            "  {:<14} {} hits / {} misses, {} resident\n",
            kind.label(),
            stats.hits,
            stats.misses,
            stats.entries,
        ));
    }
    Ok(out)
}

/// Extension: per-iteration energy of each benchmark on each technology,
/// plus the energy cost of the access-aware shuffling overhead.
#[must_use]
pub fn energy_report(scale: Scale) -> String {
    use nvpim_nvm::{DeviceParams, EnergyModel, Technology};
    let mut out = String::from("== Extension: energy per iteration (nJ) ==\n");
    let mut rows = Vec::new();
    for wl in scale.all_workloads() {
        let mut row = vec![wl.name().to_owned()];
        for tech in [Technology::Mram, Technology::SotMram, Technology::Rram, Technology::Pcm] {
            let model = EnergyModel::from_device(&DeviceParams::for_technology(tech));
            let pj = wl.energy_per_iteration_pj(ArchStyle::PresetOutput, &model);
            row.push(format!("{:.1}", pj / 1000.0));
        }
        rows.push(row);
    }
    out.push_str(&text_table(&["benchmark", "MRAM", "SOT-MRAM", "RRAM", "PCM"], &rows));
    // Access-aware shuffling's energy tax (the Table 2 overhead in joules).
    let model = EnergyModel::from_device(&DeviceParams::for_technology(Technology::Mram));
    let mul_pj = scale.mul_workload().energy_per_iteration_pj(ArchStyle::PresetOutput, &model);
    out.push_str(&format!(
        "\naccess-aware shuffling adds ~{:.2}% gate energy to a 32-bit multiply \
         (= {:.2} nJ per iteration at MRAM energies)\n",
        100.0 * access_aware::mul_overhead_nand_scheme(32),
        mul_pj * access_aware::mul_overhead_nand_scheme(32) / 1000.0,
    ));
    out
}

/// Extension: Fig. 8 quantified — memory-access cost of a 32-bit variable
/// under each within-lane strategy, for both orientations.
#[must_use]
pub fn fig8_report() -> String {
    use nvpim_array::Orientation;
    use nvpim_balance::{access_cost, Strategy, StrategyMapper};
    let mut out = String::from(
        "== Extension (Fig. 8): accesses to read a 32-bit variable after re-mapping ==\n",
    );
    let mut rows = Vec::new();
    for strategy in Strategy::ALL {
        let mut mapper = StrategyMapper::new(strategy, 1024, 3);
        mapper.advance_epoch();
        let row_par =
            access_cost::mapped_access_cost(mapper.as_slice(), 0, 32, Orientation::RowParallel);
        let col_par =
            access_cost::mapped_access_cost(mapper.as_slice(), 0, 32, Orientation::ColumnParallel);
        rows.push(vec![
            strategy.to_string(),
            row_par.accesses.to_string(),
            if row_par.in_order { "yes" } else { "no" }.to_owned(),
            col_par.accesses.to_string(),
        ]);
    }
    out.push_str(&text_table(
        &["strategy", "row-par accesses", "in order", "col-par accesses"],
        &rows,
    ));
    out.push_str(
        "\n(paper: scattering bits is costly for row-parallel reads but immaterial for\n\
         column-parallel ones — the reason Byte-Shifting exists)\n",
    );
    out
}

/// Extension: degradation timeline — usable rows over time as the hottest
/// cells die, and the point where the workload stops fitting.
#[must_use]
pub fn degradation_report(scale: Scale) -> String {
    let workload = scale.mul_workload();
    let sim = EnduranceSimulator::new(scale.sim_config());
    let mut out = format!(
        "== Extension: degradation timeline, {} (MTJ endurance 1e12) ==\n",
        workload.name()
    );
    for label in ["StxSt", "RaxRa+Hw"] {
        let result = sim.run(&workload, config(label));
        let timeline =
            failure::degradation_timeline(&result.wear, result.iterations, 1_000_000_000_000);
        let required = workload.trace().rows_used();
        let dead = failure::iterations_until_insufficient(
            &result.wear,
            result.iterations,
            1_000_000_000_000,
            required,
        );
        out.push_str(&format!(
            "\n{label}: first row dies at {} iterations; workload (needs {} rows) \
             unfits at {} iterations; 10% of rows dead by {}\n",
            fmt_value(timeline.first().map_or(f64::INFINITY, |p| p.iterations)),
            required,
            dead.map_or("never".to_owned(), fmt_value),
            fmt_value(
                timeline
                    .iter()
                    .find(|p| p.usable_rows <= 0.9)
                    .map_or(f64::INFINITY, |p| p.iterations)
            ),
        ));
    }
    out
}

/// Extension: Eq. 4 under log-normal per-cell endurance variation.
#[must_use]
pub fn variation_report(scale: Scale) -> String {
    use nvpim_nvm::EnduranceModel;
    let workload = scale.mul_workload();
    let sim = EnduranceSimulator::new(scale.sim_config());
    let model = LifetimeModel::mtj();
    let result = sim.run(&workload, config("RaxRa"));
    let uniform = model.lifetime(&result);
    let mut out =
        String::from("== Extension: first-cell-failure lifetime under endurance variation ==\n");
    out.push_str(&format!(
        "uniform endurance (paper's assumption): {} iterations\n",
        fmt_value(uniform.iterations)
    ));
    let mut rows = Vec::new();
    for sigma in [0.1f64, 0.3, 0.5, 1.0] {
        let varied = model.lifetime_with_variation(
            &result,
            EnduranceModel::LogNormal { median: 1_000_000_000_000, sigma },
            17,
        );
        rows.push(vec![
            format!("{sigma:.1}"),
            fmt_value(varied.iterations),
            format!("{:.1}%", 100.0 * varied.iterations / uniform.iterations),
        ]);
    }
    out.push_str(&text_table(&["sigma (ln E)", "lifetime (iters)", "vs uniform"], &rows));
    out.push_str("\n(variation pulls first failure below the uniform estimate — §4's remark)\n");
    out
}

/// Extension: the fully binarized XNOR-popcount layer characterized like
/// the paper's three benchmarks.
#[must_use]
pub fn bnn_report(scale: Scale) -> String {
    use nvpim_workloads::bnn_layer::BnnLayer;
    let workload = BnnLayer::new(scale.dims, 128).build();
    let sim = EnduranceSimulator::new(scale.sim_config());
    let model = LifetimeModel::mtj();
    let baseline_run = sim.run(&workload, BalanceConfig::baseline());
    let mut out = format!(
        "== Extension: binarized (XNOR-popcount) layer, {} ({} iterations) ==\n",
        workload.name(),
        scale.iterations
    );
    out.push_str(&format!(
        "{} sequential steps/iteration ({}x fewer than mul32), utilization {:.1}%\n",
        workload.steps_per_iteration(ArchStyle::PresetOutput),
        scale.mul_workload().steps_per_iteration(ArchStyle::PresetOutput)
            / workload.steps_per_iteration(ArchStyle::PresetOutput).max(1),
        100.0 * workload.lane_utilization(ArchStyle::PresetOutput),
    ));
    let mut rows = Vec::new();
    for label in ["StxSt", "RaxSt", "StxRa", "RaxRa", "RaxRa+Hw"] {
        let run = sim.run(&workload, config(label));
        rows.push(vec![
            label.to_owned(),
            fmt_value(model.lifetime(&run).iterations),
            format!("{:.2}x", model.improvement(&run, &baseline_run)),
        ]);
    }
    out.push_str(&text_table(&["config", "lifetime (iters)", "vs StxSt"], &rows));
    out.push_str(
        "\n(binarization slashes gates per result, so the same endurance budget buys\n\
         orders of magnitude more inferences — the Pimball-style design point)\n",
    );
    out
}

/// Extension: accelerator-level lifetime (§4's server-replacement framing).
#[must_use]
pub fn system_report(scale: Scale) -> String {
    use nvpim_core::system::AcceleratorModel;
    let workload = scale.mul_workload();
    let sim = EnduranceSimulator::new(scale.sim_config());
    let model = LifetimeModel::mtj();
    let run = sim.run(&workload, config("RaxRa"));
    let array = model.lifetime(&run);
    let mut out =
        format!("== Extension: accelerator of 64 arrays running {} (RaxRa) ==\n", workload.name());
    out.push_str(&format!(
        "single array (Eq. 4): {} iterations = {:.1} days\n",
        fmt_value(array.iterations),
        array.days()
    ));
    let mut rows = Vec::new();
    for sigma in [0.0f64, 0.2, 0.4] {
        let mut row = vec![format!("{sigma:.1}")];
        for tolerate in [0usize, 3, 15] {
            let fleet =
                AcceleratorModel::new(64, tolerate).lifetime_with_spread(array, sigma, 400, 21);
            row.push(format!("{:.1}", fleet.days()));
        }
        rows.push(row);
    }
    out.push_str(&text_table(
        &["lifetime spread σ", "replace at 1st failure", "tolerate 3", "tolerate 15"],
        &rows,
    ));
    out.push_str(
        "\n(days; with realistic array-to-array spread, replacing on first failure\n\
         forfeits much of the nominal lifetime — §4's replacement question)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_reports_contain_paper_numbers() {
        let r = limits_report();
        assert!(r.contains("1.07e14") || r.contains("1.070e14"));
        assert!(r.contains("35.56"));
        let a = amplification_report();
        assert!(a.contains("153.5x"));
        let t = table2_report();
        assert!(t.contains("2.17"));
        assert!(t.contains("61.78"));
    }

    #[test]
    fn fig5_report_is_csv_like() {
        let r = fig5_report();
        assert!(r.contains("cell,writes,reads"));
        assert!(r.lines().count() > 200);
    }

    #[test]
    fn fig11_report_contains_collapse() {
        let r = fig11_report();
        assert!(r.contains("1024 lanes"));
        // At 1% failed, 1024 lanes retain ~0.003% usable.
        assert!(r.contains("0.00"));
    }

    #[test]
    fn fig17_data_tiny_scale() {
        let scale = Scale::tiny();
        let wl = scale.dot_workload();
        let data = fig17_data(&wl, scale);
        assert_eq!(data.len(), 18);
        // StxSt is its own baseline.
        let st = data.iter().find(|(c, _)| c.is_static()).unwrap();
        assert!((st.1 - 1.0).abs() < 1e-9);
        // The best configuration beats the baseline.
        let best = data.iter().map(|&(_, i)| i).fold(0.0f64, f64::max);
        assert!(best > 1.2, "best {best}");
    }

    #[test]
    fn heatmap_report_renders_all_panels() {
        let r = heatmap_report("conv", Scale::tiny());
        // 18 per-config panels plus the combined-wear panel.
        assert_eq!(r.matches("-- ").count(), 19);
        assert!(r.contains("RaxBs+Hw"));
        assert!(r.contains("all 18 configs combined"));
    }

    #[test]
    fn heatmap_report_is_jobs_invariant() {
        let serial = heatmap_report("mul", Scale::tiny().with_jobs(1));
        let parallel = heatmap_report("mul", Scale::tiny().with_jobs(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn heatmap_analytic_path_matches_simulator_bit_for_bit() {
        // The default path answers through the analytic engine; every
        // panel (all 18 configs + combined) must render byte-identically
        // to a full simulator replay.
        for which in ["mul", "conv", "dot"] {
            let analytic = heatmap_report_via(which, Scale::tiny(), false);
            let replay = heatmap_report_via(which, Scale::tiny(), true);
            assert_eq!(analytic, replay, "{which}: analytic heatmap diverges from replay");
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn heatmap_rejects_unknown() {
        let _ = heatmap_report("fft", Scale::tiny());
    }

    #[test]
    fn extension_reports_render() {
        let scale = Scale::tiny();
        let e = energy_report(scale);
        assert!(e.contains("PCM"));
        let b = bnn_report(scale);
        assert!(b.contains("bnn128"));
        let s = system_report(scale);
        assert!(s.contains("tolerate 15"));
        let f = fig8_report();
        assert!(f.contains("Ra"));
        assert!(f.contains("in order"));
        let d = degradation_report(scale);
        assert!(d.contains("first row dies"));
        let v = variation_report(scale);
        assert!(v.contains("vs uniform"));
    }
}
