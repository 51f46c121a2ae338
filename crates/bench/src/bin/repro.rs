//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! Usage: repro <command> [--full] [--iters N]
//!
//! Commands:
//!   amplification   §3.1 PIM vs CPU write amplification
//!   limits          §3.1 Eq. 1 / Eq. 2 + per-technology bounds
//!   fig5            per-cell access profile of one 32-bit multiply
//!   table2          access-aware shuffling overheads
//!   fig11           usable bits vs failed cells
//!   fig14           multiplication write-distribution heatmaps
//!   fig15           convolution write-distribution heatmaps
//!   fig16           dot-product write-distribution heatmaps
//!   fig17           lifetime improvement per balancing configuration
//!   table3          lane utilization + best lifetime improvement
//!   sweep           §5 re-compilation frequency sweep
//!   lanesets        §3.3 lane-set partitioning trade-off
//!   energy          extension: per-iteration energy per technology
//!   fig8            extension: re-mapped variable access costs
//!   degradation     extension: usable rows over time as cells die
//!   variation       extension: lifetime under per-cell endurance spread
//!   bnn             extension: binarized XNOR-popcount layer
//!   system          extension: accelerator-of-arrays lifetime
//!   serve-smoke     boot an in-process nvpim-serve, round-trip requests,
//!                   verify byte-identity + cache hits + graceful drain
//!   reuse-check     run the fig14–17 matrix twice in one process; assert
//!                   byte-identical outputs and artifact-store hits on the
//!                   warm pass
//!   check           static verification passes (also `--check`); exits 1
//!                   on any finding
//!   all             everything above (except check, serve-smoke, and
//!                   reuse-check)
//!
//! Options:
//!   --full          run at the paper's full scale (100 000 iterations)
//!   --iters N       override the iteration count
//!   --jobs N        worker threads for independent simulations
//!                   (default 0 = auto: NVPIM_THREADS, else all cores)
//!   --json          wrap each report in the machine-readable JSON envelope
//!                   (`nvpim.report/v1`, same encoder nvpim-serve uses)
//!   --progress      live iteration/ETA progress lines on stderr
//!   --metrics-out F stream simulator events to F as JSONL
//!   --manifest F    write a run-manifest JSON artifact to F
//!   --trace-out F   record hierarchical spans for the whole run and write
//!                   them to F as Chrome trace-event JSON (Perfetto-loadable)
//!   --series-out F  sample the per-epoch wear trajectory and write the
//!                   collected time-series to F as JSON
//! ```

use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use nvpim_bench::{experiments, Scale};
use nvpim_obs::{
    observer, EventSink, FanoutSink, Json, JsonlSink, Observer, RunManifest, StderrProgressSink,
    TraceRecorder,
};

/// Report destination: stdout (text or `--json` envelopes) plus an optional
/// `--out DIR` copy (`<name>.txt`, or `<name>.json` in JSON mode).
struct Emitter {
    out_dir: Option<PathBuf>,
    json: bool,
    config: Json,
}

impl Emitter {
    fn emit(&self, name: &str, content: &str) {
        if self.json {
            let doc = nvpim_serve::wire::report_envelope(name, self.config.clone(), content)
                .render_pretty();
            println!("{doc}");
            self.write(name, "json", &doc);
        } else {
            print!("{content}");
            self.write(name, "txt", content);
        }
    }

    fn write(&self, name: &str, ext: &str, content: &str) {
        if let Some(dir) = &self.out_dir {
            let path = dir.join(format!("{name}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `repro --check` is an alias for the `check` sub-command, so the
    // verification mode composes with any invocation style.
    let command = if args.iter().any(|a| a == "--check") {
        "check"
    } else {
        args.first().map(String::as_str).unwrap_or("help")
    };
    let mut exit_code = 0;

    let mut scale = Scale::default_scale();
    if args.iter().any(|a| a == "--full") {
        scale = Scale::paper();
    }
    if let Some(pos) = args.iter().position(|a| a == "--iters") {
        let n = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| die("--iters needs a positive integer"));
        scale = scale.with_iterations(n);
    }
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let n = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die("--jobs needs a non-negative integer (0 = auto)"));
        scale = scale.with_jobs(n);
    }
    let out_dir: Option<PathBuf> = args.iter().position(|a| a == "--out").map(|pos| {
        let dir = PathBuf::from(
            args.get(pos + 1).map(String::as_str).unwrap_or_else(|| die("--out needs a directory")),
        );
        if let Err(e) = std::fs::create_dir_all(&dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
        dir
    });

    let progress = args.iter().any(|a| a == "--progress");
    let metrics_out = flag_path(&args, "--metrics-out");
    let manifest_out = flag_path(&args, "--manifest");
    let trace_out = flag_path(&args, "--trace-out");
    let series_out = flag_path(&args, "--series-out");
    if series_out.is_some() {
        scale = scale.with_series(true);
    }
    let observe = progress
        || metrics_out.is_some()
        || manifest_out.is_some()
        || trace_out.is_some()
        || series_out.is_some();
    let tracer = trace_out.is_some().then(|| Arc::new(TraceRecorder::new()));
    let obs = observe.then(|| install_observer(progress, metrics_out.as_deref(), tracer.clone()));
    // Open the run's root span before the command executes and park it as
    // the ambient context, so parallel workers join one coherent trace.
    let root = tracer.as_ref().map(|t| {
        let span = t.begin_trace(&format!("repro.{command}"));
        t.set_ambient(span.context());
        span
    });
    let emitter = Emitter {
        out_dir: out_dir.clone(),
        json: args.iter().any(|a| a == "--json"),
        config: scale_config_json(scale),
    };
    let run_start = Instant::now();

    match command {
        "amplification" => emitter.emit("amplification", &experiments::amplification_report()),
        "limits" => emitter.emit("limits", &experiments::limits_report()),
        "fig5" => emitter.emit("fig5", &experiments::fig5_report()),
        "table2" => emitter.emit("table2", &experiments::table2_report()),
        "fig11" => emitter.emit("fig11", &experiments::fig11_report()),
        "fig14" => emitter.emit("fig14", &experiments::heatmap_report("mul", scale)),
        "fig15" => emitter.emit("fig15", &experiments::heatmap_report("conv", scale)),
        "fig16" => emitter.emit("fig16", &experiments::heatmap_report("dot", scale)),
        "fig17" => emitter.emit("fig17", &experiments::fig17_report(scale)),
        "table3" => emitter.emit("table3", &experiments::table3_report(scale)),
        "sweep" => emitter.emit("sweep", &experiments::sweep_report(scale)),
        "lanesets" => emitter.emit("lanesets", &experiments::lanesets_report()),
        "energy" => emitter.emit("energy", &experiments::energy_report(scale)),
        "fig8" => emitter.emit("fig8", &experiments::fig8_report()),
        "degradation" => emitter.emit("degradation", &experiments::degradation_report(scale)),
        "variation" => emitter.emit("variation", &experiments::variation_report(scale)),
        "bnn" => emitter.emit("bnn", &experiments::bnn_report(scale)),
        "system" => emitter.emit("system", &experiments::system_report(scale)),
        "serve-smoke" => match serve_smoke_report(out_dir.as_deref()) {
            Ok(report) => emitter.emit("serve-smoke", &report),
            Err(e) => {
                eprintln!("serve-smoke failed: {e}");
                exit_code = 1;
            }
        },
        "reuse-check" => match experiments::reuse_check_report(scale) {
            Ok(report) => emitter.emit("reuse-check", &report),
            Err(e) => {
                eprintln!("reuse-check failed: {e}");
                exit_code = 1;
            }
        },
        "check" => {
            let report = nvpim_check::run_all(&nvpim_check::CheckOptions::default());
            emitter.emit("check", &report.render_summary());
            if let Some(dir) = &out_dir {
                let path = dir.join("check.json");
                if let Err(e) = std::fs::write(&path, report.to_json().render_pretty()) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                }
            }
            if !report.is_clean() {
                exit_code = 1;
            }
        }
        "all" => {
            emitter.emit("amplification", &experiments::amplification_report());
            println!();
            emitter.emit("limits", &experiments::limits_report());
            println!();
            emitter.emit("table2", &experiments::table2_report());
            println!();
            emitter.emit("fig11", &experiments::fig11_report());
            println!();
            emitter.emit("lanesets", &experiments::lanesets_report());
            println!();
            emitter.emit("fig5", &experiments::fig5_report());
            println!();
            for (name, which) in [("fig14", "mul"), ("fig15", "conv"), ("fig16", "dot")] {
                emitter.emit(name, &experiments::heatmap_report(which, scale));
                println!();
            }
            emitter.emit("fig17", &experiments::fig17_report(scale));
            println!();
            emitter.emit("table3", &experiments::table3_report(scale));
            println!();
            emitter.emit("sweep", &experiments::sweep_report(scale));
            println!();
            emitter.emit("energy", &experiments::energy_report(scale));
            println!();
            emitter.emit("fig8", &experiments::fig8_report());
            println!();
            emitter.emit("degradation", &experiments::degradation_report(scale));
            println!();
            emitter.emit("variation", &experiments::variation_report(scale));
            println!();
            emitter.emit("bnn", &experiments::bnn_report(scale));
            println!();
            emitter.emit("system", &experiments::system_report(scale));
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }

    // Close the root span before exporting so its duration covers the
    // whole command.
    drop(root);
    if let Some(obs) = &obs {
        obs.flush();
        if let Some(path) = &manifest_out {
            let manifest = build_manifest(command, &args, scale, obs);
            let doc = manifest.with_wall_ns(run_start.elapsed().as_nanos() as u64).render();
            if let Err(e) = std::fs::write(path, doc) {
                die(&format!("cannot write manifest {}: {e}", path.display()));
            }
        }
        if let Some(path) = &series_out {
            let doc = obs.series().snapshot().to_json().render_pretty();
            if let Err(e) = std::fs::write(path, doc) {
                die(&format!("cannot write series {}: {e}", path.display()));
            }
        }
    }
    if let (Some(tracer), Some(path)) = (&tracer, &trace_out) {
        tracer.clear_ambient();
        if let Err(e) = std::fs::write(path, tracer.chrome_trace()) {
            die(&format!("cannot write trace {}: {e}", path.display()));
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// The value following a `--flag PATH` pair, if the flag is present.
fn flag_path(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter().position(|a| a == flag).map(|pos| {
        PathBuf::from(
            args.get(pos + 1)
                .map(String::as_str)
                .unwrap_or_else(|| die(&format!("{flag} needs a file path"))),
        )
    })
}

/// Installs the process-wide observer the simulator reports into. Always
/// installed when any observability flag is given (`--manifest` alone still
/// needs metric aggregation, just no forwarding).
fn install_observer(
    progress: bool,
    metrics_out: Option<&std::path::Path>,
    tracer: Option<Arc<TraceRecorder>>,
) -> Arc<Observer> {
    let mut fan = FanoutSink::new();
    if progress {
        fan = fan.with(StderrProgressSink::new());
    }
    if let Some(path) = metrics_out {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", path.display())));
        fan = fan.with(JsonlSink::new(BufWriter::new(file)));
    }
    let mut observer = Observer::new(fan);
    if let Some(tracer) = tracer {
        observer = observer.with_tracer(tracer);
    }
    match observer::install(observer) {
        Ok(obs) => obs,
        Err(_) => die("observer already installed"),
    }
}

/// Assembles the run-manifest artifact: invocation, scale/config, aggregated
/// metrics and per-phase timings, and the headline lifetime tallies.
fn build_manifest(command: &str, args: &[String], scale: Scale, obs: &Observer) -> RunManifest {
    let snap = obs.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let mut config = scale_config_json(scale);
    if let Some(paths) = analytic_paths_json(command, scale) {
        config = config.with("analytic_paths", paths);
    }
    // Artifact-store provenance: the store's traffic totals plus each
    // matrix cell's own hit/miss tally, so a manifest states not
    // just what numbers a figure carries but how much of their
    // computation was reused.
    let mut artifacts = nvpim_core::artifacts::global().stats().to_json();
    let cells = nvpim_core::artifacts::take_provenance();
    if !cells.is_empty() {
        let cells: Vec<Json> = cells
            .iter()
            .map(|c| {
                Json::object()
                    .with("cell", c.label.as_str())
                    .with("hits", c.hits)
                    .with("misses", c.misses)
            })
            .collect();
        artifacts = artifacts.with("cells", Json::Arr(cells));
    }
    // Whether the run's answer planes were recycled or page-faulted fresh.
    let planes = nvpim_array::wear::plane_reuse();
    artifacts = artifacts.with(
        "planes",
        Json::object()
            .with("reused", planes.reused)
            .with("fresh", planes.fresh)
            .with("retained_bytes", planes.retained_bytes),
    );
    config = config.with("artifacts", artifacts);
    RunManifest::new(command)
        .with_command(args.iter().cloned())
        .with_config(config)
        .with_lifetime(
            Json::object()
                .with("simulated_iterations", count("sim.iterations"))
                .with("analytic_queries", count("sim.analytic_queries"))
                .with("total_cell_writes", count("array.cell_writes"))
                .with("total_cell_reads", count("array.cell_reads"))
                .with("remap_events", count("balance.remap_events"))
                .with("hw_redirects", count("balance.hw_redirects")),
        )
        .with_observer(obs)
}

/// Which analytic-engine path answers each configuration for commands that
/// route through the replay-free engine (the `fig14`–`fig16` heatmap
/// panels, the `fig17`/`table3` matrices, the `sweep` point, and `all`,
/// which runs them all) — `closed_form` or `lazy` per the reducibility
/// ladder, recorded so a manifest states how its numbers were
/// produced.
fn analytic_paths_json(command: &str, scale: Scale) -> Option<Json> {
    use nvpim_balance::BalanceConfig;
    let cfg = scale.sim_config();
    let label = |config: BalanceConfig| {
        nvpim_core::analytic::classify(config, cfg.schedule, scale.dims, cfg.track_reads).label()
    };
    match command {
        "fig14" | "fig15" | "fig16" | "fig17" | "table3" | "all" => {
            let mut obj = Json::object();
            for config in BalanceConfig::all() {
                obj = obj.with(&config.to_string(), label(config));
            }
            Some(obj)
        }
        "sweep" => {
            Some(Json::object().with("RaxRa", label("RaxRa".parse().expect("valid config"))))
        }
        _ => None,
    }
}

/// The worker count a scale actually runs with (`0` = environment-driven).
fn resolved_jobs(scale: Scale) -> usize {
    nvpim_exec::JobPool::new(scale.jobs).threads()
}

/// The run configuration as JSON — shared by the `--manifest` artifact and
/// the `--json` report envelope so both describe a run identically.
fn scale_config_json(scale: Scale) -> Json {
    let cfg = scale.sim_config();
    Json::object()
        .with("iterations", scale.iterations)
        .with("rows", scale.dims.rows())
        .with("lanes", scale.dims.lanes())
        .with("elements", scale.elements)
        .with("seed", cfg.seed)
        .with("arch", cfg.arch.to_string())
        .with("remap_period", cfg.schedule.period().unwrap_or(0))
        .with("jobs", resolved_jobs(scale) as u64)
}

/// Boots an in-process nvpim-serve instance, round-trips a request twice
/// (miss, then cache hit), checks byte-identity, the service metrics, and
/// the Prometheus exposition, and renders a short report. A second seed of
/// the same shape must borrow the memoized workload (a
/// `serve.workload_memo.hits` gauge above zero) and answer the bytes fresh
/// synthesis gives. Exercises the full HTTP path end-to-end without any
/// external tooling. Under `--out` the Prometheus text is kept as
/// `serve-metrics.prom` so CI can re-lint the artifact with
/// `obs-lint --prom`.
fn serve_smoke_report(out_dir: Option<&std::path::Path>) -> Result<String, String> {
    use std::str::FromStr as _;

    use nvpim_serve::{wire, Client, Server, ServerConfig, SimRequest};

    let handle = Server::start(ServerConfig::default()).map_err(|e| e.to_string())?;
    let client = Client::new(handle.addr());
    let body = r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8}, "iterations": 50}"#;
    let reseeded =
        r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8}, "iterations": 50, "seed": 7}"#;

    let first = client.post_json("/simulate", body)?;
    let second = client.post_json("/simulate", body)?;
    let third = client.post_json("/simulate", reseeded)?;
    let metrics = client.get("/metrics")?.json()?;
    let prom = client.get("/metrics?format=prometheus")?;
    handle.request_shutdown();
    handle.join();

    if first.status != 200 || second.status != 200 {
        return Err(format!("expected 200s, got {} and {}", first.status, second.status));
    }
    if first.text() != second.text() {
        return Err("identical requests returned different bytes".into());
    }
    if second.header("x-cache") != Some("hit") {
        return Err("second identical request did not hit the cache".into());
    }
    let hits = metrics
        .get("serve")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if hits == 0 {
        return Err("cache-hit metric did not advance".into());
    }
    if third.status != 200 || third.header("x-cache") != Some("miss") {
        return Err(format!("a second seed answered {} without a cache miss", third.status));
    }
    let memo_hits = metrics
        .get("metrics")
        .and_then(|m| m.get("serve.workload_memo.hits"))
        .and_then(|g| g.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if memo_hits < 1.0 {
        return Err("a second seed of one shape did not reuse the memoized workload".into());
    }
    let request = SimRequest::from_str(reseeded).map_err(|e| e.to_string())?;
    let workload = request.build_workload();
    let fresh =
        nvpim_core::AnalyticWearEngine::new(&workload, request.config, request.sim_config())
            .result_at(request.iterations);
    if third.text() != wire::result_body(&request, &fresh) {
        return Err("the memoized workload answered other bytes than fresh synthesis".into());
    }
    let key = first
        .json()?
        .get("key")
        .and_then(Json::as_str)
        .ok_or("result document carries no key")?
        .to_owned();
    if prom.status != 200 {
        return Err(format!("prometheus exposition answered {}", prom.status));
    }
    let prom_text = prom.text();
    let prom_stats = nvpim_obs::validate::prometheus(&prom_text)
        .map_err(|e| format!("prometheus exposition invalid: {e}"))?;
    if let Some(dir) = out_dir {
        let path = dir.join("serve-metrics.prom");
        if let Err(e) = std::fs::write(&path, &prom_text) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    let mut report = String::new();
    report.push_str("serve smoke test (in-process nvpim-serve)\n");
    report.push_str("=========================================\n");
    report.push_str(&format!("request          {body}\n"));
    report.push_str(&format!("cache key        {key}\n"));
    report.push_str("first request    200 (x-cache: miss)\n");
    report.push_str("second request   200 (x-cache: hit), byte-identical\n");
    report.push_str(&format!("cache hits       {hits}\n"));
    report.push_str("second seed      200 (x-cache: miss), same bytes as fresh synthesis\n");
    report.push_str(&format!("workload memo    {memo_hits} hit(s)\n"));
    report.push_str(&format!(
        "prometheus       {} families ({} histograms), {} samples\n",
        prom_stats.families, prom_stats.histograms, prom_stats.samples
    ));
    report.push_str("graceful drain   ok\n");
    Ok(report)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

const USAGE: &str = "\
Usage: repro <command> [--full] [--iters N] [--jobs N]

Commands:
  amplification  limits  fig5  table2  fig11  fig14  fig15  fig16
  fig17  table3  sweep  lanesets  energy  fig8  degradation  variation
  bnn  system  serve-smoke  reuse-check  check  all

Options:
  --full            paper scale (100 000 iterations)
  --check           alias for the check sub-command (static verification
                    passes; exits 1 on any finding)
  --iters N         override iteration count (default 2 000)
  --jobs N          worker threads for independent simulations
                    (default 0 = auto: NVPIM_THREADS, else all cores)
  --json            wrap each report in the nvpim.report/v1 JSON envelope
  --out DIR         also write each report to DIR/<command>.txt (.json
                    under --json)
  --progress        live iteration/ETA progress lines on stderr
  --metrics-out F   stream simulator events to F as JSONL
  --manifest F      write a run-manifest JSON artifact to F
  --trace-out F     write the run's spans to F as Chrome trace-event JSON
                    (load in Perfetto / chrome://tracing)
  --series-out F    sample the per-epoch wear trajectory and write it to F";
