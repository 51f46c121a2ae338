//! End-to-end benchmark of the nvpim workspace.
//!
//! ```text
//! e2ebench --workload <paper-matrix|remap-sweep|serve-mix> --seed N
//!          --seconds S --trace <0|1> [--scale paper|tiny]
//!          [--record FILE] [--out DIR]
//! ```
//!
//! The parent process runs rounds, each in a fresh child process (so every
//! round starts from a cold artifact store, as a user's run does), until
//! `--seconds` have passed, then prints the environment stamp, a summary,
//! and — as its last line — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`; `--trace 1` adds traced rounds and reports the
//! per-layer metrics, writing a Chrome trace and a self/total table under
//! `--out`. See `README.md` next to this file.

mod cells;
mod digest;
mod layers;
mod round;
mod serve;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use nvpim_core::{artifacts, SimConfig};
use nvpim_exec::ParallelRunner;
use nvpim_obs::Json;

use crate::digest::Reference;
use crate::layers::FlameSum;
use crate::round::Round;
use crate::stats::{median, quantile};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_s", "s"),
    ("req_per_s", "1/s"),
    ("hit_p50_us", "us"),
    ("hit_p90_us", "us"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// a workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.build_s", "s"),
    ("analytic.cells.closed_form", "count"),
    ("analytic.cells.lazy", "count"),
    ("analytic.cells.fallback", "count"),
    ("analytic.query_s.closed_form", "s"),
    ("analytic.query_s.lazy", "s"),
    ("analytic.query_s.fallback", "s"),
    ("analytic.us_per_epoch.lazy", "us"),
    ("analytic.us_per_epoch.fallback", "us"),
    ("analytic.build_s.closed_form", "s"),
    ("analytic.build_s.lazy", "s"),
    ("analytic.build_s.fallback", "s"),
    ("artifacts.hits.panels", "count"),
    ("artifacts.hits.kernels", "count"),
    ("artifacts.hits.closed_forms", "count"),
    ("artifacts.misses.panels", "count"),
    ("artifacts.misses.kernels", "count"),
    ("artifacts.misses.closed_forms", "count"),
    ("artifacts.hit_ratio.panels", "ratio"),
    ("artifacts.hit_ratio.kernels", "ratio"),
    ("artifacts.hit_ratio.closed_forms", "ratio"),
    ("artifacts.evictions", "count"),
    ("artifacts.resident_bytes", "bytes"),
    ("exec.busy_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.max_cell_s", "s"),
    ("lifetime.s", "s"),
    ("render.s", "s"),
    ("serve.canonicalize_us", "us"),
    ("serve.server_us.hit", "us"),
    ("serve.server_us.miss", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.timed_out", "count"),
    ("serve.no_spin.hit_p50_us", "us"),
    ("serve.no_spin.hit_p90_us", "us"),
    ("serve.no_spin.req_per_s", "1/s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.attributed_share", "ratio"),
];

/// Rounds of each pass a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Serve-mix splits its time into this many child servers; with
/// `--trace 1`, into twice three (library, traced and no-spin in turn).
const SERVE_ROUNDS: usize = 4;
const SERVE_TRACE_ROUNDS: usize = 6;
/// No new round starts after this many seconds, so a run ends well
/// inside three minutes even on a slow machine.
const LAST_START_S: f64 = 120.0;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The Fig. 17 matrix: 3 workloads × 18 configs at 1024×1024.
    PaperMatrix,
    /// The §5 remap-frequency sweep of RaxRa on mul32.
    RemapSweep,
    /// Hot and cold `/simulate` requests against an in-process server.
    ServeMix,
}

impl WorkloadKind {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-matrix" => Some(WorkloadKind::PaperMatrix),
            "remap-sweep" => Some(WorkloadKind::RemapSweep),
            "serve-mix" => Some(WorkloadKind::ServeMix),
            _ => None,
        }
    }

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperMatrix => "paper-matrix",
            WorkloadKind::RemapSweep => "remap-sweep",
            WorkloadKind::ServeMix => "serve-mix",
        }
    }
}

/// What a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pass {
    /// The library's entry points, untraced. On `paper-matrix` and
    /// `remap-sweep` this gives `run_s` and `req_per_s`; on `serve-mix`
    /// (where the server is the library) every end-to-end metric.
    #[default]
    Library,
    /// The benchmark's per-cell copy of the matrix or sweep fan-out,
    /// untraced: the per-cell latencies, and the untraced side of
    /// `obs.trace_overhead`.
    Cells,
    /// The per-cell copy (or, on `serve-mix`, the library) with every
    /// layer call in a span: the per-layer metrics.
    Traced,
    /// The library without the idle spinners that the other `serve-mix`
    /// rounds run beside the server (see `serve.rs`); its figures are the
    /// `serve.no_spin.*` layer metrics. Only `serve-mix` runs it, with
    /// `--trace 1`; elsewhere, with no spinners, it is a library round.
    NoSpin,
}

impl Pass {
    /// The pass of round `index`. Library rounds alternate with cell
    /// rounds untraced; with `--trace 1`, traced rounds alternate with the
    /// untraced rounds that run the same code (and, on `serve-mix`, with
    /// no-spin rounds).
    fn of_round(workload: WorkloadKind, trace: bool, index: usize) -> Self {
        match (workload == WorkloadKind::ServeMix, trace) {
            (true, false) => Pass::Library,
            (true, true) => [Pass::Library, Pass::Traced, Pass::NoSpin][index % 3],
            (false, false) => [Pass::Library, Pass::Cells][index % 2],
            (false, true) => [Pass::Cells, Pass::Traced][index % 2],
        }
    }

    /// The pass's name on the child's command line and on the wire.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Pass::Library => "library",
            Pass::Cells => "cells",
            Pass::Traced => "traced",
            Pass::NoSpin => "no-spin",
        }
    }

    /// The pass named `label`.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        [Pass::Library, Pass::Cells, Pass::Traced, Pass::NoSpin]
            .into_iter()
            .find(|p| p.label() == label)
    }
}

/// What one round runs.
pub struct Job {
    /// The workload.
    pub workload: WorkloadKind,
    /// The benchmark seed from the command line.
    pub seed: u64,
    /// Tiny dimensions for smoke tests instead of paper scale.
    pub tiny: bool,
    /// What the round runs.
    pub pass: Pass,
    /// Seconds a serve-mix round drives load.
    pub slice_s: f64,
    /// Index of the round within the run.
    pub round_index: usize,
    /// Worker threads and client connections (`nproc`).
    pub jobs: usize,
    /// Recorded output digests.
    pub reference: Reference,
    /// Where traced rounds write their artifacts.
    pub out_dir: PathBuf,
}

impl Job {
    /// The simulator seed: the repository's default seed offset by the
    /// benchmark seed, so seed 0 reproduces `repro`'s numbers.
    #[must_use]
    pub fn sim_seed(&self) -> u64 {
        SimConfig::paper().seed.wrapping_add(self.seed)
    }

    /// `paper` or `tiny`.
    #[must_use]
    pub fn scale_label(&self) -> &'static str {
        scale_label(self.tiny)
    }
}

/// `paper` or `tiny`.
fn scale_label(tiny: bool) -> &'static str {
    if tiny {
        "tiny"
    } else {
        "paper"
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    record: Option<PathBuf>,
    out_dir: PathBuf,
    child: Option<(usize, Pass, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let take = |key: &str| flags.get(key).cloned();
    let number = |key: &str, default: &str| -> Result<f64, String> {
        let text = take(key).unwrap_or_else(|| default.to_owned());
        text.parse::<f64>().map_err(|_| format!("`--{key}` must be a number, got `{text}`"))
    };
    let name = take("workload").ok_or("`--workload` is required")?;
    let workload = WorkloadKind::parse(&name)
        .ok_or(format!("unknown workload `{name}` (paper-matrix, remap-sweep, serve-mix)"))?;
    let seed = take("seed").unwrap_or_else(|| "0".into());
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("`--seed` must be a whole number, got `{seed}`"))?;
    let seconds = number("seconds", "10")?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("`--trace` must be 0 or 1, got `{other}`")),
    };
    let tiny = match take("scale").as_deref() {
        None | Some("paper") => false,
        Some("tiny") => true,
        Some(other) => return Err(format!("`--scale` must be paper or tiny, got `{other}`")),
    };
    let child = match take("child") {
        Some(index) => Some((
            index.parse().map_err(|_| "bad `--child`")?,
            take("pass").as_deref().and_then(Pass::parse).ok_or("bad `--pass`")?,
            number("slice", "1")?,
        )),
        None => None,
    };
    let known = [
        "workload", "seed", "seconds", "trace", "scale", "record", "out", "child", "pass", "slice",
    ];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag `--{unknown}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        record: take("record").map(PathBuf::from),
        out_dir: take("out").map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            PathBuf::from,
        ),
        child,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, resolved jobs, the store budget, the relevant environment and
/// the commit.
fn env_stamp(jobs: usize) -> Json {
    let var = |name: &str| std::env::var(name).map_or(Json::Null, Json::from);
    Json::object()
        .with("nproc", nproc())
        .with("jobs", jobs)
        .with("jobs_resolved", ParallelRunner::new(jobs).effective_threads(usize::MAX))
        .with("artifact_budget_bytes", artifacts::global().budget())
        .with("NVPIM_THREADS", var("NVPIM_THREADS"))
        .with("NVPIM_ARTIFACT_BUDGET", var("NVPIM_ARTIFACT_BUDGET"))
        .with("commit", commit())
}

/// Runs one round in this process and prints it as one JSON line.
fn run_child(args: &Args, index: usize, pass: Pass, slice_s: f64) {
    let job = Job {
        workload: args.workload,
        seed: args.seed,
        tiny: args.tiny,
        pass,
        slice_s,
        round_index: index,
        jobs: nproc(),
        reference: Reference::recorded(),
        out_dir: args.out_dir.clone(),
    };
    let round = match job.workload {
        WorkloadKind::PaperMatrix => cells::paper_matrix(&job),
        WorkloadKind::RemapSweep => cells::remap_sweep(&job),
        WorkloadKind::ServeMix => serve::serve_mix(&job),
    };
    println!("{}", round.to_json().render());
}

/// Spawns one round as a child process and waits for it.
fn spawn_round(args: &Args, index: usize, pass: Pass, slice_s: f64) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", scale_label(args.tiny)])
        .args(["--child", &index.to_string()])
        .args(["--pass", pass.label()])
        .args(["--slice", &slice_s.to_string()])
        .arg("--out")
        .arg(&args.out_dir);
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start round {index}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("round {index} exited with {}", output.status));
    }
    let line = stdout.lines().last().ok_or(format!("round {index} printed nothing"))?;
    Round::from_json(line).map_err(|e| format!("round {index}: {e}"))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::object().with("value", Json::Num(value)).with("unit", unit)
}

/// The end-to-end metrics: medians across rounds (of each round's own
/// percentiles, for latencies, so a percentile always ranks the same
/// answers) and the answer rate. Times, rate and peak RSS come from the
/// library rounds; latencies from the untraced rounds that measure them.
fn end_to_end(all: &[Round]) -> BTreeMap<&'static str, (f64, String)> {
    let rounds: Vec<&Round> = all.iter().filter(|r| r.pass == Pass::Library).collect();
    let latency_rounds: Vec<&Round> =
        all.iter().filter(|r| matches!(r.pass, Pass::Library | Pass::Cells)).collect();
    let of = |values: &[f64], what: &str| {
        (median(values).unwrap_or(0.0), format!("median of {} {what}", values.len()))
    };
    let latency = |samples: &dyn Fn(&Round) -> &[f64], q: f64| {
        let values: Vec<f64> =
            latency_rounds.iter().filter_map(|r| quantile(samples(r), q)).collect();
        let n: usize = latency_rounds.iter().map(|r| samples(r).len()).sum();
        of(&values, &format!("round percentiles over {n} answers"))
    };
    let run_s: Vec<f64> = rounds.iter().flat_map(|r| r.run_s.iter().copied()).collect();
    let setup: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    // Peak RSS swings with how the workers' allocations happen to
    // overlap; the run's peak is the highest any library round reached.
    let rss = rounds.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    let answers: u64 = rounds.iter().map(|r| r.answers).sum();
    let window: f64 = rounds.iter().map(|r| r.window_s).sum();
    let rate = if window > 0.0 { answers as f64 / window } else { 0.0 };
    BTreeMap::from([
        ("setup_s", of(&setup, "rounds")),
        ("peak_rss_mb", (rss, format!("highest of {} rounds", rounds.len()))),
        ("run_s", of(&run_s, "units of work")),
        ("req_per_s", (rate, format!("{answers} answers in {window:.3} s"))),
        ("hit_p50_us", latency(&|r| &r.hit_us, 0.5)),
        ("hit_p90_us", latency(&|r| &r.hit_us, 0.9)),
        ("cold_p50_ms", latency(&|r| &r.cold_ms, 0.5)),
        ("cold_p90_ms", latency(&|r| &r.cold_ms, 0.9)),
    ])
}

/// The per-layer metrics: medians over the traced rounds, the tracing
/// overhead against the untraced rounds that run the same code, and the
/// serve figures of the no-spin rounds.
fn per_layer(all: &[Round]) -> BTreeMap<&'static str, f64> {
    let of = |pass: Pass| all.iter().filter(move |r| r.pass == pass).collect::<Vec<_>>();
    let (traced, no_spin) = (of(Pass::Traced), of(Pass::NoSpin));
    let untraced = if of(Pass::Cells).is_empty() { of(Pass::Library) } else { of(Pass::Cells) };
    let run_s =
        |rs: &[&Round]| median(&rs.iter().flat_map(|r| r.run_s.clone()).collect::<Vec<_>>());
    let mut out = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> =
            traced.iter().map(|r| r.layers.get(name).copied().unwrap_or(0.0)).collect();
        out.insert(name, median(&values).unwrap_or(0.0));
    }
    if let (Some(on), Some(off)) = (run_s(&traced), run_s(&untraced)) {
        out.insert("obs.trace_overhead", on / off - 1.0);
    }
    let hit = |q: f64| {
        let values: Vec<f64> = no_spin.iter().filter_map(|r| quantile(&r.hit_us, q)).collect();
        median(&values).unwrap_or(0.0)
    };
    let answers: u64 = no_spin.iter().map(|r| r.answers).sum();
    let window: f64 = no_spin.iter().map(|r| r.window_s).sum();
    out.insert("serve.no_spin.hit_p50_us", hit(0.5));
    out.insert("serve.no_spin.hit_p90_us", hit(0.9));
    out.insert("serve.no_spin.req_per_s", if window > 0.0 { answers as f64 / window } else { 0.0 });
    out
}

/// The traced rounds' merged self/total table, with the rung split, the
/// per-kind store hit ratios and the tracing overhead underneath.
fn flame_table(traced: &[&Round], layer: &BTreeMap<&'static str, f64>, stamp: &Json) -> String {
    let mut merged: BTreeMap<String, FlameSum> = BTreeMap::new();
    for round in traced {
        layers::merge_flame(&mut merged, &round.flame);
    }
    let mut rows: Vec<(String, FlameSum)> = merged.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let n = traced.len().max(1) as f64;
    let mut out = format!("per-layer self/total, mean of {} traced round(s)\n", traced.len());
    out.push_str(&format!("{:<32} {:>8} {:>12} {:>12}\n", "span", "count", "self_s", "total_s"));
    for (name, sum) in rows {
        out.push_str(&format!(
            "{name:<32} {:>8.1} {:>12.6} {:>12.6}\n",
            sum.count as f64 / n,
            sum.self_s / n,
            sum.total_s / n
        ));
    }
    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    out.push_str(&format!(
        "rungs: closed_form {} / lazy {} / fallback {}\n",
        get("analytic.cells.closed_form"),
        get("analytic.cells.lazy"),
        get("analytic.cells.fallback")
    ));
    out.push_str(&format!(
        "store hit ratio: panels {:.3} / kernels {:.3} / closed_forms {:.3}\n",
        get("artifacts.hit_ratio.panels"),
        get("artifacts.hit_ratio.kernels"),
        get("artifacts.hit_ratio.closed_forms")
    ));
    out.push_str(&format!(
        "attributed to named layers: {:.3}; obs.trace_overhead: {:+.4}\n",
        get("obs.attributed_share"),
        get("obs.trace_overhead")
    ));
    out.push_str(&format!("env: {}\n", stamp.render()));
    out
}

fn run(args: &Args) -> Result<Json, String> {
    let started = Instant::now();
    let serve = args.workload == WorkloadKind::ServeMix;
    let min_rounds = match (serve, args.trace) {
        (true, false) => SERVE_ROUNDS,
        (true, true) => SERVE_TRACE_ROUNDS,
        (false, _) => 2 * MIN_ROUNDS,
    };
    let slice_s = args.seconds / min_rounds as f64;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || (started.elapsed().as_secs_f64() < args.seconds && !serve) {
        if started.elapsed().as_secs_f64() > LAST_START_S && rounds.len() >= 2 {
            break;
        }
        let index = rounds.len();
        let pass = Pass::of_round(args.workload, args.trace, index);
        rounds.push(spawn_round(args, index, pass, slice_s)?);
    }

    if args.workload != WorkloadKind::ServeMix {
        let set = digest::set_key(args.workload.name(), scale_label(args.tiny), args.seed);
        if Reference::recorded().get(&set).is_none() {
            cells::hold_to_first(&mut rounds, &set);
        }
    }

    let stamp = env_stamp(nproc());
    println!("{}", Json::object().with("env", stamp.clone()).render());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    for problem in rounds.iter().flat_map(|r| &r.problems).take(20) {
        eprintln!("e2ebench: {problem}");
    }
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.pass == Pass::Traced).collect();
    let mut metrics = Json::object();
    if args.trace {
        let layer = per_layer(&rounds);
        let table = flame_table(&traced, &layer, &stamp);
        print!("{table}");
        let path = args.out_dir.join(format!("{}-flame.txt", args.workload.name()));
        std::fs::write(&path, &table)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for (name, unit) in PER_LAYER {
            metrics = metrics.with(name, metric(layer[name], unit));
        }
    } else {
        let e2e = end_to_end(&rounds);
        for (name, unit) in END_TO_END {
            let (value, basis) = &e2e[name];
            println!("{name}: {value:.6} {unit} ({basis})");
            metrics = metrics.with(name, metric(*value, unit));
        }
    }

    if let Some(path) = &args.record {
        let mut reference = match std::fs::read_to_string(path) {
            Ok(text) => Reference::parse(&text)?,
            Err(_) => Reference::default(),
        };
        let first = &rounds[0].digests;
        if rounds.iter().any(|r| &r.digests != first) {
            return Err("rounds of one seed disagree; refusing to record".into());
        }
        if !first.is_empty() {
            let set = digest::set_key(args.workload.name(), scale_label(args.tiny), args.seed);
            reference.insert(set, first.clone());
            std::fs::write(path, reference.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(Json::object()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.child {
        Some((index, pass, slice_s)) => {
            run_child(&args, index, pass, slice_s);
            Ok(None)
        }
        None => run(&args).map(Some),
    };
    match outcome {
        Ok(Some(result)) => {
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::FAILURE
        }
    }
}
