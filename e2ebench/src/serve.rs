//! The `serve-mix` workload: an in-process `nvpim_serve::Server` driven by
//! a closed loop of client connections, 80% hot requests from pre-warmed
//! keys and 20% cold requests that each miss the result cache.

use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvpim_balance::BalanceConfig;
use nvpim_core::artifacts;
use nvpim_obs::Json;
use nvpim_serve::{wire, Client, Server, ServerConfig, SimRequest};

use crate::cells::{self, Rungs};
use crate::layers::{self, Scope};
use crate::round::{self, Round};
use crate::stats::{SplitMix, Stopwatch};
use crate::sys;
use crate::{Job, Pass};

/// Iterations per request at paper scale.
pub const SERVE_ITERATIONS: u64 = 2_000;
/// Requests per timed unit of work.
pub const BATCH: usize = 100;
/// Percent of requests that repeat a pre-warmed key.
const HOT_PERCENT: usize = 80;
/// One cold answer in this many is re-derived in process and compared.
const COLD_CHECK_EVERY: usize = 4;
/// A request slower than this counts as timed out.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// The two request shapes: mul32 and conv4x3w8 on a 256×64 array.
const SHAPES: [&str; 2] = [
    r#"{"kind":"mul","width":32,"rows":256,"lanes":64}"#,
    r#"{"kind":"conv","filter_rows":4,"filter_cols":3,"width":8,"rows":256,"lanes":64}"#,
];

fn body(shape: usize, config: BalanceConfig, iterations: u64, seed: u64) -> String {
    format!(
        r#"{{"workload":{},"config":"{config}","iterations":{iterations},"seed":{seed}}}"#,
        SHAPES[shape]
    )
}

/// What one request returned.
struct Reply {
    hot: Option<usize>,
    body: String,
    status: u16,
    cache_hit: bool,
    /// Hot replies: whether the bytes equal the warm-up answer.
    same_as_warm: bool,
    latency: Duration,
}

/// One spinning thread per CPU in the idle scheduling class, for the
/// length of a round (except a `Pass::NoSpin` round).
///
/// Serving a request hands work between threads several times. When a
/// virtual CPU has nothing to run it halts, and waking it again waits on the
/// hypervisor, whose latency swings with the load of other guests: without
/// the spinners, the 90th-percentile hit latency of whole runs ranged from
/// 0.6 to 1.8 ms on one shared machine within minutes. The spinners keep
/// every CPU busy, so hand-offs are woken by this kernel alone. They run
/// only when no other thread wants a CPU, and a waking thread preempts them
/// at once. What they hide shows in the `serve.no_spin.*` layer metrics.
struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdleSpinners {
    fn start(cpus: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if sys::become_idle_class() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The in-process answer for a request body: the engine the server uses,
/// rendered by the server's own encoder.
fn local_answer(body: &str, rungs: &mut Rungs, build_s: &mut f64) -> Result<String, String> {
    let request = SimRequest::from_str(body).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let workload = request.build_workload();
    *build_s += started.elapsed().as_secs_f64();
    let cell = cells::run_cell(&workload, request.config, request.sim_config(), Default::default());
    rungs.add(&cell);
    Ok(wire::result_body(&request, &cell.result))
}

/// Histogram `(count, sum)` and counter values from a `/metrics` document.
fn histogram(doc: &Json, name: &str) -> (f64, f64) {
    let h = doc.get("metrics").and_then(|m| m.get(name));
    let field = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
    (field("count"), field("sum"))
}

fn counter(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|c| c.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn metrics(client: &Client) -> Json {
    client.get("/metrics").ok().and_then(|r| r.json().ok()).unwrap_or_default()
}

/// Boots a server, warms the hot keys, and runs the closed loop for the
/// job's time slice.
pub fn serve_mix(job: &Job) -> Round {
    let iterations = if job.tiny { 200 } else { SERVE_ITERATIONS };
    let recorder = layers::recorder(job.pass == Pass::Traced);
    let rec = recorder.as_ref();
    let mut round = Round { pass: job.pass, ..Round::default() };
    let configs = BalanceConfig::all();
    let hot_seed = job.sim_seed();
    let hot: Vec<String> = (0..SHAPES.len())
        .flat_map(|shape| configs.iter().map(move |&c| (shape, c)))
        .map(|(shape, config)| body(shape, config, iterations, hot_seed))
        .collect();

    let spinners = (job.pass != Pass::NoSpin).then(|| IdleSpinners::start(job.jobs));
    let setup = Stopwatch::start();
    let server = Server::start(ServerConfig { workers: job.jobs, ..ServerConfig::default() })
        .expect("bind a loopback port");
    let client = Client::new(server.addr()).with_timeout(CLIENT_TIMEOUT);
    let warm: Vec<Option<Vec<u8>>> = hot
        .iter()
        .map(|b| client.post_json("/simulate", b).ok().filter(|r| r.status == 200).map(|r| r.body))
        .collect();
    round.setup_s = setup.elapsed_s();

    let before_metrics = metrics(&client);
    let before_store = artifacts::global().stats();
    let mut rng = SplitMix::new(hot_seed ^ (job.round_index as u64).wrapping_mul(0x9E37));
    let mut next_cold_seed = hot_seed + 1 + ((job.round_index as u64 + 1) << 32);
    let replies = Mutex::new(Vec::new());
    let root = Scope::root(rec, "bench.round");
    let started = Stopwatch::start();
    let wall = Instant::now();
    while wall.elapsed().as_secs_f64() < job.slice_s {
        let plan: Vec<(Option<usize>, String)> = (0..BATCH)
            .map(|_| {
                if rng.below(100) < HOT_PERCENT {
                    let i = rng.below(hot.len());
                    (Some(i), hot[i].clone())
                } else {
                    next_cold_seed += 1;
                    let shape = rng.below(SHAPES.len());
                    let config = configs[rng.below(configs.len())];
                    (None, body(shape, config, iterations, next_cold_seed))
                }
            })
            .collect();
        let batch = root.tracer().span("bench.batch");
        let tracer = batch.tracer();
        let batch_started = Stopwatch::start();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..job.jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((hot_key, text)) = plan.get(i) else { break };
                    let sent = Instant::now();
                    let reply = {
                        let _span = tracer.span(if hot_key.is_some() {
                            "serve.client.hot"
                        } else {
                            "serve.client.cold"
                        });
                        client.post_json("/simulate", text)
                    };
                    let latency = sent.elapsed();
                    let (status, cache_hit, bytes) = match reply {
                        Ok(r) => (r.status, r.header("x-cache") == Some("hit"), r.body),
                        Err(_) => (0, false, Vec::new()),
                    };
                    let same_as_warm =
                        hot_key.is_some_and(|k| warm[k].as_deref() == Some(bytes.as_slice()));
                    let body = if hot_key.is_none() && i % COLD_CHECK_EVERY == 0 {
                        String::from_utf8_lossy(&bytes).into_owned()
                    } else {
                        String::new()
                    };
                    let reply =
                        Reply { hot: *hot_key, body, status, cache_hit, same_as_warm, latency };
                    replies.lock().expect("reply list poisoned").push((text.clone(), reply));
                });
            }
        });
        round.run_s.push(batch_started.elapsed_s());
    }
    round.window_s = started.elapsed_s();
    drop(root);
    let after_metrics = metrics(&client);
    let after_store = artifacts::global().stats();
    server.request_shutdown();
    server.join();
    drop(spinners);
    round.peak_rss_mb = round::peak_rss_mb();

    // Everything below is verification and layer accounting, untimed.
    let replies = replies.into_inner().expect("reply list poisoned");
    let mut rungs = Rungs::default();
    let mut build_s = 0.0;
    for (i, (text, expected)) in hot.iter().zip(&warm).enumerate() {
        round.attempted += 1;
        let local = local_answer(text, &mut rungs, &mut build_s);
        if expected.as_deref() != local.as_ref().ok().map(String::as_bytes) {
            round
                .fail(format!("warm-up answer for hot key {i} differs from the in-process engine"));
        }
    }
    let (mut refused, mut timed_out) = (0.0, 0.0);
    let mut canonicalize_s = 0.0;
    for (text, reply) in &replies {
        round.attempted += 1;
        round.answers += 1;
        let parse = Instant::now();
        let key = SimRequest::from_str(text).map(|r| r.cache_key());
        canonicalize_s += parse.elapsed().as_secs_f64();
        std::hint::black_box(key.ok());
        match reply.status {
            200 => {}
            429 => refused += 1.0,
            0 | 504 => timed_out += 1.0,
            _ => {}
        }
        if reply.status != 200 {
            round.fail(format!("request answered {} (0 = no reply)", reply.status));
            continue;
        }
        if reply.cache_hit {
            round.hit_us.push(reply.latency.as_secs_f64() * 1e6);
        } else {
            round.cold_ms.push(reply.latency.as_secs_f64() * 1e3);
        }
        match reply.hot {
            Some(k) if !reply.same_as_warm => {
                round.fail(format!("hot key {k} answered different bytes than at warm-up"));
            }
            None if reply.cache_hit => round.fail("a fresh-seed request hit the cache".into()),
            None if !reply.body.is_empty() => {
                let local = local_answer(text, &mut rungs, &mut build_s);
                if local.as_deref() != Ok(reply.body.as_str()) {
                    round.fail("a cold answer differs from the in-process engine".into());
                }
            }
            _ => {}
        }
    }

    let (hits_n, hits_sum) = histogram(&after_metrics, "serve.latency_us.simulate|cache=hit");
    let (hits_n0, hits_sum0) = histogram(&before_metrics, "serve.latency_us.simulate|cache=hit");
    let (miss_n, miss_sum) = histogram(&after_metrics, "serve.latency_us.simulate|cache=miss");
    let (miss_n0, miss_sum0) = histogram(&before_metrics, "serve.latency_us.simulate|cache=miss");
    let per = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
    let server_hit_us = per(hits_sum - hits_sum0, hits_n - hits_n0);
    let client_hit_us = per(round.hit_us.iter().sum(), round.hit_us.len() as f64);
    let cache_hits =
        counter(&after_metrics, "serve.cache.hits") - counter(&before_metrics, "serve.cache.hits");
    let cache_misses = counter(&after_metrics, "serve.cache.misses")
        - counter(&before_metrics, "serve.cache.misses");
    round.layer("serve.canonicalize_us", per(canonicalize_s * 1e6, replies.len() as f64));
    round.layer("serve.server_us.hit", server_hit_us);
    round.layer("serve.server_us.miss", per(miss_sum - miss_sum0, miss_n - miss_n0));
    round.layer("serve.transport_us", client_hit_us - server_hit_us);
    round.layer("serve.cache.hit_ratio", per(cache_hits, cache_hits + cache_misses));
    round.layer("serve.refused", refused);
    round.layer("serve.timed_out", timed_out);
    round.layer("workloads.build_s", build_s);
    rungs.emit(&mut round);
    cells::store_layers(&mut round, &before_store, &after_store);
    let window_s = round.window_s;
    layers::finish(&mut round, recorder, job, window_s);
    round
}
