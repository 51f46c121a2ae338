//! End-to-end tests of the nvpim-serve service over real sockets.
//!
//! Everything runs in-process with the std-only [`Client`] — no external
//! tooling. Each test binds its own ephemeral-port server so they can run
//! concurrently under the default test harness.

use std::time::Duration;

use nvpim_obs::Json;
use nvpim_serve::{Client, Server, ServerConfig};

fn start(config: ServerConfig) -> (nvpim_serve::ServerHandle, Client) {
    let handle = Server::start(config).expect("server starts");
    let client = Client::new(handle.addr());
    (handle, client)
}

fn small_request(seed: u64) -> String {
    format!(
        r#"{{"workload": {{"kind": "mul", "rows": 128, "lanes": 8}}, "iterations": 20, "seed": {seed}}}"#
    )
}

/// A request the simulator cannot finish within its 1 ms budget: random
/// (`Ra`) rows reshuffle the software table every epoch, so with `period: 1`
/// the `+Hw` kernel is recompiled — a full trace walk — for every single
/// iteration, and the cost genuinely scales with the iteration count.
fn slow_request() -> &'static str {
    r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 16},
        "config": "RaxRa+Hw", "period": 1, "iterations": 200000, "timeout_ms": 1}"#
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|c| c.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn index_health_and_unknown_routes() {
    let (handle, client) = start(ServerConfig::default());
    let index = client.get("/").unwrap();
    assert_eq!(index.status, 200);
    assert!(index.text().contains("nvpim-serve"));

    let health = client.get("/health").unwrap().json().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.post_json("/health", "{}").unwrap().status, 405);
    assert_eq!(client.post_json("/simulate", "not json").unwrap().status, 400);
    let bad = client.post_json("/simulate", r#"{"workload": "warp-drive"}"#).unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("error"));

    handle.request_shutdown();
    handle.join();
}

#[test]
fn concurrent_identical_requests_get_byte_identical_bodies_and_hit_the_cache() {
    let (handle, client) = start(ServerConfig::default());
    let body = small_request(42);

    // Pre-warm so every concurrent request below is deterministically a hit.
    let first = client.post_json("/simulate", &body).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let reference = first.text();

    let clients: Vec<_> = (0..10).map(|_| (client.clone(), body.clone())).collect();
    let replies: Vec<_> = clients
        .into_iter()
        .map(|(c, b)| std::thread::spawn(move || c.post_json("/simulate", &b).unwrap()))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    assert_eq!(replies.len(), 10);
    for reply in &replies {
        assert_eq!(reply.status, 200);
        assert_eq!(reply.text(), reference, "identical requests must serve identical bytes");
    }
    assert!(replies.iter().all(|r| r.header("x-cache") == Some("hit")));

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let hits = metrics
        .get("serve")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(hits >= 10, "expected >= 10 cache hits, saw {hits}");
    assert!(counter(&metrics, "serve.cache.hits") >= 10);
    assert!(counter(&metrics, "serve.requests.simulate") >= 11);

    handle.request_shutdown();
    handle.join();
}

#[test]
fn spelling_variants_of_one_request_share_a_cache_entry() {
    let (handle, client) = start(ServerConfig::default());
    let verbose = r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8, "width": 8},
                      "config": "StxSt", "arch": "preset-output", "iterations": 20}"#;
    let terse = r#"{"iterations": 20, "workload": "mul", "rows": 128, "lanes": 8}"#;

    let first = client.post_json("/simulate", verbose).unwrap();
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = client.post_json("/simulate", terse).unwrap();
    assert_eq!(second.header("x-cache"), Some("hit"), "canonicalization must unify spellings");
    assert_eq!(first.text(), second.text());

    handle.request_shutdown();
    handle.join();
}

#[test]
fn cache_hits_skip_simulation_cost_entirely() {
    let (handle, client) = start(ServerConfig::default());
    // Expensive by construction: with Ra rows and period 1 the Hw kernel is
    // recompiled every iteration, so the cold run pays real simulation time
    // that a hit — one pre-rendered buffer write — must not.
    let body = r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 16},
                   "config": "RaxRa+Hw", "period": 1, "iterations": 1500}"#;
    let cold_start = std::time::Instant::now();
    let cold = client.post_json("/simulate", body).unwrap();
    let cold_time = cold_start.elapsed();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    // Best of several hits, so scheduler noise cannot fail the bound.
    let mut best_hit = Duration::MAX;
    for _ in 0..5 {
        let hit_start = std::time::Instant::now();
        let hit = client.post_json("/simulate", body).unwrap();
        let hit_time = hit_start.elapsed();
        assert_eq!(hit.status, 200);
        assert_eq!(hit.header("x-cache"), Some("hit"));
        assert_eq!(hit.text(), cold.text(), "hits must serve the cold run's exact bytes");
        best_hit = best_hit.min(hit_time);
    }
    assert!(
        best_hit < cold_time / 10,
        "a cache hit ({best_hit:?}) must cost <10% of the cold request ({cold_time:?})"
    );

    handle.request_shutdown();
    handle.join();
}

#[test]
fn over_budget_simulation_times_out_with_504() {
    let (handle, client) = start(ServerConfig::default());
    let reply = client.post_json("/simulate", slow_request()).unwrap();
    assert_eq!(reply.status, 504);
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    assert!(counter(&metrics, "serve.timeouts") >= 1);
    handle.request_shutdown();
    handle.join();
}

#[test]
fn saturated_queue_answers_429_with_retry_after() {
    let config =
        ServerConfig { workers: 1, queue_depth: 1, retry_after_s: 3, ..ServerConfig::default() };
    let (handle, client) = start(config);

    // Occupy the single worker with a request that holds its handler for a
    // while (the 1 ms budget expires quickly, but the handler only returns
    // after writing the 504 — so pile enough on to keep the queue full).
    let slow = r#"{"workload": {"kind": "mul", "rows": 256, "lanes": 32},
                   "config": "RaxRa+Hw", "period": 1, "iterations": 400000, "timeout_ms": 2000}"#;
    let occupier = {
        let c = client.clone();
        std::thread::spawn(move || c.post_json("/simulate", slow))
    };
    std::thread::sleep(Duration::from_millis(100));

    // Flood concurrently: with the lone worker held and one queue slot, at
    // most one of these can be queued — the rest must bounce with 429.
    let flood: Vec<_> = (0..10)
        .map(|_| {
            let c = client.clone();
            std::thread::spawn(move || c.get("/health").unwrap())
        })
        .collect();
    let replies: Vec<_> = flood.into_iter().map(|t| t.join().unwrap()).collect();
    let reply = replies
        .into_iter()
        .find(|r| r.status == 429)
        .expect("flooding a 1-worker/1-slot server must surface a 429");
    assert_eq!(reply.header("retry-after"), Some("3"));
    assert!(reply.text().contains("queue is full"));

    let metrics_after = occupier.join().unwrap().unwrap();
    assert!(metrics_after.status == 200 || metrics_after.status == 504);
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    assert!(counter(&metrics, "serve.rejected.backpressure") >= 1);

    handle.request_shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_finishes_in_flight_work_and_refuses_new_connections() {
    let (handle, client) = start(ServerConfig::default());

    // A real (uncached) request that takes a moment but finishes well within
    // its budget — it must complete with 200 even though a drain starts
    // while it runs.
    let in_flight = {
        let c = client.clone();
        std::thread::spawn(move || {
            let body = r#"{"workload": {"kind": "mul", "rows": 256, "lanes": 32},
                           "config": "RaxRa+Hw", "period": 1, "iterations": 2000}"#;
            c.post_json("/simulate", body).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(50));

    let drain = client.post_json("/shutdown", "").unwrap();
    assert_eq!(drain.status, 200);
    assert_eq!(drain.json().unwrap().get("status").and_then(Json::as_str), Some("draining"));

    let reply = in_flight.join().unwrap();
    assert_eq!(reply.status, 200, "in-flight work must finish during a drain");

    // New connections are refused while (and after) draining; the listener
    // may already be gone, which is equally acceptable.
    if let Ok(refused) = client.get("/health") {
        assert_eq!(refused.status, 503);
    }

    handle.join(); // must return: the drain empties the queue and exits
}

#[test]
fn batch_streams_one_line_per_cell_and_reuses_the_cache() {
    let (handle, client) = start(ServerConfig::default());

    // Pre-warm cell 2 so its batch line is deterministically cached.
    let warm = small_request(7);
    assert_eq!(client.post_json("/simulate", &warm).unwrap().status, 200);

    let batch = format!(
        r#"{{"requests": [{}, {}, {}, {}]}}"#,
        small_request(1),
        small_request(2),
        warm,
        r#"{"workload": "dot", "rows": 128, "lanes": 8, "elements": 4, "iterations": 20}"#,
    );
    let reply = client.post_json("/batch", &batch).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));

    let lines = reply.json_lines().unwrap();
    assert_eq!(lines.len(), 4, "one NDJSON line per cell");
    let mut indices: Vec<u64> =
        lines.iter().filter_map(|l| l.get("index").and_then(Json::as_u64)).collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1, 2, 3]);
    for line in &lines {
        let response = line.get("response").expect("each line carries a response document");
        assert_eq!(response.get("schema").and_then(Json::as_str), Some("nvpim.serve-result/v1"));
    }
    let warmed = lines
        .iter()
        .find(|l| l.get("index").and_then(Json::as_u64) == Some(2))
        .and_then(|l| l.get("cached"))
        .cloned();
    assert_eq!(warmed, Some(Json::Bool(true)), "pre-warmed cell must come from the cache");

    // Batch errors: empty and malformed bodies are rejected up front.
    assert_eq!(client.post_json("/batch", r#"{"requests": []}"#).unwrap().status, 400);
    assert_eq!(client.post_json("/batch", r#"{"cells": 3}"#).unwrap().status, 400);

    handle.request_shutdown();
    handle.join();
}

#[test]
fn trace_ids_echo_propagate_and_fetch_as_chrome_json() {
    let (handle, client) = start(ServerConfig::default());

    // Every response carries an X-Trace-Id, minted when the client sends
    // none — including error responses.
    let minted = client.get("/health").unwrap();
    let minted_id = minted.header("x-trace-id").expect("minted trace id").to_owned();
    assert!(!minted_id.is_empty() && minted_id.len() <= 16);
    assert!(client.get("/nope").unwrap().header("x-trace-id").is_some());

    // A client-supplied id is adopted and echoed (in its normalized
    // 16-digit form) on both the cache-miss and the pre-rendered
    // cache-hit path.
    let body = small_request(1234);
    let miss = client
        .post_json_with_headers("/simulate", &body, &[("X-Trace-Id", "00c0ffee00c0ffee")])
        .unwrap();
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("miss"));
    assert_eq!(miss.header("x-trace-id"), Some("00c0ffee00c0ffee"));
    let hit = client
        .post_json_with_headers("/simulate", &body, &[("X-Trace-Id", "00c0ffee00c0ffee")])
        .unwrap();
    assert_eq!(hit.header("x-cache"), Some("hit"));
    assert_eq!(hit.header("x-trace-id"), Some("00c0ffee00c0ffee"), "hit bytes gain the echo too");
    assert_eq!(hit.text(), miss.text(), "trace echo must not disturb the cached body");

    // The collected trace comes back as Chrome trace-event JSON with the
    // request spans and the execute child span.
    let trace = client.get("/trace/00c0ffee00c0ffee").unwrap();
    assert_eq!(trace.status, 200);
    // The fetch is a request of its own and gets its own echo.
    assert!(trace.header("x-trace-id").is_some());
    let doc = trace.json().unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.iter().filter(|n| **n == "serve.request").count() >= 2,
        "both requests recorded: {names:?}"
    );
    assert!(names.contains(&"serve.execute"), "simulation child span recorded: {names:?}");
    let stats = nvpim_obs::validate::chrome_trace(&trace.text()).expect("validator-clean trace");
    assert!(stats.complete_spans >= 3);

    // Garbage and unknown ids fail cleanly.
    assert_eq!(client.get("/trace/zzz").unwrap().status, 400);
    assert_eq!(client.get("/trace/deadbeefdeadbeef").unwrap().status, 404);

    handle.request_shutdown();
    handle.join();
}

#[test]
fn metrics_expose_fleet_fields_and_prometheus_text() {
    let (handle, client) = start(ServerConfig::default());
    assert_eq!(client.post_json("/simulate", &small_request(5)).unwrap().status, 200);
    assert_eq!(client.post_json("/simulate", &small_request(5)).unwrap().status, 200);

    // JSON document: server identity and load fields ride alongside the
    // metric registry.
    let doc = client.get("/metrics").unwrap().json().unwrap();
    let serve = doc.get("serve").expect("serve section");
    assert!(serve.get("uptime_s").is_some(), "uptime exposed");
    assert_eq!(
        serve.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "build version exposed"
    );
    assert!(serve.get("in_flight").and_then(Json::as_u64).is_some(), "in-flight gauge exposed");
    // This very request is in flight while the snapshot is taken.
    assert!(serve.get("in_flight").and_then(Json::as_u64).unwrap() >= 1);

    // Prometheus text: parses through the repo's own checker and carries
    // the hit/miss-labeled latency family plus the server gauges.
    let prom = client.get("/metrics?format=prometheus").unwrap();
    assert_eq!(prom.status, 200);
    assert!(prom.header("content-type").unwrap_or("").starts_with("text/plain"));
    let text = prom.text();
    let stats = nvpim_obs::validate::prometheus(&text).expect("validator-clean exposition");
    assert!(stats.families >= 5);
    assert!(text.contains("# TYPE nvpim_serve_requests_total counter"));
    assert!(text.contains("nvpim_serve_uptime_s"));
    assert!(text.contains("nvpim_serve_in_flight"));
    assert!(
        text.contains("nvpim_serve_latency_us_simulate_bucket{cache=\"hit\""),
        "hit-labeled latency family present"
    );
    assert!(text.contains("nvpim_serve_latency_us_simulate_bucket{cache=\"miss\""));

    // Unknown formats are named in the rejection.
    let bad = client.get("/metrics?format=xml").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("xml"));

    handle.request_shutdown();
    handle.join();
}

#[test]
fn series_request_streams_the_wear_trajectory() {
    let (handle, client) = start(ServerConfig::default());
    let body = r#"{"workload": {"kind": "mul", "rows": 128, "lanes": 8},
                   "iterations": 20, "period": 4, "series": true}"#;
    let reply = client.post_json("/simulate", body).unwrap();
    assert_eq!(reply.status, 200);
    let doc = reply.json().unwrap();
    let series = doc.get("result").and_then(|r| r.get("series")).and_then(Json::as_array).unwrap();
    assert_eq!(series.len(), 5, "one sample per remap epoch");
    assert_eq!(series.last().unwrap().get("iteration").and_then(Json::as_u64), Some(20));

    // The same shape arrives over /batch NDJSON, and the plain spelling
    // stays a distinct cache entry without the series.
    let batch = format!(
        r#"{{"requests": [{body}, {{"workload": {{"kind": "mul", "rows": 128, "lanes": 8}},
            "iterations": 20, "period": 4}}]}}"#
    );
    let lines = client.post_json("/batch", &batch).unwrap().json_lines().unwrap();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        let index = line.get("index").and_then(Json::as_u64).unwrap();
        let has_series = line
            .get("response")
            .and_then(|r| r.get("result"))
            .and_then(|r| r.get("series"))
            .is_some();
        assert_eq!(has_series, index == 0, "series rides exactly where requested");
    }

    handle.request_shutdown();
    handle.join();
}

#[test]
fn spill_compaction_bounds_the_disk_tier_across_restarts() {
    let dir = std::env::temp_dir().join(format!("nvpim-serve-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    fn cache_stat(metrics: &Json, name: &str) -> u64 {
        metrics
            .get("serve")
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    // Phase 1: spill a run of distinct entries with no byte budget and
    // measure how much disk they take.
    let seeds: Vec<u64> = (900..908).collect();
    let unbounded_bytes;
    {
        let config = ServerConfig { cache_dir: Some(dir.clone()), ..ServerConfig::default() };
        let (handle, client) = start(config);
        for &seed in &seeds {
            let reply = client.post_json("/simulate", &small_request(seed)).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.header("x-cache"), Some("miss"));
        }
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        unbounded_bytes = cache_stat(&metrics, "spill_bytes");
        assert!(unbounded_bytes > 0, "spill tier grew while unbounded");
        assert_eq!(cache_stat(&metrics, "compactions"), 0, "no budget, no compaction");
        handle.request_shutdown();
        handle.join();
    }

    // Phase 2: restart over the same directory with half that budget. The
    // startup compaction must retire oldest-first until the bound holds.
    let budget = unbounded_bytes / 2;
    {
        let config = ServerConfig {
            cache_dir: Some(dir.clone()),
            cache_max_bytes: budget,
            ..ServerConfig::default()
        };
        let (handle, client) = start(config);
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        assert!(
            cache_stat(&metrics, "spill_bytes") <= budget,
            "startup compaction enforces the byte budget: {} > {budget}",
            cache_stat(&metrics, "spill_bytes")
        );
        assert!(cache_stat(&metrics, "compactions") >= 1);
        assert!(cache_stat(&metrics, "compacted_entries") >= 1);
        assert!(cache_stat(&metrics, "compacted_bytes") > 0);

        // Eviction is LRU by index order: the oldest entry recomputes, the
        // newest is still warm from disk.
        let oldest = client.post_json("/simulate", &small_request(seeds[0])).unwrap();
        assert_eq!(oldest.header("x-cache"), Some("miss"), "oldest entry was compacted away");
        let newest = client.post_json("/simulate", &small_request(*seeds.last().unwrap())).unwrap();
        assert_eq!(newest.header("x-cache"), Some("hit"), "newest entry survives compaction");

        // New spills keep the budget holding steady-state, not just at boot.
        for seed in 950..956 {
            assert_eq!(client.post_json("/simulate", &small_request(seed)).unwrap().status, 200);
        }
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        assert!(cache_stat(&metrics, "spill_bytes") <= budget, "budget holds under continued load");
        handle.request_shutdown();
        handle.join();
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_and_manifests_survive_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("nvpim-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let body = small_request(99);
    let key;
    {
        let config = ServerConfig { cache_dir: Some(dir.clone()), ..ServerConfig::default() };
        let (handle, client) = start(config);
        let reply = client.post_json("/simulate", &body).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-cache"), Some("miss"));
        key = reply
            .json()
            .unwrap()
            .get("key")
            .and_then(Json::as_str)
            .expect("result carries its cache key")
            .to_owned();
        // A no-series request is answered analytically, and the engine's
        // query counter surfaces in the absorbed server metrics.
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        assert!(counter(&metrics, "sim.analytic_queries") >= 1);
        handle.request_shutdown();
        handle.join();
    }

    assert!(dir.join(format!("{key}.json")).is_file(), "cache entry spilled to disk");
    let index = std::fs::read_to_string(dir.join("index.jsonl")).expect("spill index written");
    assert!(index.contains(&key), "spilled key recorded in the index: {index}");
    let manifest_path = dir.join("manifests").join(format!("{key}.manifest.json"));
    let manifest = std::fs::read_to_string(&manifest_path).expect("run manifest written");
    assert!(manifest.contains("serve:mul"));
    assert!(
        manifest.contains("\"analytic_path\""),
        "manifest records which engine path answered: {manifest}"
    );
    assert!(dir.join("events.jsonl").is_file(), "event log written");

    // A restarted server over the same directory is warm immediately.
    let config = ServerConfig { cache_dir: Some(dir.clone()), ..ServerConfig::default() };
    let (handle, client) = start(config);
    let reply = client.post_json("/simulate", &body).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-cache"), Some("hit"), "disk spill makes restarts warm");
    handle.request_shutdown();
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_is_a_start_error_not_a_panic() {
    // A cache directory whose parent is a regular file cannot be created:
    // the operator mistake must surface as an `Err` from `Server::start`.
    let file = std::env::temp_dir().join(format!("nvpim-serve-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"regular file").expect("temp file written");
    let config = ServerConfig { cache_dir: Some(file.join("cache")), ..ServerConfig::default() };
    let outcome = std::panic::catch_unwind(|| Server::start(config).map(|handle| handle.addr()));
    let _ = std::fs::remove_file(&file);
    let result = outcome.expect("Server::start must not panic on a bad cache dir");
    assert!(result.is_err(), "a cache dir under a regular file must fail to start");
}

#[test]
fn result_cache_reports_an_uncreatable_spill_dir() {
    let file = std::env::temp_dir().join(format!("nvpim-cache-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"regular file").expect("temp file written");
    let result = nvpim_serve::ResultCache::new(4, Some(file.join("cache")));
    let _ = std::fs::remove_file(&file);
    let err = result.expect_err("a spill dir under a regular file cannot be created");
    assert!(err.to_string().contains("cannot create cache dir"), "{err}");
}
