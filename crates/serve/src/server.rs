//! The simulation service: accept loop, bounded dispatch, endpoints.
//!
//! Production behaviors, in one place:
//!
//! * **Backpressure** — connections are dispatched onto a bounded
//!   [`TaskQueue`]; when it is full the accept loop answers `429` with a
//!   `Retry-After` header inline instead of queueing unboundedly.
//! * **Timeouts** — `/simulate` runs each job on its own thread and waits
//!   with `recv_timeout`; a deadline miss answers `504` while the detached
//!   job finishes and still populates the cache (the work is not lost).
//! * **Graceful drain** — `POST /shutdown` flips a draining flag: new
//!   connections get `503`, in-flight requests complete, and the accept
//!   loop exits once the queue is idle.
//! * **Observability** — per-endpoint request counters and latency
//!   histograms (cache hit/miss labeled for `/simulate`) feed the server
//!   [`Observer`]; each executed simulation runs against a private
//!   collecting observer that is absorbed afterwards, and (when a cache
//!   directory is configured) leaves a [`RunManifest`] on disk next to the
//!   spilled cache entries. Metrics expose as JSON (`GET /metrics`) or
//!   Prometheus text (`GET /metrics?format=prometheus`).
//! * **Tracing** — every request runs under a `serve.request` span in a
//!   process-wide [`TraceRecorder`]. Clients propagate context with an
//!   `X-Trace-Id` header (minted when absent, echoed on every response)
//!   and fetch the Chrome trace-event JSON back via `GET /trace/<id>`.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvpim_core::{AnalyticWearEngine, EnduranceSimulator};
use nvpim_exec::{JobPool, SubmitError, TaskQueue};
use nvpim_obs::{
    Event, EventSink as _, Json, JsonlSink, Observer, RunManifest, TraceContext, TraceId,
    TraceRecorder,
};

use crate::cache::ResultCache;
use crate::fleet::{Fleet, FleetConfig, Route};
use crate::hash::key_hex;
use crate::http::{self, HttpRequest};
use crate::request::SimRequest;
use crate::wire;

/// Maximum number of cells accepted by one `/batch` request.
pub const MAX_BATCH_CELLS: usize = 1024;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for a free port.
    pub addr: String,
    /// Worker threads serving requests (`0` = auto-size from the
    /// environment, like [`JobPool::from_env`]).
    pub workers: usize,
    /// Bounded depth of the pending-connection queue; overflow answers
    /// `429`.
    pub queue_depth: usize,
    /// Default per-request wall-clock budget for `/simulate`, in
    /// milliseconds (`0` = unlimited). Requests may lower it with their own
    /// `timeout_ms`.
    pub timeout_ms: u64,
    /// In-memory result-cache capacity (entries).
    pub cache_entries: usize,
    /// Directory for the on-disk cache spill, run manifests, and the JSONL
    /// event log. `None` keeps everything in memory.
    pub cache_dir: Option<PathBuf>,
    /// Value of the `Retry-After` header on `429` responses, in seconds.
    pub retry_after_s: u64,
    /// Byte budget for the on-disk cache spill (0 = unlimited); exceeding
    /// it compacts the spill directory oldest-first.
    pub cache_max_bytes: u64,
    /// Age limit for spilled cache entries, in seconds (0 = unlimited).
    pub cache_max_age_s: u64,
    /// Fleet membership; `None` runs a plain single-node server.
    pub fleet: Option<FleetConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_depth: 64,
            timeout_ms: 30_000,
            cache_entries: 256,
            cache_dir: None,
            retry_after_s: 1,
            cache_max_bytes: 0,
            cache_max_age_s: 0,
            fleet: None,
        }
    }
}

/// Shared server state.
struct ServeState {
    cache: Mutex<ResultCache>,
    observer: Observer,
    tracer: Arc<TraceRecorder>,
    started: Instant,
    in_flight: AtomicU64,
    draining: AtomicBool,
    timeout_ms: u64,
    retry_after_s: u64,
    workers: usize,
    queue_depth: usize,
    manifest_dir: Option<PathBuf>,
    /// Present when this instance is a fleet member.
    fleet: Option<Arc<Fleet>>,
}

impl ServeState {
    fn count(&self, name: &str) {
        self.observer.record(&Event::CounterAdd { name, delta: 1 });
    }

    fn observe(&self, name: &str, value: u64) {
        self.observer.record(&Event::Observe { name, value });
    }

    /// Refreshes the point-in-time server gauges so a metrics snapshot
    /// (JSON or Prometheus) always carries current values.
    fn refresh_gauges(&self) {
        let metrics = self.observer.metrics();
        metrics.gauge("serve.uptime_s").set(self.started.elapsed().as_secs_f64());
        metrics.gauge("serve.in_flight").set(self.in_flight.load(Ordering::SeqCst) as f64);
        metrics.gauge("serve.workers").set(self.workers as f64);
        metrics.gauge("serve.queue_depth").set(self.queue_depth as f64);
        if let Some(fleet) = &self.fleet {
            let up = fleet.gossip().members().iter().filter(|m| m.up).count();
            metrics.gauge("fleet.peers_up").set(up as f64);
            metrics.gauge("fleet.members").set((fleet.ring().members().len()) as f64);
        }
        // Artifact-store size and traffic (`artifacts.*`), so `/metrics`
        // shows how much of the batch path's work is being shared.
        nvpim_core::artifacts::publish_gauges(&self.observer);
    }
}

/// Per-request context threaded through the route handlers: the adopted
/// (or minted) trace id pre-rendered for the `X-Trace-Id` echo, the span
/// to parent child spans under, and the request arrival time.
struct ReqCtx {
    hex: String,
    span: TraceContext,
    started: Instant,
}

/// The running service.
pub struct Server;

/// Handle to a started server: its bound address, a shutdown switch, and a
/// join point.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain, exactly like `POST /shutdown`: in-flight
    /// requests finish, new connections are refused with `503`.
    pub fn request_shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop to exit (after a drain was requested).
    pub fn join(self) {
        self.accept_thread.join().expect("accept loop panicked");
    }
}

impl Server {
    /// Binds, spawns the accept loop, and returns a handle.
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let observer = match &config.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let file = std::fs::File::create(dir.join("events.jsonl"))?;
                Observer::new(JsonlSink::new(std::io::BufWriter::new(file)))
            }
            None => Observer::collecting(),
        };
        let tracer = Arc::new(TraceRecorder::new());
        let observer = observer.with_tracer(Arc::clone(&tracer));
        let workers = JobPool::new(config.workers).threads();
        let manifest_dir = config.cache_dir.as_ref().map(|d| d.join("manifests"));
        if let Some(dir) = &manifest_dir {
            std::fs::create_dir_all(dir)?;
        }
        let fleet = match &config.fleet {
            Some(fleet_config) => {
                Some(Arc::new(Fleet::new(fleet_config.clone()).map_err(|message| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
                })?))
            }
            None => None,
        };
        let cache = ResultCache::new(config.cache_entries, config.cache_dir.clone())?
            .with_spill_limits(config.cache_max_bytes, config.cache_max_age_s);
        let state = Arc::new(ServeState {
            cache: Mutex::new(cache),
            observer,
            tracer,
            started: Instant::now(),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            timeout_ms: config.timeout_ms,
            retry_after_s: config.retry_after_s,
            workers,
            queue_depth: config.queue_depth,
            manifest_dir,
            fleet,
        });

        if let Some(fleet) = &state.fleet {
            if fleet.config().gossip_interval_ms > 0 {
                let gossip_state = Arc::clone(&state);
                let interval = Duration::from_millis(fleet.config().gossip_interval_ms);
                std::thread::Builder::new()
                    .name("nvpim-serve-gossip".into())
                    .spawn(move || {
                        while !gossip_state.draining.load(Ordering::SeqCst) {
                            gossip_round(&gossip_state);
                            std::thread::sleep(interval);
                        }
                    })
                    .expect("spawn gossip thread");
            }
        }

        let loop_state = Arc::clone(&state);
        let queue_depth = config.queue_depth;
        let accept_thread = std::thread::Builder::new()
            .name("nvpim-serve-accept".into())
            .spawn(move || accept_loop(&listener, &loop_state, workers, queue_depth))
            .expect("spawn accept loop");

        Ok(ServerHandle { addr, state, accept_thread })
    }
}

/// Idle-poll backoff bounds for the non-blocking accept loop. After serving
/// a connection the loop polls again almost immediately (new work tends to
/// arrive in bursts, and a request/response turnaround is often well under
/// a millisecond); each empty poll doubles the sleep up to the cap so a
/// quiet server still costs ~zero CPU. The cap bounds the worst-case
/// latency an after-idle request pays before it is even accepted — at
/// 500 µs a fully idle server burns ~2000 accept polls (syscalls) per
/// second, well under 1% of a core, while keeping cache-hit round-trips
/// dominated by useful work instead of the poll sleep.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(50);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_micros(500);

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    workers: usize,
    queue_depth: usize,
) {
    let queue = TaskQueue::new(workers, queue_depth);
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                if state.draining.load(Ordering::SeqCst) {
                    refuse(stream, 503, &[], "server is draining");
                    continue;
                }
                // Only this thread submits, so pending() cannot grow between
                // the check and the submit — the check is race-free and lets
                // the 429 be written while we still own the stream.
                if queue.pending() >= queue.capacity() {
                    state.count("serve.rejected.backpressure");
                    let retry = state.retry_after_s.to_string();
                    refuse(
                        stream,
                        429,
                        &[("Retry-After", retry.as_str())],
                        "request queue is full, retry shortly",
                    );
                    continue;
                }
                let task_state = Arc::clone(state);
                if let Err(SubmitError::Full { .. } | SubmitError::Draining) =
                    queue.try_submit(Box::new(move || handle_connection(stream, task_state)))
                {
                    // A drain raced in; the connection drops with the task.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if state.draining.load(Ordering::SeqCst)
                    && queue.pending() == 0
                    && queue.in_flight() == 0
                {
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
            Err(e) => {
                eprintln!("nvpim-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    queue.drain();
    state.observer.flush();
}

/// Writes a terse error response on a connection the server will not
/// service, ignoring I/O failures (the peer may already be gone).
///
/// The request was never read, so the socket must be drained before the
/// drop: closing with unread bytes in the receive buffer makes the kernel
/// send RST, which discards the response on the peer's side. The drain is
/// bounded by a short read timeout so a slow peer cannot stall the accept
/// loop for long.
fn refuse(mut stream: TcpStream, status: u16, extra: &[(&str, &str)], message: &str) {
    let body = Json::object().with("error", message).render();
    let _ = http::write_response(&mut stream, status, extra, "application/json", &body);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 1024];
    while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {}
}

fn handle_connection(mut stream: TcpStream, state: Arc<ServeState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(Ok(http_error)) => {
            refuse(stream, http_error.status, &[], &http_error.message);
            return;
        }
        Err(Err(_io)) => return,
    };
    let started = Instant::now();
    state.in_flight.fetch_add(1, Ordering::SeqCst);
    state.count("serve.requests");
    // Adopt the client's trace id (bad values are treated as absent rather
    // than rejected — tracing must never fail a request) or mint one.
    let trace = request
        .header("x-trace-id")
        .and_then(TraceId::from_hex)
        .unwrap_or_else(|| state.tracer.new_trace_id());
    let mut span = state.tracer.adopt_trace(trace, "serve.request");
    span.attr_str("method", &request.method);
    span.attr_str("path", &request.path);
    let ctx = ReqCtx { hex: trace.to_hex(), span: span.context(), started };
    let endpoint = route(&mut stream, &request, &state, &ctx);
    span.attr_str("endpoint", endpoint);
    drop(span);
    state.count(&format!("serve.requests.{endpoint}"));
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.observe(&format!("serve.latency_us.{endpoint}"), micros);
    state.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// Dispatches one parsed request and returns the endpoint label used in
/// metric names.
fn route(
    stream: &mut TcpStream,
    request: &HttpRequest,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> &'static str {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => {
            respond_json(stream, 200, &th, &index_doc());
            "index"
        }
        ("GET", "/health") => {
            let doc = Json::object()
                .with("status", "ok")
                .with("draining", state.draining.load(Ordering::SeqCst));
            respond_json(stream, 200, &th, &doc);
            "health"
        }
        ("GET", "/metrics") => {
            state.refresh_gauges();
            match request.query_param("format") {
                None | Some("json") => respond_json(stream, 200, &th, &metrics_doc(state)),
                Some("prometheus") => {
                    let body = nvpim_obs::prom::render(&state.observer.snapshot());
                    let _ =
                        http::write_response(stream, 200, &th, "text/plain; version=0.0.4", &body);
                }
                Some(other) => respond_error(
                    stream,
                    400,
                    &th,
                    &format!("unknown metrics format `{other}` (expected json or prometheus)"),
                ),
            }
            "metrics"
        }
        ("GET", path) if path.strip_prefix("/trace/").is_some() => {
            let hex = path.strip_prefix("/trace/").unwrap_or_default();
            match TraceId::from_hex(hex) {
                None => respond_error(
                    stream,
                    400,
                    &th,
                    "bad trace id (expected 1-16 hex digits, nonzero)",
                ),
                Some(id) if state.tracer.spans_for(id).is_empty() => respond_error(
                    stream,
                    404,
                    &th,
                    "no spans recorded for this trace (finished long ago, or evicted)",
                ),
                Some(id) => {
                    let body = state.tracer.chrome_trace_for(id);
                    let _ = http::write_response(stream, 200, &th, "application/json", &body);
                }
            }
            "trace"
        }
        ("POST", "/simulate") => {
            simulate(stream, request, state, ctx);
            "simulate"
        }
        ("POST", "/batch") => {
            batch(stream, request, state, ctx);
            "batch"
        }
        ("GET", "/fleet") => {
            match &state.fleet {
                None => respond_error(
                    stream,
                    404,
                    &th,
                    "this instance is not part of a fleet (start with --peers)",
                ),
                Some(fleet) => respond_json(stream, 200, &th, &fleet.to_json()),
            }
            "fleet"
        }
        ("POST", "/fleet/gossip") => {
            fleet_gossip(stream, request, state, ctx);
            "fleet_gossip"
        }
        ("POST", "/fleet/replicate") => {
            fleet_replicate(stream, request, state, ctx);
            "fleet_replicate"
        }
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            respond_json(stream, 200, &th, &Json::object().with("status", "draining"));
            "shutdown"
        }
        (
            _,
            "/" | "/health" | "/metrics" | "/simulate" | "/batch" | "/shutdown" | "/fleet"
            | "/fleet/gossip" | "/fleet/replicate",
        ) => {
            respond_error(stream, 405, &th, "method not allowed for this path");
            "method_not_allowed"
        }
        (_, path) if path.starts_with("/trace/") => {
            respond_error(stream, 405, &th, "method not allowed for this path");
            "method_not_allowed"
        }
        _ => {
            respond_error(stream, 404, &th, "no such endpoint");
            "not_found"
        }
    }
}

fn index_doc() -> Json {
    Json::object().with("service", "nvpim-serve").with("schema", wire::RESULT_SCHEMA).with(
        "endpoints",
        vec![
            Json::from("GET /"),
            Json::from("GET /health"),
            Json::from("GET /metrics"),
            Json::from("GET /metrics?format=prometheus"),
            Json::from("GET /trace/<id>"),
            Json::from("POST /simulate"),
            Json::from("POST /batch"),
            Json::from("GET /fleet"),
            Json::from("POST /fleet/gossip"),
            Json::from("POST /fleet/replicate"),
            Json::from("POST /shutdown"),
        ],
    )
}

fn metrics_doc(state: &ServeState) -> Json {
    let cache_stats = state.cache.lock().expect("cache poisoned").stats();
    let mut serve = Json::object()
        .with("cache", cache_stats.to_json())
        .with("draining", state.draining.load(Ordering::SeqCst))
        .with("in_flight", state.in_flight.load(Ordering::SeqCst))
        .with("queue_depth", state.queue_depth)
        .with("uptime_s", Json::Num(state.started.elapsed().as_secs_f64()))
        .with("version", env!("CARGO_PKG_VERSION"))
        .with("workers", state.workers);
    if let Some(fleet) = &state.fleet {
        serve = serve.with("fleet", fleet.to_json());
    }
    Json::object().with("serve", serve).with("metrics", state.observer.snapshot().to_json())
}

fn respond_json(stream: &mut TcpStream, status: u16, extra: &[(&str, &str)], doc: &Json) {
    let _ = http::write_response(stream, status, extra, "application/json", &doc.render());
}

fn respond_error(stream: &mut TcpStream, status: u16, extra: &[(&str, &str)], message: &str) {
    respond_json(stream, status, extra, &Json::object().with("error", message));
}

/// Splices one extra header into a pre-rendered response, right before the
/// blank line that ends the head. Cache hits serve bytes rendered at insert
/// time; the per-request `X-Trace-Id` echo is the only part that differs.
fn splice_header(mut response: Vec<u8>, name: &str, value: &str) -> Vec<u8> {
    if let Some(pos) = response.windows(4).position(|w| w == b"\r\n\r\n") {
        let line = format!("{name}: {value}\r\n");
        response.splice(pos + 2..pos + 2, line.into_bytes());
    }
    response
}

/// `POST /simulate`: cache lookup, then — in fleet mode — the routing
/// ladder (forward to the owner, probe replicas, fall back to a local
/// compute), then bounded-time execution.
fn simulate(stream: &mut TcpStream, request: &HttpRequest, state: &Arc<ServeState>, ctx: &ReqCtx) {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    let text = match request.body_text() {
        Ok(text) => text,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    let sim_request = match SimRequest::from_str(text) {
        Ok(r) => r,
        Err(e) => return respond_error(stream, 400, &th, &e.message),
    };
    let key = sim_request.cache_key();
    let canonical = sim_request.canonical_text();
    // Loop guard: forwarded requests are single-hop by construction, so the
    // only legitimate value is "1". Anything else is a forwarding loop or a
    // forged header — reject rather than amplify.
    let hop = request.header("x-fleet-hop").map(str::to_owned);
    if let Some(hop) = &hop {
        if hop != "1" {
            if let Some(fleet) = &state.fleet {
                fleet.counters.loop_rejected.fetch_add(1, Ordering::Relaxed);
            }
            state.count("fleet.loop_rejected");
            return respond_error(
                stream,
                400,
                &th,
                "X-Fleet-Hop must be 1: fleet forwarding is single-hop",
            );
        }
    }
    let probe = request.header("x-fleet-probe").is_some();
    // Hits serve the response bytes pre-rendered at insert time: one buffer
    // clone under the lock, one write, no formatting beyond the trace echo.
    let cached = state.cache.lock().expect("cache poisoned").get_response(key, &canonical);
    if let Some(response) = cached {
        state.count("serve.cache.hits");
        let mut response = splice_header(response, "X-Trace-Id", &ctx.hex);
        if state.fleet.is_some() {
            response = splice_header(response, "X-Fleet-Hops", "0");
        }
        let _ = stream.write_all(&response).and_then(|()| stream.flush());
        let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.observe("serve.latency_us.simulate|cache=hit", micros);
        if let Some(fleet) = &state.fleet {
            // Owner-side hot tracking: replicate once the hit count crosses
            // the threshold. Probes and forwarded hits count too — they are
            // real demand for this key.
            if fleet.owns(key) && fleet.note_owned_hit(key) {
                spawn_replication(state, key, canonical);
            }
        }
        return;
    }
    if probe {
        // Cache-only lookup on behalf of another member: a miss answers 404
        // instead of computing, so a probing peer never makes this node do
        // the owner's work.
        state.count("fleet.probe_misses");
        return respond_error(stream, 404, &th, "replica does not hold this entry");
    }
    state.count("serve.cache.misses");
    if hop.is_none() {
        if let Some(fleet) = &state.fleet {
            if let Route::Forward(owner) = fleet.route(key) {
                if fleet_remote_answer(stream, state, fleet, &owner, key, &canonical, ctx) {
                    return;
                }
                // Every remote option failed; compute here so the request
                // still gets its (byte-identical) answer. The local insert
                // below warms this node for the next failover too.
                fleet.counters.fallback_local.fetch_add(1, Ordering::Relaxed);
                state.count("fleet.fallback_local");
            }
        }
    }

    let timeout_ms = sim_request.timeout_ms.unwrap_or(state.timeout_ms);
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_state = Arc::clone(state);
    let parent = ctx.span;
    std::thread::Builder::new()
        .name("nvpim-serve-sim".into())
        .spawn(move || {
            let outcome = execute(&sim_request, &job_state, Some(parent));
            // The receiver may have timed out and gone away; the cache
            // insert above already preserved the work.
            let _ = tx.send(outcome);
        })
        .expect("spawn simulation thread");

    let outcome = if timeout_ms == 0 {
        rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
    } else {
        rx.recv_timeout(Duration::from_millis(timeout_ms))
    };
    match outcome {
        Ok(Ok(body)) => {
            let mut headers = vec![("X-Cache", "miss"), ("X-Trace-Id", ctx.hex.as_str())];
            if state.fleet.is_some() {
                headers.push(("X-Fleet-Hops", "0"));
            }
            let _ = http::write_response(stream, 200, &headers, "application/json", &body);
            let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            state.observe("serve.latency_us.simulate|cache=miss", micros);
        }
        Ok(Err(message)) => respond_error(stream, 400, &th, &message),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.count("serve.timeouts");
            respond_error(stream, 504, &th, "simulation exceeded its time budget");
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            respond_error(stream, 500, &th, "simulation worker vanished");
        }
    }
}

/// Where a remotely served answer came from.
enum RemoteAnswer {
    /// The key's ring owner answered; `cache` is its `X-Cache` header.
    Owner { cache: String, body: String },
    /// The owner was unreachable; a replica served its cached copy.
    Replica { addr: String, body: String },
}

/// Tries to answer a non-owned key remotely: the owner first (one capped
/// retry on a liveness failure), then cache-only probes of the replica
/// set. `None` means every remote option failed and the caller should
/// compute locally — the fleet never does worse than a single node.
fn fleet_fetch_remote(
    state: &ServeState,
    fleet: &Fleet,
    owner: &str,
    key: u64,
    canonical: &str,
    ctx: &ReqCtx,
) -> Option<RemoteAnswer> {
    let mut span = state.tracer.span(ctx.span, "fleet.forward");
    span.attr_str("owner", owner);
    span.attr_str("key", &key_hex(key));
    let forward_headers = [("X-Fleet-Hop", "1"), ("X-Trace-Id", ctx.hex.as_str())];
    if let Some(peer) = fleet.peer(owner) {
        // Two attempts: a transient connect failure (owner mid-restart, a
        // dropped SYN) deserves one retry; anything slower falls through to
        // the replicas rather than stalling the caller further.
        for _attempt in 0..2 {
            let call_started = Instant::now();
            match peer.post_json("/simulate", canonical, &forward_headers) {
                Ok(reply) => {
                    let micros =
                        u64::try_from(call_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    state.observe(&format!("fleet.peer_latency_us|peer={owner}"), micros);
                    if reply.status == 200 {
                        fleet.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        state.count("fleet.forwarded");
                        span.attr_str("outcome", "forwarded");
                        let cache = reply.header("x-cache").unwrap_or("miss").to_owned();
                        return Some(RemoteAnswer::Owner { cache, body: reply.text() });
                    }
                    // The owner is up but refusing (draining, backpressured,
                    // timed out internally): replicas or a local compute will
                    // serve this request better than relaying the refusal.
                    break;
                }
                Err(None) => break, // breaker open: skip straight to replicas
                Err(Some(e)) => {
                    state.count(&format!("fleet.peer_errors|kind={}", e.kind()));
                    if !e.is_liveness() {
                        break;
                    }
                    fleet.gossip().mark_unreachable(owner);
                }
            }
        }
    }
    let probe_headers =
        [("X-Fleet-Hop", "1"), ("X-Fleet-Probe", "1"), ("X-Trace-Id", ctx.hex.as_str())];
    for replica in fleet.replica_peers(key) {
        let call_started = Instant::now();
        match replica.post_json("/simulate", canonical, &probe_headers) {
            Ok(reply) => {
                let micros = u64::try_from(call_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                state.observe(&format!("fleet.peer_latency_us|peer={}", replica.addr()), micros);
                if reply.status == 200 {
                    fleet.counters.replica_hits.fetch_add(1, Ordering::Relaxed);
                    state.count("fleet.replica_hits");
                    span.attr_str("outcome", "replica_hit");
                    span.attr_str("replica", replica.addr());
                    return Some(RemoteAnswer::Replica {
                        addr: replica.addr().to_owned(),
                        body: reply.text(),
                    });
                }
                // 404: this replica has not received (or has evicted) the
                // entry — try the next one.
            }
            Err(None) => {}
            Err(Some(e)) => {
                state.count(&format!("fleet.peer_errors|kind={}", e.kind()));
                if e.is_liveness() {
                    fleet.gossip().mark_unreachable(replica.addr());
                }
            }
        }
    }
    span.attr_str("outcome", "fallback_local");
    None
}

/// The `/simulate` half of remote answering: fetches and writes the
/// response. Returns `false` when the caller must compute locally.
fn fleet_remote_answer(
    stream: &mut TcpStream,
    state: &ServeState,
    fleet: &Fleet,
    owner: &str,
    key: u64,
    canonical: &str,
    ctx: &ReqCtx,
) -> bool {
    match fleet_fetch_remote(state, fleet, owner, key, canonical, ctx) {
        Some(RemoteAnswer::Owner { cache, body }) => {
            let _ = http::write_response(
                stream,
                200,
                &[
                    ("X-Cache", cache.as_str()),
                    ("X-Fleet-Hops", "1"),
                    ("X-Fleet-Owner", owner),
                    ("X-Trace-Id", ctx.hex.as_str()),
                ],
                "application/json",
                &body,
            );
            let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            state.observe("serve.latency_us.simulate|cache=forward", micros);
            true
        }
        Some(RemoteAnswer::Replica { addr, body }) => {
            let _ = http::write_response(
                stream,
                200,
                &[
                    ("X-Cache", "hit"),
                    ("X-Fleet-Hops", "1"),
                    ("X-Fleet-Replica", addr.as_str()),
                    ("X-Trace-Id", ctx.hex.as_str()),
                ],
                "application/json",
                &body,
            );
            let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            state.observe("serve.latency_us.simulate|cache=replica", micros);
            true
        }
        None => false,
    }
}

/// Pushes a hot entry to its ring successors on a detached thread (the
/// serving request never waits on replication I/O).
fn spawn_replication(state: &Arc<ServeState>, key: u64, canonical: String) {
    let Some(fleet) = state.fleet.clone() else { return };
    let state = Arc::clone(state);
    let spawned =
        std::thread::Builder::new().name("nvpim-serve-replicate".into()).spawn(move || {
            // Fetch the body now, off the hit path.
            let body = state.cache.lock().expect("cache poisoned").get(key, &canonical);
            let Some(body) = body else { return };
            let request_doc = match nvpim_obs::json::parse(&canonical) {
                Ok(doc) => doc,
                Err(_) => return,
            };
            let doc =
                Json::object().with("request", request_doc).with("body", body.as_str()).render();
            for peer in fleet.replica_peers(key) {
                match peer.post_json("/fleet/replicate", &doc, &[]) {
                    Ok(reply) if reply.status == 200 => {
                        fleet.counters.replicated.fetch_add(1, Ordering::Relaxed);
                        state.count("fleet.replicated");
                    }
                    Ok(_) | Err(None) => {}
                    Err(Some(e)) => {
                        if e.is_liveness() {
                            fleet.gossip().mark_unreachable(peer.addr());
                        }
                    }
                }
            }
        });
    if let Err(e) = spawned {
        eprintln!("nvpim-serve: replication thread spawn failed: {e}");
    }
}

/// One round of the gossip driver: advance the local heartbeat, exchange
/// views with the next peer (round-robin), and merge whatever it knows.
fn gossip_round(state: &Arc<ServeState>) {
    let Some(fleet) = &state.fleet else { return };
    fleet.gossip().tick();
    let Some(peer) = fleet.next_gossip_peer() else { return };
    let doc = fleet.gossip().local_doc().render();
    match peer.post_json("/fleet/gossip", &doc, &[]) {
        Ok(reply) if reply.status == 200 => {
            if let Ok(view) = reply.json() {
                fleet.gossip().merge(&view);
            }
            fleet.counters.gossip_rounds.fetch_add(1, Ordering::Relaxed);
            state.count("fleet.gossip.rounds");
        }
        Ok(_) | Err(None) => {}
        Err(Some(e)) => {
            state.count("fleet.gossip.failures");
            if e.is_liveness() {
                fleet.gossip().mark_unreachable(peer.addr());
            }
        }
    }
}

/// `POST /fleet/gossip`: merge the sender's view, answer with ours — one
/// round trip moves both sides forward.
fn fleet_gossip(
    stream: &mut TcpStream,
    request: &HttpRequest,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    let Some(fleet) = &state.fleet else {
        return respond_error(stream, 404, &th, "this instance is not part of a fleet");
    };
    let text = match request.body_text() {
        Ok(text) => text,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    let doc = match nvpim_obs::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return respond_error(stream, 400, &th, &format!("invalid gossip document: {e}")),
    };
    fleet.gossip().merge(&doc);
    respond_json(stream, 200, &th, &fleet.gossip().local_doc());
}

/// `POST /fleet/replicate`: store a pushed hot entry. Content addressing
/// makes this safe to accept from any member at any time — the key is
/// recomputed from the canonical request, so a corrupt or stale push can
/// at worst occupy a cache slot, never serve wrong bytes.
fn fleet_replicate(
    stream: &mut TcpStream,
    request: &HttpRequest,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    let Some(fleet) = &state.fleet else {
        return respond_error(stream, 404, &th, "this instance is not part of a fleet");
    };
    let text = match request.body_text() {
        Ok(text) => text,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    let doc = match nvpim_obs::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return respond_error(stream, 400, &th, &format!("invalid JSON body: {e}")),
    };
    let Some(request_doc) = doc.get("request") else {
        return respond_error(stream, 400, &th, "replicate document needs a `request` field");
    };
    let sim_request = match SimRequest::from_json(request_doc) {
        Ok(r) => r,
        Err(e) => {
            return respond_error(stream, 400, &th, &format!("bad request field: {}", e.message))
        }
    };
    let Some(body) = doc.get("body").and_then(Json::as_str) else {
        return respond_error(stream, 400, &th, "replicate document needs a string `body` field");
    };
    let key = sim_request.cache_key();
    state.cache.lock().expect("cache poisoned").insert(
        key,
        sim_request.canonical_text(),
        body.to_owned(),
    );
    fleet.counters.replica_received.fetch_add(1, Ordering::Relaxed);
    state.count("fleet.replica_received");
    respond_json(
        stream,
        200,
        &th,
        &Json::object().with("status", "stored").with("key", key_hex(key)),
    );
}

/// Runs one simulation to completion, populates the cache, absorbs the
/// run's private observer, and (when configured) writes a manifest. With a
/// parent context the run is wrapped in a `serve.execute` child span —
/// opened on whatever thread executes (the detached `/simulate` worker or
/// a `/batch` pool worker), so the trace shows real lanes.
///
/// Requests that do not ask for the per-epoch wear series are answered by
/// the replay-free [`AnalyticWearEngine`] — a closed-form or lazy query
/// whose `SimResult` is bit-identical to a full replay (irreducible
/// configurations fall back to the simulator inside the engine). The body
/// bytes are therefore identical either way, so analytic answers share
/// cache identity with simulated ones; the manifest records which engine
/// path produced the numbers.
fn execute(
    request: &SimRequest,
    state: &ServeState,
    parent: Option<TraceContext>,
) -> Result<String, String> {
    let local = Observer::collecting();
    let started = Instant::now();
    let mut span = parent.map(|ctx| state.tracer.span(ctx, "serve.execute"));
    if let Some(span) = span.as_mut() {
        span.attr_str("workload", request.workload.kind());
        span.attr_str("config", &request.config.to_string());
        span.attr_u64("iterations", request.iterations);
    }
    let run = catch_unwind(AssertUnwindSafe(|| {
        let cfg = request.sim_config();
        let workload = request.build_workload();
        if request.series {
            let result = EnduranceSimulator::new(cfg).run_with(&workload, request.config, &local);
            (wire::result_body(request, &result), None)
        } else {
            let mut engine = AnalyticWearEngine::new(&workload, request.config, cfg);
            let path = engine.path();
            let result = engine.result_at_with(cfg.iterations, &local);
            (wire::result_body(request, &result), Some((path, engine.artifact_use())))
        }
    }));
    drop(span);
    let (body, analytic_path) = match run {
        Ok(outcome) => outcome,
        Err(_) => return Err("simulation rejected the parameter combination".to_owned()),
    };
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.observer.absorb(&local);
    let key = request.cache_key();
    state.cache.lock().expect("cache poisoned").insert(key, request.canonical_text(), body.clone());
    if let Some(dir) = &state.manifest_dir {
        let mut config = request.canonical_json();
        if let Some((path, usage)) = analytic_path {
            config = config.with("analytic_path", path.label()).with(
                "artifacts",
                Json::object().with("hits", usage.hits).with("misses", usage.misses),
            );
        }
        let manifest = RunManifest::new(&format!("serve:{}", request.workload.kind()))
            .with_config(config)
            .with_observer(&local)
            .with_wall_ns(wall_ns);
        let path = dir.join(format!("{}.manifest.json", key_hex(key)));
        if let Err(e) = std::fs::write(&path, manifest.render()) {
            eprintln!("nvpim-serve: manifest write to {} failed: {e}", path.display());
        }
    }
    Ok(body)
}

/// `POST /batch`: fan a sweep through a [`JobPool`] and stream one NDJSON
/// line per completed cell, in completion order.
fn batch(stream: &mut TcpStream, request: &HttpRequest, state: &Arc<ServeState>, ctx: &ReqCtx) {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    let text = match request.body_text() {
        Ok(text) => text,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    let doc = match nvpim_obs::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return respond_error(stream, 400, &th, &format!("invalid JSON body: {e}")),
    };
    let cells = match &doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => match doc.get("requests") {
            Some(Json::Arr(items)) => items.as_slice(),
            _ => {
                return respond_error(
                    stream,
                    400,
                    &th,
                    "expected {\"requests\": [...]} or a JSON array",
                )
            }
        },
        _ => {
            return respond_error(
                stream,
                400,
                &th,
                "expected {\"requests\": [...]} or a JSON array",
            )
        }
    };
    if cells.is_empty() {
        return respond_error(stream, 400, &th, "batch contains no requests");
    }
    if cells.len() > MAX_BATCH_CELLS {
        return respond_error(
            stream,
            400,
            &th,
            &format!("batch of {} exceeds the {MAX_BATCH_CELLS}-cell limit", cells.len()),
        );
    }
    let mut parsed = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        match SimRequest::from_json(cell) {
            Ok(r) => parsed.push((index, r)),
            Err(e) => {
                return respond_error(stream, 400, &th, &format!("cell {index}: {}", e.message))
            }
        }
    }
    state
        .observer
        .record(&Event::CounterAdd { name: "serve.batch.cells", delta: parsed.len() as u64 });

    if http::write_stream_head(stream, "application/x-ndjson", &th).is_err() {
        return;
    }
    // A batch that already hopped once is served entirely locally — the
    // same single-hop guarantee forwarded `/simulate` calls have.
    let forwarding_allowed = request.header("x-fleet-hop").is_none();
    let out = Mutex::new(&mut *stream);
    let pool = JobPool::new(state.workers);
    pool.map(parsed, |(index, cell)| {
        let key = cell.cache_key();
        let canonical = cell.canonical_text();
        let cached = state.cache.lock().expect("cache poisoned").get(key, &canonical);
        let (was_cached, hops, line) = match cached {
            Some(body) => {
                state.count("serve.cache.hits");
                if let Some(fleet) = &state.fleet {
                    if fleet.owns(key) && fleet.note_owned_hit(key) {
                        spawn_replication(state, key, canonical.clone());
                    }
                }
                (true, 0u64, body)
            }
            None => {
                state.count("serve.cache.misses");
                let remote = match &state.fleet {
                    Some(fleet) if forwarding_allowed => match fleet.route(key) {
                        Route::Forward(owner) => {
                            let fetched =
                                fleet_fetch_remote(state, fleet, &owner, key, &canonical, ctx);
                            if fetched.is_none() {
                                fleet.counters.fallback_local.fetch_add(1, Ordering::Relaxed);
                                state.count("fleet.fallback_local");
                            }
                            fetched
                        }
                        Route::Local => None,
                    },
                    _ => None,
                };
                match remote {
                    Some(RemoteAnswer::Owner { cache, body }) => (cache == "hit", 1, body),
                    Some(RemoteAnswer::Replica { body, .. }) => (true, 1, body),
                    None => match execute(&cell, state, Some(ctx.span)) {
                        Ok(body) => (false, 0, body),
                        Err(message) => {
                            let doc =
                                Json::object().with("index", index).with("error", message).render();
                            let mut w = out.lock().expect("batch stream poisoned");
                            let _ = writeln!(w, "{doc}");
                            return;
                        }
                    },
                }
            }
        };
        let response = nvpim_obs::json::parse(&line).unwrap_or(Json::Str(line));
        let mut doc = Json::object()
            .with("index", index)
            .with("cached", was_cached)
            .with("response", response);
        if state.fleet.is_some() {
            doc = doc.with("hops", hops);
        }
        let mut w = out.lock().expect("batch stream poisoned");
        let _ = writeln!(w, "{}", doc.render());
    });
    let _ = stream.flush();
}
