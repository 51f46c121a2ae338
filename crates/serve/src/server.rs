//! The simulation service: accept loop, bounded dispatch, endpoints.
//!
//! Production behaviors, in one place:
//!
//! * **Backpressure** — connections are dispatched onto a bounded
//!   [`TaskQueue`]; when it is full the accept loop answers `429` with a
//!   `Retry-After` header inline instead of queueing unboundedly. A
//!   request whose wear planes exceed
//!   [`MAX_PLANE_BYTES`](crate::request::MAX_PLANE_BYTES), or whose walk
//!   costs more than [`MAX_WALK_UNITS`](crate::request::MAX_WALK_UNITS),
//!   is refused with `413` at canonicalization, before anything is
//!   allocated or walked; so is a `/batch` with any such cell.
//! * **Timeouts** — a `/simulate` miss runs on the connection worker that
//!   took the request, under the request's deadline (`timeout_ms`, or the
//!   server default). Every epoch loop the run walks reads it at each epoch
//!   boundary; once it has passed, the work stops there, drops its plane,
//!   caches nothing, and the request answers `504`. Compute is therefore
//!   bounded by the workers and the queue, with no thread per job.
//! * **Workload memo** — a miss runs on a workload borrowed from a
//!   [`WorkloadMemo`] keyed by shape (workload spec, rows, lanes), so a
//!   fresh seed of a known shape skips synthesis. Workloads are
//!   deterministic in their shape, so answers are byte-identical to fresh
//!   synthesis; the memo is bounded by [`WORKLOAD_MEMO_BYTES`] and shows on
//!   `/metrics` as `serve.workload_memo.*`.
//! * **Graceful drain** — `POST /shutdown` flips a draining flag and wakes
//!   the accept loop, which blocks in `accept` while serving, with a
//!   connection to its own listener. From then on new connections get
//!   `503`, in-flight requests complete, and the loop exits once the queue
//!   is idle. Only this drain phase polls; the serving path never sleeps.
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
//!   Span attributes are static labels (the endpoint, never the method or
//!   path the client sent), so a retained span costs the same bytes
//!   whatever the request said.

use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvpim_core::{AnalyticWearEngine, EnduranceSimulator, Expired};
use nvpim_exec::{JobPool, SubmitError, TaskQueue};
use nvpim_obs::{
    Event, EventSink as _, Json, JsonlSink, Observer, RunManifest, TraceContext, TraceId,
    TraceRecorder,
};

use crate::cache::ResultCache;
use crate::hash::key_hex;
use crate::http::{self, HttpRequest};
use crate::memo::{WorkloadMemo, WORKLOAD_MEMO_BYTES};
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
    /// milliseconds (`0` = unlimited). Requests may set their own
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
        }
    }
}

/// Shared server state.
struct ServeState {
    cache: Mutex<ResultCache>,
    workloads: WorkloadMemo,
    observer: Observer,
    tracer: Arc<TraceRecorder>,
    started: Instant,
    in_flight: AtomicU64,
    draining: AtomicBool,
    /// A loopback address of the listener, which a drain connects to so
    /// the accept loop wakes up.
    wake_addr: SocketAddr,
    timeout_ms: u64,
    retry_after_s: u64,
    workers: usize,
    queue_depth: usize,
    manifest_dir: Option<PathBuf>,
}

impl ServeState {
    fn count(&self, name: &str) {
        self.observer.record(&Event::CounterAdd { name, delta: 1 });
    }

    fn observe(&self, name: &str, value: u64) {
        self.observer.record(&Event::Observe { name, value });
    }

    /// Starts a graceful drain. The first call also wakes the accept loop,
    /// blocked in `accept`, with a connection to its own listener; the
    /// loop refuses it like any connection that arrives while draining.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)) {
            eprintln!("nvpim-serve: could not wake the accept loop: {e}");
        }
    }

    /// Refreshes the point-in-time server gauges so a metrics snapshot
    /// (JSON or Prometheus) always carries current values.
    fn refresh_gauges(&self) {
        let metrics = self.observer.metrics();
        metrics.gauge("serve.uptime_s").set(self.started.elapsed().as_secs_f64());
        metrics.gauge("serve.in_flight").set(self.in_flight.load(Ordering::SeqCst) as f64);
        metrics.gauge("serve.workers").set(self.workers as f64);
        metrics.gauge("serve.queue_depth").set(self.queue_depth as f64);
        // Artifact-store size and traffic (`artifacts.*`), so `/metrics`
        // shows how much of the batch path's work is being shared.
        nvpim_core::artifacts::publish_gauges(&self.observer);
        self.workloads.publish_gauges(&self.observer);
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
        self.state.begin_drain();
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
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

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
        let cache = ResultCache::new(config.cache_entries, config.cache_dir.clone())?
            .with_spill_limits(config.cache_max_bytes, config.cache_max_age_s);
        let state = Arc::new(ServeState {
            cache: Mutex::new(cache),
            workloads: WorkloadMemo::new(WORKLOAD_MEMO_BYTES),
            observer,
            tracer,
            started: Instant::now(),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            wake_addr,
            timeout_ms: config.timeout_ms,
            retry_after_s: config.retry_after_s,
            workers,
            queue_depth: config.queue_depth,
            manifest_dir,
        });

        let loop_state = Arc::clone(&state);
        let queue_depth = config.queue_depth;
        let accept_thread = std::thread::Builder::new()
            .name("nvpim-serve-accept".into())
            .spawn(move || accept_loop(&listener, &loop_state, workers, queue_depth))
            .expect("spawn accept loop");

        Ok(ServerHandle { addr, state, accept_thread })
    }
}

/// Poll backoff bounds for the drain phase, the only time the accept loop
/// does not block: it must see the queue go idle while still refusing new
/// connections. Each empty poll doubles the sleep up to the cap.
const DRAIN_POLL_MIN: Duration = Duration::from_micros(50);
const DRAIN_POLL_MAX: Duration = Duration::from_micros(500);

/// How long a peer has to send its whole request, however it is split
/// into reads (`http::read_request_within`).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    workers: usize,
    queue_depth: usize,
) {
    let queue = TaskQueue::new(workers, queue_depth);
    let mut backoff = DRAIN_POLL_MIN;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = DRAIN_POLL_MIN;
                if state.draining.load(Ordering::SeqCst) {
                    refuse(stream, 503, &[], "server is draining");
                    // Until now `accept` blocked; the drain polls instead,
                    // so the loop sees the queue go idle.
                    if let Err(e) = listener.set_nonblocking(true) {
                        eprintln!("nvpim-serve: cannot poll the listener to drain: {e}");
                        break;
                    }
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
            // Only the drain phase's listener is non-blocking.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if queue.pending() == 0 && queue.in_flight() == 0 {
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(DRAIN_POLL_MAX);
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
    let request = match http::read_request_within(&mut stream, REQUEST_TIMEOUT) {
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
    let ctx = ReqCtx { hex: trace.to_hex(), span: span.context(), started };
    let endpoint = route(&mut stream, &request, &state, &ctx);
    span.attr_str("endpoint", endpoint.label);
    drop(span);
    state.count(endpoint.requests);
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.observe(endpoint.latency_us, micros);
    state.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// An endpoint's span label and its metric names, `serve.requests.<label>`
/// and `serve.latency_us.<label>`, spelled out at compile time.
struct Endpoint {
    label: &'static str,
    requests: &'static str,
    latency_us: &'static str,
}

macro_rules! endpoint {
    ($label:literal) => {
        Endpoint {
            label: $label,
            requests: concat!("serve.requests.", $label),
            latency_us: concat!("serve.latency_us.", $label),
        }
    };
}

/// Dispatches one parsed request and returns its [`Endpoint`].
fn route(
    stream: &mut TcpStream,
    request: &HttpRequest,
    state: &Arc<ServeState>,
    ctx: &ReqCtx,
) -> Endpoint {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => {
            respond_json(stream, 200, &th, &index_doc());
            endpoint!("index")
        }
        ("GET", "/health") => {
            let doc = Json::object()
                .with("status", "ok")
                .with("draining", state.draining.load(Ordering::SeqCst));
            respond_json(stream, 200, &th, &doc);
            endpoint!("health")
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
            endpoint!("metrics")
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
            endpoint!("trace")
        }
        ("POST", "/simulate") => {
            simulate(stream, request, state, ctx);
            endpoint!("simulate")
        }
        ("POST", "/batch") => {
            batch(stream, request, state, ctx);
            endpoint!("batch")
        }
        ("POST", "/shutdown") => {
            state.begin_drain();
            respond_json(stream, 200, &th, &Json::object().with("status", "draining"));
            endpoint!("shutdown")
        }
        (_, "/" | "/health" | "/metrics" | "/simulate" | "/batch" | "/shutdown") => {
            respond_error(stream, 405, &th, "method not allowed for this path");
            endpoint!("method_not_allowed")
        }
        (_, path) if path.starts_with("/trace/") => {
            respond_error(stream, 405, &th, "method not allowed for this path");
            endpoint!("method_not_allowed")
        }
        _ => {
            respond_error(stream, 404, &th, "no such endpoint");
            endpoint!("not_found")
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
            Json::from("POST /shutdown"),
        ],
    )
}

fn metrics_doc(state: &ServeState) -> Json {
    let cache_stats = state.cache.lock().expect("cache poisoned").stats();
    let serve = Json::object()
        .with("cache", cache_stats.to_json())
        .with("draining", state.draining.load(Ordering::SeqCst))
        .with("in_flight", state.in_flight.load(Ordering::SeqCst))
        .with("queue_depth", state.queue_depth)
        .with("uptime_s", Json::Num(state.started.elapsed().as_secs_f64()))
        .with("version", env!("CARGO_PKG_VERSION"))
        .with("workers", state.workers);
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

/// `POST /simulate`: cache lookup, then bounded-time execution.
fn simulate(stream: &mut TcpStream, request: &HttpRequest, state: &Arc<ServeState>, ctx: &ReqCtx) {
    let th = [("X-Trace-Id", ctx.hex.as_str())];
    let text = match request.body_text() {
        Ok(text) => text,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    let sim_request = match SimRequest::from_str(text) {
        Ok(r) => r,
        Err(e) => return respond_error(stream, e.status, &th, &e.message),
    };
    // Rendered once: the key, the lookup, and a miss's insert share it.
    let canonical = sim_request.canonical_text();
    let key = SimRequest::key_of(&canonical);
    // Hits serve the response bytes pre-rendered at insert time: one buffer
    // clone under the lock, one write, no formatting beyond the trace echo.
    let cached = state.cache.lock().expect("cache poisoned").get_response(key, &canonical);
    if let Some(response) = cached {
        state.count("serve.cache.hits");
        let response = splice_header(response, "X-Trace-Id", &ctx.hex);
        let _ = stream.write_all(&response).and_then(|()| stream.flush());
        let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.observe("serve.latency_us.simulate|cache=hit", micros);
        return;
    }
    state.count("serve.cache.misses");

    let timeout_ms = sim_request.timeout_ms.unwrap_or(state.timeout_ms);
    // A budget past an `Instant`'s range is as good as unlimited.
    let deadline = match timeout_ms {
        0 => None,
        ms => ctx.started.checked_add(Duration::from_millis(ms)),
    };
    match execute(&sim_request, key, canonical, state, Some(ctx.span), deadline) {
        Ok(body) => {
            let headers = [("X-Cache", "miss"), ("X-Trace-Id", ctx.hex.as_str())];
            let _ = http::write_response(stream, 200, &headers, "application/json", &body);
            let micros = u64::try_from(ctx.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            state.observe("serve.latency_us.simulate|cache=miss", micros);
        }
        Err(Unanswered::Rejected) => respond_error(stream, 400, &th, REJECTED),
        // Counted once the walk has stopped, so the counter shows it did.
        Err(Unanswered::Expired) => {
            state.count("serve.timeouts");
            respond_error(stream, 504, &th, "simulation exceeded its time budget");
        }
    }
}

/// Why [`execute`] produced no body.
enum Unanswered {
    /// The run panicked: the parameters passed validation but not a
    /// constructor's invariants ([`REJECTED`]).
    Rejected,
    /// The deadline passed; the walk stopped at an epoch boundary.
    Expired,
}

/// The error text of [`Unanswered::Rejected`].
const REJECTED: &str = "simulation rejected the parameter combination";

/// Runs one simulation on the calling thread, populates the cache under
/// `key` and `canonical` (the request's cache key and canonical text, as
/// the caller's lookup rendered them), absorbs the run's private observer,
/// and (when configured) writes a manifest. With a
/// parent context the run is wrapped in a `serve.execute` child span —
/// opened on whatever thread executes (the `/simulate` connection worker
/// or a `/batch` pool worker), so the trace shows real lanes.
///
/// Every epoch loop of the run reads `deadline` at each epoch boundary
/// (`None`, as `/batch` passes, reads no clock). A run that finds it passed
/// stops there and leaves nothing behind: no cache entry, no absorbed
/// counters, no manifest.
///
/// The workload comes from the server's [`WorkloadMemo`], built on the
/// first miss of its shape.
///
/// Requests that do not ask for the per-epoch wear series are answered by
/// the replay-free [`AnalyticWearEngine`] — every configuration, on its
/// closed-form or lazy rung — whose `SimResult` is bit-identical to a full
/// replay; requests for the series run the simulator. The body bytes are
/// therefore identical either way, so analytic answers share cache
/// identity with simulated ones; the manifest records which engine path
/// produced the numbers.
fn execute(
    request: &SimRequest,
    key: u64,
    canonical: String,
    state: &ServeState,
    parent: Option<TraceContext>,
    deadline: Option<Instant>,
) -> Result<String, Unanswered> {
    let local = Observer::collecting();
    let started = Instant::now();
    let mut span = parent.map(|ctx| state.tracer.span(ctx, "serve.execute"));
    if let Some(span) = span.as_mut() {
        span.attr_str("workload", request.workload.kind());
        span.attr_str("config", request.config.label());
        span.attr_u64("iterations", request.iterations);
    }
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<_, Expired> {
        let cfg = request.sim_config();
        let workload = state.workloads.get(request);
        if request.series {
            let result = EnduranceSimulator::new(cfg).run_within(
                &workload,
                request.config,
                &local,
                deadline,
            )?;
            Ok((wire::keyed_result_body(request, key, &result), None))
        } else {
            let mut engine =
                AnalyticWearEngine::new_within(&workload, request.config, cfg, deadline)?;
            let path = engine.path();
            let result = engine.result_at_within(cfg.iterations, &local, deadline)?;
            let body = wire::keyed_result_body(request, key, &result);
            Ok((body, Some((path, engine.artifact_use()))))
        }
    }));
    drop(span);
    let (body, analytic_path) = match run {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(Expired { .. })) => return Err(Unanswered::Expired),
        Err(_) => return Err(Unanswered::Rejected),
    };
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.observer.absorb(&local);
    state.cache.lock().expect("cache poisoned").insert(key, canonical, body.clone());
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
                return respond_error(
                    stream,
                    e.status,
                    &th,
                    &format!("cell {index}: {}", e.message),
                )
            }
        }
    }
    state
        .observer
        .record(&Event::CounterAdd { name: "serve.batch.cells", delta: parsed.len() as u64 });

    if http::write_stream_head(stream, "application/x-ndjson", &th).is_err() {
        return;
    }
    let out = Mutex::new(&mut *stream);
    let pool = JobPool::new(state.workers);
    pool.map(parsed, |(index, cell)| {
        let canonical = cell.canonical_text();
        let key = SimRequest::key_of(&canonical);
        let cached = state.cache.lock().expect("cache poisoned").get(key, &canonical);
        let (was_cached, line) = match cached {
            Some(body) => {
                state.count("serve.cache.hits");
                (true, body)
            }
            None => {
                state.count("serve.cache.misses");
                match execute(&cell, key, canonical, state, Some(ctx.span), None) {
                    Ok(body) => (false, body),
                    Err(_) => {
                        let doc =
                            Json::object().with("index", index).with("error", REJECTED).render();
                        let mut w = out.lock().expect("batch stream poisoned");
                        let _ = writeln!(w, "{doc}");
                        return;
                    }
                }
            }
        };
        let response = nvpim_obs::json::parse(&line).unwrap_or(Json::Str(line));
        let doc = Json::object()
            .with("index", index)
            .with("cached", was_cached)
            .with("response", response);
        let mut w = out.lock().expect("batch stream poisoned");
        let _ = writeln!(w, "{}", doc.render());
    });
    let _ = stream.flush();
}
