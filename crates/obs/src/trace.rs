//! Hierarchical tracing: trace/span ids, parent links, attributes, and a
//! lock-cheap ring-buffer recorder exporting Chrome trace-event JSON.
//!
//! The design mirrors the rest of `nvpim-obs`: zero dependencies, cheap
//! when disabled (no [`TraceRecorder`] installed means instrumentation
//! sites never construct a guard), and bounded memory when enabled. Spans
//! land in a fixed-capacity ring — once full, the oldest spans are evicted
//! and counted, so a long-running service never grows without bound. A
//! retained span is compact: its name and its thread's name are indices
//! into a per-recorder table of distinct names (capped at [`MAX_NAMES`]),
//! and its attributes have static keys and static string values, so what
//! it costs never depends on request data or on how many threads recorded.
//!
//! ## Ids and propagation
//!
//! A [`TraceId`] names one logical operation end to end (one `repro`
//! invocation, one HTTP request); a [`SpanId`] names one timed region
//! inside it. Both are non-zero `u64`s rendered as 16-digit lowercase hex
//! on the wire (the `X-Trace-Id` header, Chrome trace `args`). A
//! [`TraceContext`] — trace id plus optional parent span — is `Copy`, so
//! handing it across [`std::thread::scope`] workers is free; each worker
//! opens child spans against the same context and the export shows one
//! coherent tree.
//!
//! ## Example
//!
//! ```
//! use nvpim_obs::trace::TraceRecorder;
//!
//! let rec = TraceRecorder::new();
//! let root = rec.begin_trace("request");
//! {
//!     let mut child = rec.span(root.context(), "simulate");
//!     child.attr_u64("iterations", 100);
//! }
//! drop(root);
//! assert_eq!(rec.spans().len(), 2);
//! let json = rec.chrome_trace();
//! assert!(json.contains("traceEvents"));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Default ring capacity: 4096 spans. The ring stores a 72-byte slot per
/// span plus its attributes (40 bytes each, static keys and labels), and
/// each distinct span or thread name once per recorder. A full ring of the
/// server's spans — a `serve.request` root with one attribute per request
/// and a `serve.execute` child with three per cache miss — requests 125
/// bytes per span, 0.51 MB in all (`tests/trace_alloc.rs` budgets 160 per
/// span). Records with owned names and owned attribute keys requested 328
/// bytes per span for the same shapes, and with the client's method and
/// path attached as well the server's ring held 2.0–2.7 MB.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Distinct span and thread names one recorder keeps. Names are code
/// labels, so real programs use a few dozen; past the cap, a span with a
/// new name records under [`OVERFLOW_NAME`] instead of growing the table.
pub const MAX_NAMES: usize = 1024;

/// The name recorded for spans (and threads) whose name arrived after
/// [`MAX_NAMES`] distinct ones.
pub const OVERFLOW_NAME: &str = "(name table full)";

/// Thread-name index of a span opened on an unnamed thread; exports name
/// the thread `thread-<tid>`.
const UNNAMED: u32 = u32::MAX;

/// Identifier of one end-to-end trace (non-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

/// Identifier of one span within a trace (non-zero, recorder-unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl TraceId {
    /// Wire format: 16 lowercase hex digits (the `X-Trace-Id` value).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire format; rejects empty, zero, oversized, or
    /// non-hex input.
    #[must_use]
    pub fn from_hex(text: &str) -> Option<TraceId> {
        let text = text.trim();
        if text.is_empty() || text.len() > 16 {
            return None;
        }
        let raw = u64::from_str_radix(text, 16).ok()?;
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw id value (always non-zero).
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl SpanId {
    /// Wire format: 16 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// The raw id value (always non-zero).
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Propagation handle: which trace new spans belong to and which span is
/// their parent. `Copy`, so it crosses thread boundaries for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span opened against this context joins.
    pub trace: TraceId,
    /// Parent span for new children (`None` ⇒ children are roots).
    pub parent: Option<SpanId>,
}

/// One span attribute value. Strings are static labels: a retained span
/// never holds bytes a caller (or a client) chose at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Floating-point attribute.
    F64(f64),
    /// String attribute (a static label).
    Str(&'static str),
}

impl AttrValue {
    fn to_json(self) -> Json {
        match self {
            AttrValue::U64(v) => Json::from(v),
            AttrValue::F64(v) => Json::Num(v),
            AttrValue::Str(v) => Json::from(v),
        }
    }
}

/// One completed span, as exported by [`TraceRecorder::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, if any (`None` ⇒ root of its trace).
    pub parent: Option<SpanId>,
    /// Span name (e.g. `serve.simulate`, `exec.job`).
    pub name: String,
    /// Start offset in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small per-process thread id (stable per OS thread).
    pub tid: u64,
    /// Attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// One completed span as the ring holds it: ids and times, the span and
/// thread names as indices into the recorder's name table, and the
/// attributes in an exactly sized slice.
#[derive(Debug)]
struct Slot {
    trace: u64,
    span: u64,
    /// Parent span id, `0` for a root (ids are non-zero).
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
    name: u32,
    /// Thread-name index, or [`UNNAMED`].
    thread: u32,
    attrs: Box<[(&'static str, AttrValue)]>,
}

/// Fixed-capacity span storage (oldest records are evicted, and counted,
/// once the ring is full) plus the table of distinct names its slots
/// refer to.
#[derive(Debug)]
struct Ring {
    slots: Vec<Slot>,
    head: usize,
    evicted: u64,
    /// Distinct names to their indices; index 0 is [`OVERFLOW_NAME`].
    names: HashMap<Box<str>, u32>,
}

impl Ring {
    fn push(&mut self, slot: Slot, capacity: usize) {
        if self.slots.len() < capacity {
            self.slots.push(slot);
        } else {
            self.slots[self.head] = slot;
            self.head = (self.head + 1) % capacity;
            self.evicted += 1;
        }
    }

    /// The index of `name`, added to the table unless it is full.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&index) = self.names.get(name) {
            return index;
        }
        if self.names.len() >= MAX_NAMES {
            return 0;
        }
        let index = u32::try_from(self.names.len()).expect("name table fits u32");
        self.names.insert(name.into(), index);
        index
    }

    /// The name table by index.
    fn names(&self) -> Vec<&str> {
        let mut names = vec![""; self.names.len()];
        for (name, &index) in &self.names {
            names[index as usize] = name;
        }
        names
    }

    /// Slots in insertion order (oldest first).
    fn in_order(&self) -> impl Iterator<Item = &Slot> {
        self.slots[self.head..].iter().chain(&self.slots[..self.head])
    }
}

impl Slot {
    fn record(&self, names: &[&str]) -> SpanRecord {
        SpanRecord {
            trace: TraceId(self.trace),
            span: SpanId(self.span),
            parent: (self.parent != 0).then_some(SpanId(self.parent)),
            name: names[self.name as usize].to_owned(),
            start_ns: self.start_ns,
            dur_ns: self.dur_ns,
            tid: self.tid,
            attrs: self.attrs.to_vec(),
        }
    }

    fn thread_name(&self, names: &[&str]) -> String {
        match self.thread {
            UNNAMED => format!("thread-{}", self.tid),
            index => names[index as usize].to_owned(),
        }
    }
}

/// Collects completed spans into a bounded ring and exports them.
///
/// One lock guards the ring and its name table. It is taken once when a
/// span opens (to intern its name and its thread's) and once when it
/// closes, never while instrumented code runs, so contention stays
/// proportional to span count, not span duration. Memory is bounded by the
/// capacity, the attributes per span and [`MAX_NAMES`]; nothing grows
/// with the number of threads that ever recorded.
pub struct TraceRecorder {
    epoch: Instant,
    capacity: usize,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
    ambient: Mutex<Option<TraceContext>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default ring capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder holding at most `capacity` spans (minimum 16).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        let names = HashMap::from([(OVERFLOW_NAME.into(), 0)]);
        TraceRecorder {
            epoch: Instant::now(),
            capacity,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            ring: Mutex::new(Ring { slots: Vec::new(), head: 0, evicted: 0, names }),
            ambient: Mutex::new(None),
        }
    }

    /// Maximum spans retained before eviction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted so far because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").evicted
    }

    /// Allocates a fresh trace id without opening a span (for callers that
    /// mint ids eagerly, e.g. to echo a header before work starts).
    #[must_use]
    pub fn new_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a root span under a brand-new trace id.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn begin_trace<'r>(&'r self, name: &str) -> SpanGuard<'r> {
        let trace = self.new_trace_id();
        self.start_span(trace, None, name)
    }

    /// Opens a root span under an externally supplied trace id (e.g. a
    /// client's `X-Trace-Id`).
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn adopt_trace<'r>(&'r self, trace: TraceId, name: &str) -> SpanGuard<'r> {
        self.start_span(trace, None, name)
    }

    /// Opens a child span under `ctx`.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span<'r>(&'r self, ctx: TraceContext, name: &str) -> SpanGuard<'r> {
        self.start_span(ctx.trace, ctx.parent, name)
    }

    fn start_span<'r>(
        &'r self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
    ) -> SpanGuard<'r> {
        let span = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let current = std::thread::current();
        let (name, thread) = {
            let mut ring = self.ring.lock().expect("trace ring poisoned");
            (ring.intern(name), current.name().map_or(UNNAMED, |n| ring.intern(n)))
        };
        SpanGuard {
            recorder: self,
            trace,
            span,
            parent,
            name,
            thread,
            start_ns: self.now_ns(),
            tid: current_tid(),
            attrs: Vec::new(),
        }
    }

    /// Sets the process-ambient context picked up by instrumentation that
    /// has no explicit propagation path (e.g. `core::parallel` fan-out
    /// workers). CLI drivers set this once around a whole run; servers use
    /// explicit per-request contexts instead, so concurrent requests never
    /// contaminate each other.
    pub fn set_ambient(&self, ctx: TraceContext) {
        *self.ambient.lock().expect("ambient poisoned") = Some(ctx);
    }

    /// Clears the ambient context.
    pub fn clear_ambient(&self) {
        *self.ambient.lock().expect("ambient poisoned") = None;
    }

    /// The ambient context, if one is set.
    #[must_use]
    pub fn ambient(&self) -> Option<TraceContext> {
        *self.ambient.lock().expect("ambient poisoned")
    }

    /// Nanoseconds since the recorder's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(&self, slot: Slot) {
        self.ring.lock().expect("trace ring poisoned").push(slot, self.capacity);
    }

    /// All retained spans in completion order (oldest first).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans_where(None)
    }

    /// Spans belonging to one trace, in completion order.
    #[must_use]
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.spans_where(Some(trace))
    }

    fn spans_where(&self, only: Option<TraceId>) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let names = ring.names();
        let keep = |s: &&Slot| only.map_or(true, |t| s.trace == t.0);
        ring.in_order().filter(keep).map(|s| s.record(&names)).collect()
    }

    /// Chrome trace-event JSON for every retained span (loadable in
    /// `chrome://tracing` and Perfetto).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_filtered(None)
    }

    /// Chrome trace-event JSON restricted to one trace id.
    #[must_use]
    pub fn chrome_trace_for(&self, trace: TraceId) -> String {
        self.chrome_trace_filtered(Some(trace))
    }

    fn chrome_trace_filtered(&self, only: Option<TraceId>) -> String {
        let (mut spans, threads) = {
            let ring = self.ring.lock().expect("trace ring poisoned");
            let names = ring.names();
            let keep = |s: &&Slot| only.map_or(true, |t| s.trace == t.0);
            let mut threads = BTreeMap::new();
            for slot in ring.in_order().filter(keep) {
                threads.entry(slot.tid).or_insert_with(|| slot.thread_name(&names));
            }
            let spans: Vec<SpanRecord> =
                ring.in_order().filter(keep).map(|s| s.record(&names)).collect();
            (spans, threads)
        };
        // Complete ("X") events must come out sorted by timestamp; the
        // ring holds completion order, which is finish-time order.
        spans.sort_by_key(|s| (s.start_ns, s.span.0));

        let mut events = Vec::new();
        for (tid, name) in threads {
            events.push(
                Json::object()
                    .with("ph", "M")
                    .with("name", "thread_name")
                    .with("pid", 1u64)
                    .with("tid", tid)
                    .with("args", Json::object().with("name", name)),
            );
        }
        for s in &spans {
            let mut args =
                Json::object().with("trace", s.trace.to_hex()).with("span", s.span.to_hex());
            if let Some(parent) = s.parent {
                args = args.with("parent", parent.to_hex());
            }
            for &(key, value) in &s.attrs {
                args = args.with(key, value.to_json());
            }
            events.push(
                Json::object()
                    .with("ph", "X")
                    .with("name", s.name.as_str())
                    .with("cat", "nvpim")
                    .with("ts", Json::Num(s.start_ns as f64 / 1_000.0))
                    .with("dur", Json::Num(s.dur_ns as f64 / 1_000.0))
                    .with("pid", 1u64)
                    .with("tid", s.tid)
                    .with("args", args),
            );
        }
        Json::object().with("traceEvents", Json::Arr(events)).render()
    }

    /// Flamegraph-style aggregation: per span name, how many spans closed,
    /// their summed wall time, and the *self* time (total minus time spent
    /// in direct children still retained in the ring). Rows come out
    /// hottest-self first.
    #[must_use]
    pub fn flame(&self) -> Vec<FlameRow> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                *child_ns.entry(parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut rows: BTreeMap<&str, FlameRow> = BTreeMap::new();
        for s in &spans {
            let row = rows.entry(s.name.as_str()).or_insert_with(|| FlameRow {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.dur_ns;
            let children = child_ns.get(&s.span).copied().unwrap_or(0);
            row.self_ns += s.dur_ns.saturating_sub(children);
        }
        let mut out: Vec<FlameRow> = rows.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        out
    }
}

/// One row of [`TraceRecorder::flame`]'s self-vs-total aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Summed wall time across those spans.
    pub total_ns: u64,
    /// Summed wall time minus time attributed to direct children.
    pub self_ns: u64,
}

/// RAII guard for an open span: records into the ring on drop.
#[must_use = "a span measures until dropped"]
pub struct SpanGuard<'r> {
    recorder: &'r TraceRecorder,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: u32,
    thread: u32,
    start_ns: u64,
    tid: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("trace", &self.trace)
            .field("span", &self.span)
            .finish_non_exhaustive()
    }
}

impl SpanGuard<'_> {
    /// The trace this span belongs to.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.span
    }

    /// Context for opening children of this span.
    #[must_use]
    pub fn context(&self) -> TraceContext {
        TraceContext { trace: self.trace, parent: Some(self.span) }
    }

    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.attrs.push((key, AttrValue::U64(value)));
    }

    /// Attaches a floating-point attribute.
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        self.attrs.push((key, AttrValue::F64(value)));
    }

    /// Attaches a string attribute: a static label, never request data.
    pub fn attr_str(&mut self, key: &'static str, value: &'static str) {
        self.attrs.push((key, AttrValue::Str(value)));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        self.recorder.record(Slot {
            trace: self.trace.0,
            span: self.span.0,
            parent: self.parent.map_or(0, |p| p.0),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: self.tid,
            name: self.name,
            thread: self.thread,
            attrs: std::mem::take(&mut self.attrs).into_boxed_slice(),
        });
    }
}

/// Small per-process thread id: monotonically assigned on first use and
/// stable for the thread's lifetime (unlike [`std::thread::ThreadId`],
/// it is a plain `u64` suitable for the Chrome trace `tid` field).
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let rec = TraceRecorder::new();
        let id = rec.new_trace_id();
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(id.to_hex().len(), 16);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("0"), None);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("11112222333344445"), None);
        assert_eq!(TraceId::from_hex("ff"), Some(TraceId(255)));
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("root");
        let root_ctx = root.context();
        {
            let mut child = rec.span(root_ctx, "child");
            child.attr_u64("n", 7);
            child.attr_str("kind", "unit");
        }
        assert_eq!(rec.spans().len(), 1, "only the closed child is recorded");
        drop(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.name, "child");
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.attrs.len(), 2);
        assert!(root.parent.is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = TraceRecorder::with_capacity(16);
        for i in 0..20 {
            drop(rec.begin_trace(&format!("span-{i}")));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(rec.evicted(), 4);
        assert_eq!(spans[0].name, "span-4", "oldest four were evicted");
        assert_eq!(spans[15].name, "span-19");
    }

    #[test]
    fn names_past_the_table_cap_record_under_the_overflow_name() {
        let rec = TraceRecorder::with_capacity(2 * MAX_NAMES);
        for i in 0..MAX_NAMES + 8 {
            drop(rec.begin_trace(&format!("span-{i}")));
        }
        let spans = rec.spans();
        // The overflow name and the test thread's name hold two entries.
        assert_eq!(spans[MAX_NAMES - 3].name, format!("span-{}", MAX_NAMES - 3));
        assert!(spans[MAX_NAMES - 2..].iter().all(|s| s.name == OVERFLOW_NAME));
    }

    #[test]
    fn adopted_trace_keeps_external_id() {
        let rec = TraceRecorder::new();
        let external = TraceId::from_hex("deadbeef").unwrap();
        drop(rec.adopt_trace(external, "request"));
        assert_eq!(rec.spans()[0].trace, external);
        assert_eq!(rec.spans_for(external).len(), 1);
        assert!(rec.spans_for(TraceId(12345)).is_empty());
    }

    #[test]
    fn cross_thread_spans_share_one_trace() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("matrix");
        let ctx = root.context();
        std::thread::scope(|scope| {
            for job in 0..3u64 {
                let rec = &rec;
                scope.spawn(move || {
                    let mut span = rec.span(ctx, "exec.job");
                    span.attr_u64("job", job);
                });
            }
        });
        drop(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let traces: std::collections::BTreeSet<TraceId> = spans.iter().map(|s| s.trace).collect();
        assert_eq!(traces.len(), 1, "all workers joined the root trace");
        let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert!(tids.len() >= 2, "worker spans carry their own thread ids");
    }

    #[test]
    fn ambient_context_set_and_clear() {
        let rec = TraceRecorder::new();
        assert!(rec.ambient().is_none());
        let root = rec.begin_trace("run");
        rec.set_ambient(root.context());
        assert_eq!(rec.ambient(), Some(root.context()));
        rec.clear_ambient();
        assert!(rec.ambient().is_none());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_sorted_x_events() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("outer");
        drop(rec.span(root.context(), "inner"));
        drop(root);
        let text = rec.chrome_trace();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("array");
        let xs: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 2);
        let mut last_ts = f64::MIN;
        for x in &xs {
            let ts = x.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= last_ts, "X events sorted by ts");
            last_ts = ts;
            assert!(x.get("dur").and_then(Json::as_f64).is_some());
            assert!(x.get("args").and_then(|a| a.get("trace")).is_some());
        }
        let metas =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
        assert!(metas >= 1, "thread_name metadata present");
    }

    #[test]
    fn flame_attributes_self_time_to_leaves() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("outer");
        {
            let _child = rec.span(root.context(), "inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(root);
        let flame = rec.flame();
        assert_eq!(flame.len(), 2);
        let outer = flame.iter().find(|r| r.name == "outer").unwrap();
        let inner = flame.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns > 0);
        assert_eq!(inner.self_ns, inner.total_ns, "leaf keeps all its time");
        assert!(
            outer.self_ns <= outer.total_ns.saturating_sub(inner.total_ns) + outer.total_ns / 10
                || outer.self_ns < outer.total_ns,
            "parent self time excludes child time"
        );
    }
}
