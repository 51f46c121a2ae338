//! Content-addressed memoization of expensive engine intermediates.
//!
//! The paper's headline artifacts (Figs. 14–17, Table 3) are *matrices* of
//! balancing configurations over a handful of workload traces. The expensive
//! parts of evaluating one matrix cell — walking the symbolic trace into
//! logical panels, compiling a +Hw wear kernel — depend on far fewer inputs
//! than the full `(workload, config, schedule, seed)` tuple, so sibling
//! cells recompute byte-identical intermediates over and over. This module is the shared cache that removes
//! that redundancy.
//!
//! # Keying discipline
//!
//! Every artifact is stored under a 128-bit FNV-1a fingerprint of the *exact
//! content that determines its value*:
//!
//! * logical panels — the trace fingerprint (dims, classes, every step), the
//!   architecture style, and whether reads are tracked;
//! * compiled kernels — the trace fingerprint plus the arch/reads flags
//!   (one kernel per trace serves every software row table, relabeled per
//!   epoch — see [`crate::kernel`]);
//!
//! Because every builder in `analytic`/`kernel` is deterministic in those
//! inputs, a hit returns exactly what recomputation would have produced:
//! reuse is bit-identity-safe by construction, and eviction can only cost
//! time, never correctness.
//!
//! The store is bounded (byte budget, least-recently-used eviction) and
//! observable: per-kind hit/miss/eviction counts, entry counts, and resident
//! bytes are exported through [`StoreStats`] into run manifests, and
//! [`publish_gauges`] mirrors the totals as `artifacts.*` gauges for
//! `/metrics`.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nvpim_array::trace::Fnv128;
use nvpim_array::{ArchStyle, Trace};
use nvpim_obs::{Json, Observer};

/// Default store budget: 64 MiB of resident artifact bytes.
///
/// Measured on the Fig. 17 matrix at 1024×1024 (three workloads × 18
/// configurations, 2 500 iterations, 2-vCPU Intel Xeon): the store ends
/// with 0.5 MB resident (three panel sets, three kernels) and no
/// evictions, and a `serve-mix` benchmark round with 32 KB. The budget is
/// a ceiling for long-running servers that see many traces, not a size
/// any measured run approaches.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// A 128-bit content fingerprint (FNV-1a-style, word-folded, [`Fnv128`])
/// over the keyed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex digits (manifest-friendly).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// What kind of intermediate an entry memoizes (each kind gets its own
/// hit/miss/eviction statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Per-(class, logical row) write/read panels from one symbolic trace
    /// walk (`analytic::logical_panels`).
    Panels,
    /// The compiled +Hw wear kernel of one trace (`kernel::compile`).
    Kernel,
    /// No artifact is stored under this kind any more: periodic
    /// configurations fold their own walked super-cycle instead of a
    /// stored closed form. The variant is kept only because the `e2ebench`
    /// package, which indexes [`ArtifactKind::ALL`], must keep building
    /// unchanged.
    ClosedForm,
}

impl ArtifactKind {
    /// All kinds, in stats/manifest order.
    pub const ALL: [ArtifactKind; 3] =
        [ArtifactKind::Panels, ArtifactKind::Kernel, ArtifactKind::ClosedForm];

    /// Stable lowercase label used in manifests and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Panels => "panels",
            ArtifactKind::Kernel => "kernels",
            ArtifactKind::ClosedForm => "closed_forms",
        }
    }

    fn index(self) -> usize {
        match self {
            ArtifactKind::Panels => 0,
            ArtifactKind::Kernel => 1,
            ArtifactKind::ClosedForm => 2,
        }
    }
}

/// Hit/miss/eviction statistics for one [`ArtifactKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident (builder-reported approximation).
    pub bytes: u64,
}

impl KindStats {
    fn absorb(&mut self, other: &KindStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.bytes += other.bytes;
    }

    fn to_json(self) -> Json {
        Json::object()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("evictions", self.evictions)
            .with("entries", self.entries)
            .with("bytes", self.bytes)
    }
}

/// A point-in-time snapshot of the store's per-kind statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Statistics per kind, in [`ArtifactKind::ALL`] order.
    pub per_kind: [KindStats; 3],
}

impl StoreStats {
    /// Totals across all kinds.
    #[must_use]
    pub fn total(&self) -> KindStats {
        let mut t = KindStats::default();
        for k in &self.per_kind {
            t.absorb(k);
        }
        t
    }

    /// The stats as a manifest-ready JSON object: totals at the top level
    /// plus one nested object per kind.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = self.total().to_json();
        for (kind, stats) in ArtifactKind::ALL.iter().zip(self.per_kind.iter()) {
            obj = obj.with(kind.label(), stats.to_json());
        }
        obj
    }
}

/// How many artifact lookups one engine construction (or query) answered
/// from the store versus built fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactUse {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that built the artifact.
    pub misses: u64,
}

struct StoreEntry {
    value: Arc<dyn Any + Send + Sync>,
    kind: ArtifactKind,
    bytes: usize,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(ArtifactKind, Fingerprint), StoreEntry>,
    bytes: usize,
    clock: u64,
}

#[derive(Default)]
struct KindCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A thread-safe, byte-bounded, content-addressed artifact cache.
///
/// Values are stored as `Arc<dyn Any + Send + Sync>` and shared by clone of
/// the `Arc` — a hit never copies the artifact. Builders run *outside* the
/// lock, so concurrent pool workers missing on the same key may build the
/// same artifact twice; the first insert wins and both callers observe
/// identical (deterministically built) values.
pub struct ArtifactStore {
    budget: usize,
    inner: Mutex<Inner>,
    counters: [KindCounters; 3],
}

impl ArtifactStore {
    /// An empty store with the given byte budget. A budget of `0` (or any
    /// value smaller than a single artifact) still works: every insert is
    /// immediately evicted, degrading to build-always without affecting
    /// results.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        ArtifactStore {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
            counters: [KindCounters::default(), KindCounters::default(), KindCounters::default()],
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Returns the artifact under `(kind, key)`, building and inserting it
    /// (LRU-evicting down to the byte budget) on a miss. The builder returns
    /// the value plus its approximate resident size in bytes.
    ///
    /// The boolean is `true` on a hit. Builders must be deterministic in the
    /// keyed content — that is the store's entire correctness argument.
    pub fn get_or_insert<T, F>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        build: F,
    ) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> (T, usize),
    {
        if let Some(hit) = self.lookup::<T>(kind, key) {
            self.counters[kind.index()].hits.fetch_add(1, Ordering::Relaxed);
            return (hit, true);
        }
        self.counters[kind.index()].misses.fetch_add(1, Ordering::Relaxed);
        let (value, bytes) = build();
        let value = Arc::new(value);
        self.insert(kind, key, value.clone(), bytes);
        (value, false)
    }

    fn lookup<T: Send + Sync + 'static>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
    ) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        let entry = inner.map.get_mut(&(kind, key))?;
        entry.stamp = stamp;
        entry.value.clone().downcast::<T>().ok()
    }

    fn insert(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        value: Arc<dyn Any + Send + Sync>,
        bytes: usize,
    ) {
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        if inner.map.contains_key(&(kind, key)) {
            // Another worker built and inserted the same (deterministic)
            // artifact while we were building; keep theirs.
            return;
        }
        inner.bytes += bytes;
        inner.map.insert((kind, key), StoreEntry { value, kind, bytes, stamp });
        // Evict least-recently-used entries until we fit. The entry just
        // inserted is fair game too — a sub-entry-sized budget degrades to
        // build-always (the constant-eviction regime the identity suite
        // exercises), never to an unbounded store.
        while inner.bytes > self.budget {
            let victim = match inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                Some(k) => k,
                None => break,
            };
            let evicted = inner.map.remove(&victim).expect("victim entry present");
            inner.bytes = inner.bytes.saturating_sub(evicted.bytes);
            self.counters[evicted.kind.index()].evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent snapshot of per-kind statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for (i, s) in stats.per_kind.iter_mut().enumerate() {
            s.hits = self.counters[i].hits.load(Ordering::Relaxed);
            s.misses = self.counters[i].misses.load(Ordering::Relaxed);
            s.evictions = self.counters[i].evictions.load(Ordering::Relaxed);
        }
        let inner = self.inner.lock().expect("artifact store poisoned");
        for entry in inner.map.values() {
            let s = &mut stats.per_kind[entry.kind.index()];
            s.entries += 1;
            s.bytes += entry.bytes as u64;
        }
        stats
    }

    /// Drops every resident entry (hit/miss/eviction counters are
    /// monotonic and survive; compare deltas, not absolutes).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        inner.map.clear();
        inner.bytes = 0;
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.stats().total();
        f.debug_struct("ArtifactStore")
            .field("budget", &self.budget)
            .field("entries", &total.entries)
            .field("bytes", &total.bytes)
            .field("hits", &total.hits)
            .field("misses", &total.misses)
            .finish()
    }
}

/// The process-wide store the production engines share (private stores
/// go through [`crate::analytic::AnalyticWearEngine::new_with_store`]).
/// The budget defaults to [`DEFAULT_BUDGET_BYTES`] and can
/// be overridden (in bytes) with the `NVPIM_ARTIFACT_BUDGET` environment
/// variable, read once at first use.
pub fn global() -> &'static ArtifactStore {
    static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let budget = std::env::var("NVPIM_ARTIFACT_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_BUDGET_BYTES);
        ArtifactStore::new(budget)
    })
}

/// Mirrors the global store's totals as `artifacts.*` gauges on the given
/// observer (resident size plus cumulative hit/miss/eviction counts).
pub fn publish_gauges(observer: &Observer) {
    let total = global().stats().total();
    let metrics = observer.metrics();
    metrics.gauge("artifacts.bytes").set(total.bytes as f64);
    metrics.gauge("artifacts.entries").set(total.entries as f64);
    metrics.gauge("artifacts.hits").set(total.hits as f64);
    metrics.gauge("artifacts.misses").set(total.misses as f64);
    metrics.gauge("artifacts.evictions").set(total.evictions as f64);
}

/// Fingerprints the *content* of a trace: dimensions, lane classes, input
/// arity, and every step in order ([`Trace::fingerprint`], memoized on the
/// trace). Two workloads built independently but emitting identical traces
/// share one fingerprint — exactly the sharing the matrix renderers rely
/// on.
#[must_use]
pub fn trace_fingerprint(trace: &Trace) -> Fingerprint {
    Fingerprint(trace.fingerprint())
}

fn arch_tag(arch: ArchStyle) -> u8 {
    match arch {
        ArchStyle::SenseAmp => 1,
        ArchStyle::PresetOutput => 2,
    }
}

/// Key for the logical write/read panels of one trace walk.
pub(crate) fn panels_key(trace_fp: Fingerprint, arch: ArchStyle, track_reads: bool) -> Fingerprint {
    let mut h = Fnv128::new();
    h.byte(b'P');
    h.u128(trace_fp.0);
    h.byte(arch_tag(arch));
    h.bool(track_reads);
    Fingerprint(h.finish())
}

/// Key for a trace's compiled +Hw kernel. No row table: one kernel serves
/// every table, relabeled per epoch.
pub(crate) fn kernel_key(trace_fp: Fingerprint, arch: ArchStyle, track_reads: bool) -> Fingerprint {
    let mut h = Fnv128::new();
    h.byte(b'K');
    h.u128(trace_fp.0);
    h.byte(arch_tag(arch));
    h.bool(track_reads);
    Fingerprint(h.finish())
}

/// A per-engine handle over a store: funnels lookups through
/// [`ArtifactStore::get_or_insert`] and tallies the engine's own hits and
/// misses.
pub(crate) struct StoreCtx<'a> {
    store: &'a ArtifactStore,
    hits: u64,
    misses: u64,
}

impl<'a> StoreCtx<'a> {
    pub(crate) fn new(store: &'a ArtifactStore) -> Self {
        StoreCtx { store, hits: 0, misses: 0 }
    }

    pub(crate) fn get_or_build<T, F>(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        build: F,
    ) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> (T, usize),
    {
        let (value, hit) = self.store.get_or_insert(kind, key, build);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        value
    }

    pub(crate) fn tally(&self) -> ArtifactUse {
        ArtifactUse { hits: self.hits, misses: self.misses }
    }
}

/// One matrix cell's artifact reuse record, for manifest provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProvenance {
    /// The cell label (typically the balancing-config display name).
    pub label: String,
    /// Store lookups answered from cache while evaluating the cell.
    pub hits: u64,
    /// Store lookups that built the artifact.
    pub misses: u64,
}

/// Cap on buffered provenance records (a runaway producer degrades to
/// dropping records, never to unbounded memory).
const PROVENANCE_CAP: usize = 8192;

static PROVENANCE: Mutex<Vec<CellProvenance>> = Mutex::new(Vec::new());

/// Buffers one cell's hit/miss tally for the next manifest writer.
pub fn record_provenance(label: impl Into<String>, usage: ArtifactUse) {
    let mut buf = PROVENANCE.lock().expect("provenance buffer poisoned");
    if buf.len() < PROVENANCE_CAP {
        buf.push(CellProvenance { label: label.into(), hits: usage.hits, misses: usage.misses });
    }
}

/// Drains every buffered provenance record, in recording order.
#[must_use]
pub fn take_provenance() -> Vec<CellProvenance> {
    std::mem::take(&mut *PROVENANCE.lock().expect("provenance buffer poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArrayDims, LaneSet, Step, WriteSource};
    use nvpim_logic::GateKind;

    fn store_key(n: u64) -> Fingerprint {
        let mut h = Fnv128::new();
        h.u64(n);
        Fingerprint(h.finish())
    }

    #[test]
    fn hit_returns_shared_value_without_rebuilding() {
        let store = ArtifactStore::new(1 << 20);
        let (a, hit) =
            store.get_or_insert(ArtifactKind::Panels, store_key(1), || (vec![1u64, 2, 3], 24));
        assert!(!hit);
        let (b, hit) = store.get_or_insert(ArtifactKind::Panels, store_key(1), || {
            panic!("builder must not run on a hit")
        });
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats().per_kind[0];
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 24));
    }

    #[test]
    fn kinds_do_not_collide() {
        let store = ArtifactStore::new(1 << 20);
        store.get_or_insert(ArtifactKind::Panels, store_key(7), || (1u64, 8));
        let (_, hit) = store.get_or_insert(ArtifactKind::Kernel, store_key(7), || (2u64, 8));
        assert!(!hit, "same key under a different kind is a distinct entry");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let store = ArtifactStore::new(100);
        store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 60));
        store.get_or_insert(ArtifactKind::Panels, store_key(2), || (2u64, 60));
        // 120 > 100: key 1 (older stamp) must have been evicted.
        let (_, hit1) = store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 60));
        assert!(!hit1);
        let stats = store.stats().total();
        assert!(stats.evictions >= 1);
        assert!(stats.bytes <= 100);
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let store = ArtifactStore::new(100);
        store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 40));
        store.get_or_insert(ArtifactKind::Panels, store_key(2), || (2u64, 40));
        // Touch 1 so 2 becomes the LRU victim.
        store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 40));
        store.get_or_insert(ArtifactKind::Panels, store_key(3), || (3u64, 40));
        let (_, hit1) = store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 40));
        assert!(hit1, "recently touched entry must survive");
    }

    #[test]
    fn sub_entry_budget_degrades_to_build_always() {
        let store = ArtifactStore::new(1);
        for _ in 0..3 {
            let (v, hit) =
                store.get_or_insert(ArtifactKind::ClosedForm, store_key(9), || (41u64 + 1, 64));
            assert!(!hit);
            assert_eq!(*v, 42);
        }
        let s = store.stats().total();
        assert_eq!((s.misses, s.entries, s.bytes), (3, 0, 0));
        assert_eq!(s.evictions, 3);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let store = ArtifactStore::new(1 << 20);
        store.get_or_insert(ArtifactKind::Kernel, store_key(5), || (5u64, 16));
        store.clear();
        let s = store.stats().total();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.misses, 1);
    }

    fn sample_trace(rows: usize) -> Trace {
        let dims = ArrayDims::new(rows, 4);
        let mut t = Trace::new(dims);
        let all = t.add_class(LaneSet::full(4));
        t.push(Step::Write { row: 0, class: all, source: WriteSource::Input(0) });
        t.push(Step::Write { row: 1, class: all, source: WriteSource::Input(1) });
        t.push(Step::Gate { kind: GateKind::And, ins: [0, 1], out: 2, class: all });
        t.push(Step::Read { row: 2, class: all });
        t
    }

    #[test]
    fn trace_fingerprint_is_content_addressed() {
        let a = trace_fingerprint(&sample_trace(16));
        let b = trace_fingerprint(&sample_trace(16));
        assert_eq!(a, b, "identical content must share a fingerprint");
        let c = trace_fingerprint(&sample_trace(32));
        assert_ne!(a, c, "different dims must not collide");
        let mut t = sample_trace(16);
        let all = 0;
        t.push(Step::Read { row: 0, class: all });
        assert_ne!(a, trace_fingerprint(&t), "extra step must change the fingerprint");
    }

    #[test]
    fn fingerprint_read_before_a_change_is_replaced_after_it() {
        // Read (and so memoize) the fingerprint, then change the trace:
        // the key must be the one a freshly built trace of the new
        // content gets, never the memoized one.
        let mut grown = sample_trace(16);
        let before = trace_fingerprint(&grown);
        grown.push(Step::Read { row: 1, class: 0 });
        let mut fresh = sample_trace(16);
        fresh.push(Step::Read { row: 1, class: 0 });
        assert_ne!(trace_fingerprint(&grown), before, "push must reset the fingerprint");
        assert_eq!(trace_fingerprint(&grown), trace_fingerprint(&fresh));

        let mut classed = sample_trace(16);
        let before = trace_fingerprint(&classed);
        classed.add_class(LaneSet::range(4, 0, 2));
        let mut fresh = sample_trace(16);
        fresh.add_class(LaneSet::range(4, 0, 2));
        assert_ne!(trace_fingerprint(&classed), before, "add_class must reset the fingerprint");
        assert_eq!(trace_fingerprint(&classed), trace_fingerprint(&fresh));

        // A clone carries the memoized fingerprint, equal to a recount.
        let copy = classed.clone();
        assert_eq!(trace_fingerprint(&copy), trace_fingerprint(&classed));
        assert_eq!(copy.fingerprint(), copy.recount_fingerprint());
    }

    #[test]
    fn kernel_keys_separate_arch_and_read_tracking() {
        let fp = trace_fingerprint(&sample_trace(16));
        let a = kernel_key(fp, ArchStyle::PresetOutput, false);
        let b = kernel_key(fp, ArchStyle::SenseAmp, false);
        let c = kernel_key(fp, ArchStyle::PresetOutput, true);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, kernel_key(fp, ArchStyle::PresetOutput, false));
        let other = trace_fingerprint(&sample_trace(32));
        assert_ne!(a, kernel_key(other, ArchStyle::PresetOutput, false));
    }

    #[test]
    fn store_ctx_tallies_hits_and_misses() {
        let store = ArtifactStore::new(1 << 20);
        let mut ctx = StoreCtx::new(&store);
        ctx.get_or_build(ArtifactKind::Panels, store_key(1), || (1u64, 8));
        ctx.get_or_build(ArtifactKind::Panels, store_key(1), || (1u64, 8));
        assert_eq!(ctx.tally(), ArtifactUse { hits: 1, misses: 1 });
        assert_eq!(store.stats().total().entries, 1);
    }

    #[test]
    fn provenance_round_trips() {
        // Drain whatever other tests left behind, then check our records
        // come back in order.
        let _ = take_provenance();
        record_provenance("StxSt", ArtifactUse { hits: 2, misses: 1 });
        record_provenance("BsxBs+Hw", ArtifactUse { hits: 0, misses: 3 });
        let drained = take_provenance();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].label, "StxSt");
        assert_eq!(drained[1], CellProvenance { label: "BsxBs+Hw".into(), hits: 0, misses: 3 });
        assert!(take_provenance().is_empty());
    }

    #[test]
    fn stats_json_has_totals_and_per_kind_sections() {
        let store = ArtifactStore::new(1 << 20);
        store.get_or_insert(ArtifactKind::Panels, store_key(1), || (1u64, 8));
        let json = store.stats().to_json().render();
        for key in ["\"hits\"", "\"misses\"", "\"panels\"", "\"kernels\"", "\"closed_forms\""] {
            assert!(json.contains(key), "stats json missing {key}: {json}");
        }
    }
}
