//! The workload memo: synthesized workloads shared across requests.
//!
//! A request's workload depends only on its shape — the [`WorkloadSpec`]
//! and the array's rows and lanes — never on its seed, configuration,
//! iterations or technology. Synthesis costs more than the analytic query
//! it feeds (mul32 at 256×64: about 1.2–1.8 ms to build, 0.05 ms to
//! answer), so every fresh-seed miss of a known shape would otherwise pay
//! for the same trace again. [`WorkloadMemo`] keeps the built workloads by
//! shape behind an `Arc`, bounded by approximate resident bytes
//! ([`Workload::approx_bytes`]) and evicting least-recently-used entries.
//!
//! Synthesis is deterministic in the shape, so a memoized workload is the
//! one a fresh build would return and answers are byte-identical either
//! way. The lock is never held while a workload is built: two misses of
//! one shape may both build it, and the first insert wins.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use nvpim_obs::Observer;
use nvpim_workloads::Workload;

use crate::request::{SimRequest, WorkloadSpec};

/// Resident-byte bound of the server's memo: 8 MiB. The two `serve-mix`
/// shapes hold 0.82 MB (mul32 and conv4x3w8 at 256×64: 656 and 164 KB)
/// and the Fig. 17 trio at 1024×1024 2.1 MB (dot1024x32 alone 1.3 MB), so
/// the bound keeps every paper-scale shape resident at once with room to
/// spare, while a stream of distinct shapes costs at most this much.
pub const WORKLOAD_MEMO_BYTES: usize = 8 << 20;

/// What identifies a workload: everything synthesis reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    workload: WorkloadSpec,
    rows: usize,
    lanes: usize,
}

#[derive(Debug)]
struct Entry {
    workload: Arc<Workload>,
    bytes: usize,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<Shape, Entry>,
    clock: u64,
    stats: MemoStats,
}

/// Point-in-time memo statistics (served by `/metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered by a resident workload.
    pub hits: u64,
    /// Lookups that synthesized the workload.
    pub misses: u64,
    /// Entries evicted to stay within the byte bound.
    pub evictions: u64,
    /// Workloads currently resident.
    pub entries: usize,
    /// Approximate resident bytes of those workloads.
    pub bytes: usize,
}

/// Built workloads by shape, bounded by resident bytes (module docs).
#[derive(Debug)]
pub struct WorkloadMemo {
    max_bytes: usize,
    inner: Mutex<Inner>,
}

impl WorkloadMemo {
    /// An empty memo holding at most `max_bytes` of workloads. A workload
    /// larger than the bound is built and returned but never kept.
    #[must_use]
    pub fn new(max_bytes: usize) -> Self {
        WorkloadMemo { max_bytes, inner: Mutex::new(Inner::default()) }
    }

    /// The request's workload, built unless the memo already holds its
    /// shape.
    pub fn get(&self, request: &SimRequest) -> Arc<Workload> {
        let shape =
            Shape { workload: request.workload.clone(), rows: request.rows, lanes: request.lanes };
        {
            let mut inner = self.inner.lock().expect("workload memo poisoned");
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&shape) {
                entry.stamp = stamp;
                let workload = Arc::clone(&entry.workload);
                inner.stats.hits += 1;
                return workload;
            }
            inner.stats.misses += 1;
        }
        self.insert(shape, Arc::new(request.build_workload()))
    }

    /// Admits `built` unless a concurrent miss already did (its copy is
    /// returned instead), then evicts least-recently-used entries down to
    /// the bound.
    fn insert(&self, shape: Shape, built: Arc<Workload>) -> Arc<Workload> {
        let bytes = built.approx_bytes();
        if bytes > self.max_bytes {
            return built;
        }
        let mut inner = self.inner.lock().expect("workload memo poisoned");
        if let Some(entry) = inner.entries.get(&shape) {
            return Arc::clone(&entry.workload);
        }
        while inner.stats.bytes + bytes > self.max_bytes {
            let Some(victim) =
                inner.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(s, _)| s.clone())
            else {
                break;
            };
            let evicted = inner.entries.remove(&victim).expect("victim entry present");
            inner.stats.bytes -= evicted.bytes;
            inner.stats.evictions += 1;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.stats.bytes += bytes;
        inner.entries.insert(shape, Entry { workload: Arc::clone(&built), bytes, stamp });
        built
    }

    /// A consistent snapshot of the memo's statistics.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let inner = self.inner.lock().expect("workload memo poisoned");
        MemoStats { entries: inner.entries.len(), ..inner.stats }
    }

    /// Mirrors the statistics as `serve.workload_memo.*` gauges on
    /// `observer` (resident size plus cumulative hit/miss/eviction counts,
    /// like `artifacts.*`).
    pub fn publish_gauges(&self, observer: &Observer) {
        let stats = self.stats();
        let metrics = observer.metrics();
        metrics.gauge("serve.workload_memo.bytes").set(stats.bytes as f64);
        metrics.gauge("serve.workload_memo.entries").set(stats.entries as f64);
        metrics.gauge("serve.workload_memo.hits").set(stats.hits as f64);
        metrics.gauge("serve.workload_memo.misses").set(stats.misses as f64);
        metrics.gauge("serve.workload_memo.evictions").set(stats.evictions as f64);
    }
}

#[cfg(test)]
mod tests {
    use std::str::FromStr as _;

    use super::*;

    fn request(body: &str) -> SimRequest {
        SimRequest::from_str(body).expect("request parses")
    }

    #[test]
    fn one_shape_is_built_once_whatever_the_seed_or_config() {
        let memo = WorkloadMemo::new(WORKLOAD_MEMO_BYTES);
        let a = request(r#"{"workload": "mul", "rows": 128, "lanes": 8, "seed": 1}"#);
        let b = request(
            r#"{"workload": "mul", "rows": 128, "lanes": 8, "seed": 2, "config": "RaxRa+Hw"}"#,
        );
        let first = memo.get(&a);
        let second = memo.get(&b);
        assert!(Arc::ptr_eq(&first, &second), "same shape, different seed and config");
        let other = memo.get(&request(r#"{"workload": "mul", "rows": 128, "lanes": 16}"#));
        assert!(!Arc::ptr_eq(&first, &other), "lanes are part of the shape");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert_eq!(stats.bytes, first.approx_bytes() + other.approx_bytes());
    }

    #[test]
    fn the_least_recently_used_shape_goes_first() {
        let shapes = [8, 16, 32].map(|lanes| {
            request(&format!(r#"{{"workload": "mul", "rows": 128, "lanes": {lanes}}}"#))
        });
        let bytes: Vec<usize> = shapes.iter().map(|r| r.build_workload().approx_bytes()).collect();
        // Room for the first two; the third evicts whichever was used least
        // recently.
        let memo = WorkloadMemo::new(bytes[0] + bytes[1] + bytes[2] - 1);
        for i in [0, 1, 0, 2] {
            let _ = memo.get(&shapes[i]);
        }
        assert_eq!(memo.stats().evictions, 1);
        let _ = memo.get(&shapes[0]);
        assert_eq!(memo.stats().hits, 2, "the recently used shape stayed");
        let _ = memo.get(&shapes[1]);
        assert_eq!(memo.stats().misses, 4, "the least recently used shape was evicted");
    }

    #[test]
    fn a_workload_over_the_bound_is_served_but_not_kept() {
        let memo = WorkloadMemo::new(1024);
        let req = request(r#"{"workload": "mul", "rows": 128, "lanes": 8}"#);
        assert!(memo.get(&req).approx_bytes() > 1024);
        assert_eq!((memo.stats().entries, memo.stats().bytes), (0, 0));
        let _ = memo.get(&req);
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 2));
    }
}
