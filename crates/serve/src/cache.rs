//! The content-addressed result cache.
//!
//! Soundness rests on the determinism contract from the parallel-engine
//! work: a canonical request fully determines its result bytes, so a cache
//! entry can be served forever without revalidation. Keys are FNV-1a over
//! the canonical request ([`SimRequest::cache_key`]); each entry stores the
//! canonical request text alongside the body and lookups compare it, so a
//! 64-bit collision degrades to a miss, never a wrong answer.
//!
//! Two tiers:
//!
//! * an in-memory LRU bounded by entry count (eviction order is tracked in
//!   a `VecDeque`; a hit moves its key to the back);
//! * an optional on-disk JSON spill directory. Inserts write through
//!   (best-effort), misses fall back to disk before recomputing, and
//!   evicted entries stay on disk — so a warm cache survives restarts and
//!   overflow degrades to a file read, not a re-simulation.
//!
//! The spill directory carries an append-only `index.jsonl` (one
//! `{"key":"<hex>","bytes":n,"ts":unix_s}` line per spilled entry, in spill
//! order). The index is loaded at startup and consulted before any disk
//! read, so a cold miss costs a hash lookup instead of a filesystem probe.
//! A directory written by an older server (entries but no index) is scanned
//! once and the index rewritten; after that, startup never lists the
//! directory again. Lines from a pre-compaction index that lack
//! `bytes`/`ts` load as zero — size-unknown and ancient — so an age limit
//! retires them on the first pass rather than letting them escape the
//! bound. The stored-request collision guard is unchanged — the index only
//! says a key *may* be on disk, the entry's canonical request still
//! decides.
//!
//! When spill limits are set ([`ResultCache::with_spill_limits`]) every
//! spill runs a compaction pass: entries are retired oldest-first (index
//! order *is* LRU-by-spill order) while the directory exceeds its byte
//! budget or holds entries past the age limit, the entry files are deleted,
//! and the index is rewritten. Compaction never touches the in-memory tier;
//! a retired entry simply recomputes on its next cold miss.
//!
//! [`SimRequest::cache_key`]: crate::request::SimRequest::cache_key

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use nvpim_obs::Json;

use crate::hash::key_hex;
use crate::http;

struct Entry {
    request: String,
    body: String,
    /// The complete HTTP hit response (head + body, `X-Cache: hit`),
    /// rendered once when the entry is admitted so serving a hit is a
    /// single buffer write with no per-request formatting.
    rendered: Vec<u8>,
}

/// Point-in-time cache statistics (served by `/metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted from memory (still on disk when spill is enabled).
    pub evictions: u64,
    /// Hits satisfied by reading a spilled entry back from disk.
    pub disk_loads: u64,
    /// Entries currently resident in memory.
    pub resident: usize,
    /// Keys the spill index knows to exist on disk (0 without spill).
    pub indexed: usize,
    /// Compaction passes that retired at least one spilled entry.
    pub compactions: u64,
    /// Spilled entries retired by compaction (size or age).
    pub compacted_entries: u64,
    /// Bytes reclaimed from the spill directory by compaction.
    pub compacted_bytes: u64,
    /// Bytes the spill directory currently holds (per the index).
    pub spill_bytes: u64,
}

impl CacheStats {
    /// Serializes the statistics for the `/metrics` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("evictions", self.evictions)
            .with("disk_loads", self.disk_loads)
            .with("resident", self.resident)
            .with("indexed", self.indexed)
            .with("compactions", self.compactions)
            .with("compacted_entries", self.compacted_entries)
            .with("compacted_bytes", self.compacted_bytes)
            .with("spill_bytes", self.spill_bytes)
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// One spilled entry as the index knows it.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    key: u64,
    /// Entry-file size at spill time (0 when loaded from a pre-compaction
    /// index line that did not record it).
    bytes: u64,
    /// Unix seconds at spill time (0 = unknown, treated as ancient).
    ts: u64,
}

/// The in-memory view of `index.jsonl`: which keys have spilled entries,
/// in spill order (front = oldest, the compaction victim).
struct DiskIndex {
    entries: Vec<IndexEntry>,
    keys: HashSet<u64>,
    total_bytes: u64,
    path: PathBuf,
}

impl DiskIndex {
    const FILE_NAME: &'static str = "index.jsonl";

    /// Loads the index for `dir`, rebuilding it with a one-time directory
    /// scan when the file is absent (a pre-index spill directory or a
    /// brand-new one — either way the file exists afterwards).
    fn open(dir: &Path) -> DiskIndex {
        let path = dir.join(Self::FILE_NAME);
        if let Ok(text) = std::fs::read_to_string(&path) {
            let mut index =
                DiskIndex { entries: Vec::new(), keys: HashSet::new(), total_bytes: 0, path };
            for line in text.lines() {
                let Ok(doc) = nvpim_obs::json::parse(line) else { continue };
                let Some(key) = doc
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                else {
                    continue;
                };
                let bytes = doc.get("bytes").and_then(Json::as_u64).unwrap_or(0);
                let ts = doc.get("ts").and_then(Json::as_u64).unwrap_or(0);
                if index.keys.insert(key) {
                    index.total_bytes += bytes;
                    index.entries.push(IndexEntry { key, bytes, ts });
                }
            }
            return index;
        }
        let mut index =
            DiskIndex { entries: Vec::new(), keys: HashSet::new(), total_bytes: 0, path };
        index.rebuild_from_scan(dir);
        index
    }

    /// Scans `dir` for `<hex>.json` spill entries and rewrites the index
    /// file to match, taking sizes and ages from file metadata. Only runs
    /// when the index file is missing.
    fn rebuild_from_scan(&mut self, dir: &Path) {
        if let Ok(dir_entries) = std::fs::read_dir(dir) {
            for entry in dir_entries.flatten() {
                let name = entry.file_name();
                let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                    continue;
                };
                let Ok(key) = u64::from_str_radix(stem, 16) else { continue };
                let meta = entry.metadata().ok();
                let bytes = meta.as_ref().map_or(0, std::fs::Metadata::len);
                let ts = meta
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(std::time::SystemTime::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_secs());
                if self.keys.insert(key) {
                    self.total_bytes += bytes;
                    self.entries.push(IndexEntry { key, bytes, ts });
                }
            }
        }
        // Oldest first, so compaction order matches a chronological spill.
        self.entries.sort_by_key(|e| e.ts);
        self.rewrite();
    }

    /// Records a newly spilled key, appending one line to the index file.
    fn record(&mut self, key: u64, bytes: u64) {
        if !self.keys.insert(key) {
            return; // re-spill of a known key; the line is already there
        }
        let entry = IndexEntry { key, bytes, ts: unix_now() };
        self.total_bytes += bytes;
        self.entries.push(entry);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(Self::line(entry).as_bytes()));
        if let Err(e) = appended {
            eprintln!("nvpim-serve: cache index append to {} failed: {e}", self.path.display());
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Retires entries oldest-first while the directory exceeds
    /// `max_bytes` (0 = no byte bound) or holds entries older than
    /// `max_age_s` (0 = no age bound), deleting their files and rewriting
    /// the index. Returns `(entries retired, bytes reclaimed)`.
    fn compact(&mut self, max_bytes: u64, max_age_s: u64) -> (u64, u64) {
        let now = unix_now();
        let mut retired = 0u64;
        let mut reclaimed = 0u64;
        while let Some(&oldest) = self.entries.first() {
            let too_old = max_age_s > 0 && oldest.ts.saturating_add(max_age_s) < now;
            let too_big = max_bytes > 0 && self.total_bytes > max_bytes;
            if !too_old && !too_big {
                break;
            }
            self.entries.remove(0);
            self.keys.remove(&oldest.key);
            self.total_bytes -= oldest.bytes;
            retired += 1;
            reclaimed += oldest.bytes;
            if let Some(dir) = self.path.parent() {
                let _ = std::fs::remove_file(dir.join(format!("{}.json", key_hex(oldest.key))));
            }
        }
        if retired > 0 {
            self.rewrite();
        }
        (retired, reclaimed)
    }

    /// Rewrites the whole index file from the in-memory entries.
    fn rewrite(&self) {
        let mut doc = String::new();
        for &entry in &self.entries {
            doc.push_str(&Self::line(entry));
        }
        if let Err(e) = std::fs::write(&self.path, doc) {
            eprintln!("nvpim-serve: cache index write to {} failed: {e}", self.path.display());
        }
    }

    fn line(entry: IndexEntry) -> String {
        let mut line = Json::object()
            .with("key", key_hex(entry.key))
            .with("bytes", entry.bytes)
            .with("ts", entry.ts)
            .render();
        line.push('\n');
        line
    }
}

/// A bounded LRU of rendered result bodies keyed by request content hash,
/// with optional on-disk spill.
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    /// LRU order; front = least recently used.
    order: VecDeque<u64>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// Present exactly when `dir` is.
    index: Option<DiskIndex>,
    /// Spill-directory byte budget (0 = unlimited).
    max_spill_bytes: u64,
    /// Spill-entry age limit in seconds (0 = unlimited).
    max_spill_age_s: u64,
    stats: CacheStats,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("resident", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("dir", &self.dir)
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` bodies in memory, spilling to
    /// `dir` when given (the directory is created eagerly so a bad path
    /// fails at startup, not mid-request).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the spill directory cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> io::Result<Self> {
        assert!(capacity > 0, "cache capacity must be positive");
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot create cache dir {}: {e}", dir.display()))
            })?;
        }
        let index = dir.as_deref().map(DiskIndex::open);
        Ok(ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            dir,
            index,
            max_spill_bytes: 0,
            max_spill_age_s: 0,
            stats: CacheStats::default(),
        })
    }

    /// Bounds the spill directory: at most `max_bytes` of entry files
    /// (0 = unlimited) and no entry older than `max_age_s` seconds
    /// (0 = unlimited). Runs one compaction pass immediately, so a
    /// restarted server over an oversized directory trims it before
    /// serving. No-op without a spill directory.
    #[must_use]
    pub fn with_spill_limits(mut self, max_bytes: u64, max_age_s: u64) -> Self {
        self.max_spill_bytes = max_bytes;
        self.max_spill_age_s = max_age_s;
        self.compact();
        self
    }

    /// Looks up the body cached for `(key, canonical_request)`, consulting
    /// memory first and then the spill directory. A hit refreshes the
    /// entry's LRU position (and re-admits a disk entry to memory).
    pub fn get(&mut self, key: u64, canonical_request: &str) -> Option<String> {
        self.lookup(key, canonical_request).map(|entry| entry.body.clone())
    }

    /// Like [`ResultCache::get`], but returns the pre-rendered HTTP hit
    /// response (head + body) so the caller can answer with one write.
    pub fn get_response(&mut self, key: u64, canonical_request: &str) -> Option<Vec<u8>> {
        self.lookup(key, canonical_request).map(|entry| entry.rendered.clone())
    }

    fn lookup(&mut self, key: u64, canonical_request: &str) -> Option<&Entry> {
        if let Some(entry) = self.entries.get(&key) {
            if entry.request != canonical_request {
                // Hash collision: different request under this key. Treat as
                // a miss; the colliding insert will overwrite and that is
                // fine — correctness only requires never serving the wrong
                // body.
                self.stats.misses += 1;
                return None;
            }
            self.touch(key);
            self.stats.hits += 1;
            return self.entries.get(&key);
        }
        if let Some(body) = self.load_from_disk(key, canonical_request) {
            self.admit(key, canonical_request.to_owned(), body);
            self.stats.disk_loads += 1;
            self.stats.hits += 1;
            return self.entries.get(&key);
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a freshly computed body, writing through to the spill
    /// directory (best-effort) and evicting the least-recently-used
    /// resident entry on overflow.
    pub fn insert(&mut self, key: u64, canonical_request: String, body: String) {
        self.spill_to_disk(key, &canonical_request, &body);
        self.admit(key, canonical_request, body);
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident: self.entries.len(),
            indexed: self.index.as_ref().map_or(0, |i| i.keys.len()),
            spill_bytes: self.index.as_ref().map_or(0, |i| i.total_bytes),
            ..self.stats
        }
    }

    /// Runs one compaction pass against the configured spill limits.
    fn compact(&mut self) {
        if self.max_spill_bytes == 0 && self.max_spill_age_s == 0 {
            return;
        }
        let Some(index) = &mut self.index else { return };
        let (retired, reclaimed) = index.compact(self.max_spill_bytes, self.max_spill_age_s);
        if retired > 0 {
            self.stats.compactions += 1;
            self.stats.compacted_entries += retired;
            self.stats.compacted_bytes += reclaimed;
        }
    }

    fn admit(&mut self, key: u64, request: String, body: String) {
        let rendered = http::render_response(200, &[("X-Cache", "hit")], "application/json", &body);
        if self.entries.insert(key, Entry { request, body, rendered }).is_some() {
            self.touch(key);
        } else {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else { break };
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    fn spill_path(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.json", key_hex(key))))
    }

    fn spill_to_disk(&mut self, key: u64, request: &str, body: &str) {
        let Some(path) = self.spill_path(key) else { return };
        let doc = Json::object().with("request", request).with("response", body).render();
        let bytes = doc.len() as u64;
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("nvpim-serve: cache spill to {} failed: {e}", path.display());
            return;
        }
        if let Some(index) = &mut self.index {
            index.record(key, bytes);
        }
        self.compact();
    }

    fn load_from_disk(&self, key: u64, canonical_request: &str) -> Option<String> {
        // The index is authoritative for what this cache (or a prior run
        // over the same directory) spilled; an unknown key never touches
        // the filesystem.
        if !self.index.as_ref()?.contains(key) {
            return None;
        }
        let path = self.spill_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let doc = nvpim_obs::json::parse(&text).ok()?;
        if doc.get("request").and_then(Json::as_str) != Some(canonical_request) {
            return None;
        }
        doc.get("response").and_then(Json::as_str).map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_miss_before() {
        let mut cache = ResultCache::new(4, None).unwrap();
        assert_eq!(cache.get(1, "req-1"), None);
        cache.insert(1, "req-1".into(), "body-1".into());
        assert_eq!(cache.get(1, "req-1"), Some("body-1".into()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (1, 1, 1));
    }

    #[test]
    fn hit_response_is_prerendered_http() {
        let mut cache = ResultCache::new(4, None).unwrap();
        assert_eq!(cache.get_response(9, "req"), None);
        cache.insert(9, "req".into(), "{\"x\":1}".into());
        let bytes = cache.get_response(9, "req").expect("hit");
        let text = String::from_utf8(bytes).expect("response is UTF-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("X-Cache: hit\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"), "{text}");
        // Both accessors count as hits on the same entry.
        assert_eq!(cache.get(9, "req"), Some("{\"x\":1}".into()));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn colliding_key_with_different_request_never_serves_wrong_body() {
        let mut cache = ResultCache::new(4, None).unwrap();
        cache.insert(7, "req-a".into(), "body-a".into());
        assert_eq!(cache.get(7, "req-b"), None, "collision must miss, not serve body-a");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2, None).unwrap();
        cache.insert(1, "r1".into(), "b1".into());
        cache.insert(2, "r2".into(), "b2".into());
        assert!(cache.get(1, "r1").is_some()); // refresh 1; 2 is now oldest
        cache.insert(3, "r3".into(), "b3".into());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(2, "r2"), None, "2 was LRU and must be evicted");
        assert!(cache.get(1, "r1").is_some());
        assert!(cache.get(3, "r3").is_some());
    }

    #[test]
    fn reinserting_same_key_does_not_grow_the_cache() {
        let mut cache = ResultCache::new(2, None).unwrap();
        cache.insert(1, "r1".into(), "b1".into());
        cache.insert(1, "r1".into(), "b1-v2".into());
        cache.insert(2, "r2".into(), "b2".into());
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(1, "r1"), Some("b1-v2".into()));
    }

    #[test]
    fn disk_spill_survives_eviction_and_restart() {
        let dir = std::env::temp_dir().join(format!("nvpim-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResultCache::new(1, Some(dir.clone())).unwrap();
            cache.insert(1, "r1".into(), "b1".into());
            cache.insert(2, "r2".into(), "b2".into()); // evicts 1 from memory
            assert_eq!(cache.stats().evictions, 1);
            assert_eq!(cache.get(1, "r1"), Some("b1".into()), "evicted entry reloads from disk");
            assert_eq!(cache.stats().disk_loads, 1);
        }
        // A fresh cache over the same directory (a restarted server) is
        // warm immediately.
        let mut fresh = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(fresh.get(2, "r2"), Some("b2".into()));
        assert_eq!(fresh.stats().disk_loads, 1);
        // ...but only for matching canonical requests.
        assert_eq!(fresh.get(2, "other-request"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nvpim-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_appends_to_the_index_and_startup_loads_it() {
        let dir = scratch_dir("index");
        {
            let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
            cache.insert(0xA, "ra".into(), "ba".into());
            cache.insert(0xB, "rb".into(), "bb".into());
            assert_eq!(cache.stats().indexed, 2);
        }
        let index = std::fs::read_to_string(dir.join("index.jsonl")).expect("index written");
        assert!(index.contains(&key_hex(0xA)), "{index}");
        assert!(index.contains(&key_hex(0xB)), "{index}");
        assert_eq!(index.lines().count(), 2, "one line per spilled key: {index}");
        // A restarted server knows both keys before touching any entry file.
        let mut fresh = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(fresh.stats().indexed, 2);
        assert_eq!(fresh.get(0xA, "ra"), Some("ba".into()));
        assert_eq!(fresh.get(0xB, "rb"), Some("bb".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_is_rebuilt_by_a_one_time_scan() {
        let dir = scratch_dir("rebuild");
        {
            let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
            cache.insert(0xC, "rc".into(), "bc".into());
        }
        // A pre-index directory: entries on disk, no index file.
        std::fs::remove_file(dir.join("index.jsonl")).expect("index existed");
        let mut fresh = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(fresh.stats().indexed, 1, "scan found the spilled entry");
        assert_eq!(fresh.get(0xC, "rc"), Some("bc".into()));
        assert!(dir.join("index.jsonl").exists(), "rebuild rewrote the index");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_absent_from_the_index_never_probe_the_disk() {
        let dir = scratch_dir("gate");
        // Creating the cache writes an (empty) index for the fresh dir.
        drop(ResultCache::new(4, Some(dir.clone())).unwrap());
        // A file smuggled in behind the index's back is invisible: the key
        // set gates every disk read.
        let doc = Json::object().with("request", "rx").with("response", "bx").render();
        std::fs::write(dir.join(format!("{}.json", key_hex(0xD))), doc).unwrap();
        let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(cache.get(0xD, "rx"), None);
        assert_eq!(cache.stats().disk_loads, 0);
        assert_eq!(cache.stats().indexed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_spill_bytes_oldest_first() {
        let dir = scratch_dir("compact-bytes");
        let mut cache = ResultCache::new(8, Some(dir.clone())).unwrap().with_spill_limits(200, 0);
        let body = "x".repeat(60); // each spill file is ~80 bytes with framing
        for key in 1..=5u64 {
            cache.insert(key, format!("r{key}"), body.clone());
        }
        let stats = cache.stats();
        assert!(stats.spill_bytes <= 200, "byte bound violated: {}", stats.spill_bytes);
        assert!(stats.compactions > 0);
        assert!(stats.compacted_entries > 0);
        assert!(stats.compacted_bytes > 0);
        // The oldest spills are the ones gone from disk; the newest survive.
        assert!(!dir.join(format!("{}.json", key_hex(1))).exists(), "oldest entry retired");
        assert!(dir.join(format!("{}.json", key_hex(5))).exists(), "newest entry kept");
        // A restarted cache honors the compacted index: retired keys miss
        // without probing the disk, survivors still load.
        drop(cache);
        let mut fresh = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert!(fresh.stats().spill_bytes <= 200);
        assert_eq!(fresh.get(1, "r1"), None);
        assert_eq!(fresh.get(5, "r5"), Some(body));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_retires_entries_past_the_age_limit() {
        let dir = scratch_dir("compact-age");
        {
            let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
            cache.insert(1, "r1".into(), "b1".into());
        }
        // Backdate the index entry to two hours ago.
        let index_path = dir.join("index.jsonl");
        let line = std::fs::read_to_string(&index_path).unwrap();
        let doc = nvpim_obs::json::parse(line.trim()).unwrap();
        let bytes = doc.get("bytes").and_then(Json::as_u64).unwrap();
        let backdated = Json::object()
            .with("key", key_hex(1))
            .with("bytes", bytes)
            .with("ts", unix_now() - 7200)
            .render();
        std::fs::write(&index_path, format!("{backdated}\n")).unwrap();
        // An hour-long age limit retires it at startup.
        let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap().with_spill_limits(0, 3600);
        let stats = cache.stats();
        assert_eq!(stats.compacted_entries, 1);
        assert_eq!(stats.indexed, 0);
        assert!(!dir.join(format!("{}.json", key_hex(1))).exists());
        assert_eq!(cache.get(1, "r1"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_compaction_index_lines_load_and_age_out() {
        let dir = scratch_dir("compact-legacy");
        {
            let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
            cache.insert(2, "r2".into(), "b2".into());
        }
        // An index written before compaction existed: key only.
        let legacy = Json::object().with("key", key_hex(2)).render();
        std::fs::write(dir.join("index.jsonl"), format!("{legacy}\n")).unwrap();
        // Without limits the entry still serves.
        let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(cache.get(2, "r2"), Some("b2".into()));
        drop(cache);
        std::fs::write(dir.join("index.jsonl"), format!("{legacy}\n")).unwrap();
        // With an age limit the unknown-age (ts 0) entry counts as ancient.
        let cache = ResultCache::new(4, Some(dir.clone())).unwrap().with_spill_limits(0, 3600);
        assert_eq!(cache.stats().compacted_entries, 1);
        assert_eq!(cache.stats().indexed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_survives_a_stale_entry_file() {
        let dir = scratch_dir("stale");
        {
            let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
            cache.insert(0xE, "re".into(), "be".into());
        }
        // Entry file lost (disk cleanup) but index line retained: the
        // lookup degrades to a miss, never a panic or wrong body.
        std::fs::remove_file(dir.join(format!("{}.json", key_hex(0xE)))).unwrap();
        let mut cache = ResultCache::new(4, Some(dir.clone())).unwrap();
        assert_eq!(cache.stats().indexed, 1);
        assert_eq!(cache.get(0xE, "re"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
