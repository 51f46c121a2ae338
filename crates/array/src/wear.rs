//! Per-cell read/write accounting and distribution statistics.
//!
//! # Recycled planes
//!
//! At paper dims every answer is a 1024×1024 plane of `u64` counters, and
//! a fresh 8 MiB plane costs its 2 048 page faults on first touch. A
//! dropped map therefore hands its planes to one process-wide, bounded
//! free list, and [`WearMap::new`], [`WearMap::prefaulted`] and the lazy
//! read plane take a plane of equal cell count from it before they
//! allocate, zeroing it one row at a time. Only planes that were fully
//! written when handed out (`prefaulted` planes and planes from the list)
//! enter it: recycling lazily written `vec![0; n]` planes cost query CPU
//! in measurement. Planes under 2^17 cells (1 MiB) never enter it, and it
//! holds at most 136 MiB. [`plane_reuse`] reports its traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{ArrayDims, LaneSet};

/// Cells a plane must hold to enter the free list: 2^17, a 1 MiB plane.
/// Smaller planes, such as the service's 256×64 answers, stay on malloc.
const RECYCLE_FLOOR_CELLS: usize = 1 << 17;

/// Bytes of retired planes the free list holds at most: 17 paper-dims
/// planes of 8 MiB, one short of the live set of a workload's
/// 18-configuration fan-out. Holding all 18 raised `repro all --full`'s
/// peak RSS by about one plane, as the next fan-out's other allocations
/// found no freed memory to reuse (DESIGN.md §"Bounded everything"). A
/// plane that would overflow it is freed.
const RECYCLE_CAP_BYTES: usize = 136 << 20;

/// The process-wide free list of retired planes.
static RETIRED: Mutex<PlaneList> = Mutex::new(PlaneList::new());
static PLANES_REUSED: AtomicU64 = AtomicU64::new(0);
static PLANES_FRESH: AtomicU64 = AtomicU64::new(0);

/// The free list's traffic since the process started ([`plane_reuse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneReuse {
    /// Planes taken from the free list.
    pub reused: u64,
    /// Planes of at least 2^17 cells allocated because the list held none
    /// of their cell count.
    pub fresh: u64,
    /// Bytes of retired planes the list holds now.
    pub retained_bytes: u64,
}

/// The free list's counters: planes reused, planes allocated fresh, and
/// bytes retained.
#[must_use]
pub fn plane_reuse() -> PlaneReuse {
    let retained = RETIRED.lock().map_or(0, |list| list.bytes);
    PlaneReuse {
        reused: PLANES_REUSED.load(Ordering::Relaxed),
        fresh: PLANES_FRESH.load(Ordering::Relaxed),
        retained_bytes: retained as u64,
    }
}

/// Retired planes, most recently retired last, and their bytes.
#[derive(Debug)]
struct PlaneList {
    planes: Vec<Vec<u64>>,
    bytes: usize,
}

impl PlaneList {
    const fn new() -> Self {
        PlaneList { planes: Vec::new(), bytes: 0 }
    }

    /// The most recently retired plane of `cells` cells, if any.
    fn take(&mut self, cells: usize) -> Option<Vec<u64>> {
        let at = self.planes.iter().rposition(|plane| plane.len() == cells)?;
        let plane = self.planes.remove(at);
        self.bytes -= std::mem::size_of_val(plane.as_slice());
        Some(plane)
    }

    /// Keeps `plane` if it fits under [`RECYCLE_CAP_BYTES`]; otherwise
    /// hands it back, for the caller to free outside the lock.
    fn retire(&mut self, plane: Vec<u64>) -> Option<Vec<u64>> {
        let bytes = std::mem::size_of_val(plane.as_slice());
        if self.bytes + bytes > RECYCLE_CAP_BYTES {
            return Some(plane);
        }
        self.bytes += bytes;
        self.planes.push(plane);
        None
    }
}

/// A retired plane of `dims.cells()` cells, zeroed, or `None` (counted as
/// fresh at or above the floor) when the list holds none.
fn reused_plane(dims: ArrayDims) -> Option<Vec<u64>> {
    let cells = dims.cells();
    if cells < RECYCLE_FLOOR_CELLS {
        return None;
    }
    let Some(mut plane) = RETIRED.lock().ok().and_then(|mut list| list.take(cells)) else {
        PLANES_FRESH.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    // One fill per row (8 KiB at paper dims): a single 8 MiB fill, though
    // faster alone (0.8 against 1.0 ms), made the `Ra`-lane queries that
    // render into the plane next 13–23% slower in measurement, for a cause
    // not established. The opaque row keeps the compiler from fusing the
    // fills back into one.
    for row in plane.chunks_exact_mut(dims.lanes()) {
        std::hint::black_box(row).fill(0);
    }
    PLANES_REUSED.fetch_add(1, Ordering::Relaxed);
    Some(plane)
}

/// Returns `plane` to the free list if it has at least
/// [`RECYCLE_FLOOR_CELLS`] cells and fits; otherwise frees it.
fn retire(plane: Vec<u64>) {
    if plane.len() < RECYCLE_FLOOR_CELLS {
        return;
    }
    let rejected = match RETIRED.lock() {
        Ok(mut list) => list.retire(plane),
        Err(_) => Some(plane),
    };
    drop(rejected);
}

/// A 2-D map of accumulated cell writes (and reads) over an array.
///
/// This is the paper's core measurement artifact: the write distributions
/// visualized as heatmaps in Figs. 14–16 and fed into the lifetime formula
/// (Eq. 4) via [`WearMap::max_writes`].
///
/// # Examples
///
/// ```
/// use nvpim_array::{ArrayDims, LaneSet, WearMap};
///
/// let mut wear = WearMap::new(ArrayDims::new(4, 4));
/// wear.add_writes(0, &LaneSet::full(4), 5);
/// wear.add_writes(1, &LaneSet::range(4, 0, 2), 1);
/// assert_eq!(wear.max_writes(), 5);
/// assert_eq!(wear.writes_at(1, 1), 1);
/// assert_eq!(wear.writes_at(1, 3), 0);
/// ```
#[derive(Debug)]
pub struct WearMap {
    dims: ArrayDims,
    writes: Vec<u64>,
    /// Empty until the first read is booked, so runs without read tracking
    /// never allocate (or page in) a read plane.
    reads: Vec<u64>,
    // Running grand totals, maintained by every mutator so that
    // `total_writes`/`total_reads` are O(1). The conservation checker in
    // nvpim-check cross-validates these against the per-cell sums.
    sum_writes: u64,
    sum_reads: u64,
    /// The hottest cell's write count (Eq. 4), or `None` when unknown.
    /// Whole-plane passes (construction, [`WearMap::from_planes`],
    /// [`WearMap::add_full_rows`], [`WearMap::merge`]) set it in the pass
    /// they already make; scattered adders only clear it, so their loops
    /// carry no per-cell compare.
    /// [`WearMap::max_writes`] scans only while it is unknown.
    max_writes: Option<u64>,
    /// Whether each plane (writes, reads) was fully written when handed
    /// out, and so returns to the free list on drop.
    recycle: [bool; 2],
}

impl WearMap {
    /// A zeroed wear map, on a recycled plane when the free list holds
    /// one of its cell count.
    #[must_use]
    pub fn new(dims: ArrayDims) -> Self {
        let (writes, recycle) = zeroed(dims);
        WearMap {
            dims,
            writes,
            reads: Vec::new(),
            sum_writes: 0,
            sum_reads: 0,
            max_writes: Some(0),
            recycle: [recycle, false],
        }
    }

    /// A map that owns `writes` (and `reads`, empty when reads are not
    /// tracked) as its row-major cell planes. One pass over each plane
    /// sets the running sums and the carried maximum, so an analytic
    /// answer evaluated straight into fresh planes costs no copy and no
    /// read-modify-write of freshly mapped pages.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is not `dims.cells()` long, or `reads` is neither
    /// empty nor `dims.cells()` long.
    #[must_use]
    pub fn from_planes(dims: ArrayDims, writes: Vec<u64>, reads: Vec<u64>) -> Self {
        assert_eq!(writes.len(), dims.cells(), "write plane length mismatch");
        assert!(reads.is_empty() || reads.len() == dims.cells(), "read plane length mismatch");
        let (sum_writes, max) = sum_and_max(&writes);
        let sum_reads = reads.iter().sum();
        let recycle = [false; 2];
        WearMap { dims, writes, reads, sum_writes, sum_reads, max_writes: Some(max), recycle }
    }

    /// A zeroed map whose write plane is zeroed by writing it, so each page
    /// is first touched by a write fault here instead of by a read fault
    /// and then a copy-on-write fault in the first scattered add; or a
    /// recycled plane, whose pages are already mapped. Its sums and carried
    /// maximum are those of [`WearMap::from_planes`] over the same zeros,
    /// set without scanning them.
    #[must_use]
    pub fn prefaulted(dims: ArrayDims) -> Self {
        let writes = reused_plane(dims).unwrap_or_else(|| {
            // An opaque zero keeps the compiler from turning the fill into
            // a zeroed allocation, which would leave the pages untouched.
            let mut writes = Vec::with_capacity(dims.cells());
            writes.resize(dims.cells(), std::hint::black_box(0));
            writes
        });
        WearMap {
            dims,
            writes,
            reads: Vec::new(),
            sum_writes: 0,
            sum_reads: 0,
            max_writes: Some(0),
            recycle: [true; 2],
        }
    }

    /// The dimensions this map covers.
    #[must_use]
    pub fn dims(&self) -> ArrayDims {
        self.dims
    }

    /// Adds `count` writes to the cell at every lane of `lanes` in `row`.
    pub fn add_writes(&mut self, row: usize, lanes: &LaneSet, count: u64) {
        let base = row * self.dims.lanes();
        for lane in lanes.iter() {
            self.writes[base + lane] += count;
            self.sum_writes += count;
        }
        self.max_writes = None;
    }

    /// Adds `count` reads to the cell at every lane of `lanes` in `row`.
    pub fn add_reads(&mut self, row: usize, lanes: &LaneSet, count: u64) {
        self.track_reads();
        let base = row * self.dims.lanes();
        for lane in lanes.iter() {
            self.reads[base + lane] += count;
            self.sum_reads += count;
        }
    }

    /// Adds one write at a single cell.
    pub fn add_write_at(&mut self, row: usize, lane: usize, count: u64) {
        self.writes[self.dims.index_of(row, lane)] += count;
        self.sum_writes += count;
        self.max_writes = None;
    }

    /// Adds one read at a single cell.
    pub fn add_read_at(&mut self, row: usize, lane: usize, count: u64) {
        self.track_reads();
        self.reads[self.dims.index_of(row, lane)] += count;
        self.sum_reads += count;
    }

    /// Accumulated writes at `(row, lane)`.
    #[must_use]
    pub fn writes_at(&self, row: usize, lane: usize) -> u64 {
        self.writes[self.dims.index_of(row, lane)]
    }

    /// Accumulated reads at `(row, lane)`.
    #[must_use]
    pub fn reads_at(&self, row: usize, lane: usize) -> u64 {
        self.reads.get(self.dims.index_of(row, lane)).copied().unwrap_or(0)
    }

    /// Allocates the read plane on first use, recycled when the free list
    /// holds one of its cell count.
    fn track_reads(&mut self) {
        if self.reads.is_empty() {
            (self.reads, self.recycle[1]) = zeroed(self.dims);
        }
    }

    /// Merges another wear map into this one.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &WearMap) {
        assert_eq!(self.dims, other.dims, "wear map dimension mismatch");
        let mut max = 0u64;
        for (a, b) in self.writes.iter_mut().zip(&other.writes) {
            *a += b;
            max = max.max(*a);
        }
        self.max_writes = Some(max);
        if !other.reads.is_empty() {
            self.track_reads();
        }
        for (a, b) in self.reads.iter_mut().zip(&other.reads) {
            *a += b;
        }
        self.sum_writes += other.sum_writes;
        self.sum_reads += other.sum_reads;
    }

    /// Folds many wear maps into one by summation — the result-collection
    /// primitive for parallel runs, where each worker accumulates a private
    /// map that is merged back in deterministic submission order.
    ///
    /// # Panics
    ///
    /// Panics if any map's dimensions differ from `dims`.
    #[must_use]
    pub fn merged(dims: ArrayDims, maps: impl IntoIterator<Item = WearMap>) -> WearMap {
        let mut total = WearMap::new(dims);
        for map in maps {
            total.merge(&map);
        }
        total
    }

    /// Adds `count` writes at every listed lane of `row` — the render of a
    /// lane class whose physical lanes were resolved once for many rows.
    pub fn add_row_writes(&mut self, row: usize, lanes: &[usize], count: u64) {
        add_row_list(self.dims, &mut self.writes, &mut self.sum_writes, row, lanes, count);
        self.max_writes = None;
    }

    /// Adds `count` reads at every listed lane of `row` (see
    /// [`WearMap::add_row_writes`]).
    pub fn add_row_reads(&mut self, row: usize, lanes: &[usize], count: u64) {
        self.track_reads();
        add_row_list(self.dims, &mut self.reads, &mut self.sum_reads, row, lanes, count);
    }

    /// Adds `count × weights[i]` writes (or reads) at lane `lanes[i]` of
    /// `row` — the render of a lane class whose per-lane occupancy was
    /// counted over many epochs.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` and `weights` differ in length.
    pub fn add_row_weighted(
        &mut self,
        row: usize,
        lanes: &[usize],
        weights: &[u64],
        count: u64,
        reads: bool,
    ) {
        assert_eq!(lanes.len(), weights.len(), "one weight per lane");
        let (cells, sum) = self.row_plane(row, reads);
        let mut added = 0;
        for (&lane, &weight) in lanes.iter().zip(weights) {
            cells[lane] += count * weight;
            added += weight;
        }
        *sum += count * added;
    }

    /// Adds `counts[g]` writes (or reads) at every lane of group `g` of
    /// `row`, where group `g` is `lanes[ends[g - 1]..ends[g]]` (from 0 for
    /// the first) — the render of disjoint lane lists that each take one
    /// count, so a lane holding several classes is added to once.
    ///
    /// # Panics
    ///
    /// Panics if `ends` and `counts` differ in length, or an end or a lane
    /// is out of range.
    pub fn add_row_groups(
        &mut self,
        row: usize,
        lanes: &[u32],
        ends: &[u32],
        counts: &[u64],
        reads: bool,
    ) {
        assert_eq!(ends.len(), counts.len(), "one count per lane group");
        let (cells, sum) = self.row_plane(row, reads);
        let (mut start, mut added) = (0, 0);
        for (&end, &count) in ends.iter().zip(counts) {
            let group = &lanes[start..end as usize];
            start = end as usize;
            if count == 0 {
                continue;
            }
            for &lane in group {
                cells[lane as usize] += count;
            }
            added += count * group.len() as u64;
        }
        *sum += added;
    }

    /// Adds `per_lane[l]` writes (or reads) at lane `l` of `row`, for
    /// every lane.
    ///
    /// # Panics
    ///
    /// Panics if `per_lane` is not `lanes()` long.
    pub fn add_row_per_lane(&mut self, row: usize, per_lane: &[u64], reads: bool) {
        let (cells, sum) = self.row_plane(row, reads);
        assert_eq!(cells.len(), per_lane.len(), "one count per lane");
        for (cell, &count) in cells.iter_mut().zip(per_lane) {
            *cell += count;
        }
        *sum += per_lane.iter().sum::<u64>();
    }

    /// One row of the write (or read) plane and that plane's running sum;
    /// a write clears the carried maximum.
    fn row_plane(&mut self, row: usize, reads: bool) -> (&mut [u64], &mut u64) {
        let lanes = self.dims.lanes();
        let (plane, sum) = if reads {
            self.track_reads();
            (&mut self.reads, &mut self.sum_reads)
        } else {
            self.max_writes = None;
            (&mut self.writes, &mut self.sum_writes)
        };
        (&mut plane[row * lanes..(row + 1) * lanes], sum)
    }

    /// Adds `count` writes at every cell of `row` — the render of a lane
    /// class that spans every lane, as one contiguous slice pass.
    pub fn add_full_row_writes(&mut self, row: usize, count: u64) {
        add_full_row(self.dims, &mut self.writes, &mut self.sum_writes, row, count);
        self.max_writes = None;
    }

    /// Adds `count` reads at every cell of `row` (see
    /// [`WearMap::add_full_row_writes`]).
    pub fn add_full_row_reads(&mut self, row: usize, count: u64) {
        self.track_reads();
        add_full_row(self.dims, &mut self.reads, &mut self.sum_reads, row, count);
    }

    /// Adds `row_writes[r]` (and `row_reads[r]`) to every cell of row `r`
    /// in place, in one pass that also sets the carried maximum. A plane
    /// whose running sum is 0 only has its counted rows written (`fill`,
    /// not `+=`), so untouched pages are first touched by a write and the
    /// rest stay unmapped. `row_reads` is `None` when reads are not
    /// tracked.
    ///
    /// # Panics
    ///
    /// Panics if a row-count slice is not `rows()` long.
    pub fn add_full_rows(&mut self, row_writes: &[u64], row_reads: Option<&[u64]>) {
        let max = add_rows_in_place(self.dims, &mut self.writes, &mut self.sum_writes, row_writes);
        self.max_writes = Some(max);
        if let Some(rows) = row_reads.filter(|rows| rows.iter().any(|&c| c > 0)) {
            self.track_reads();
            add_rows_in_place(self.dims, &mut self.reads, &mut self.sum_reads, rows);
        }
    }

    /// Maximum writes over all cells (the lifetime-limiting cell, Eq. 4).
    /// O(1) when the carried maximum is known; otherwise a scan.
    #[must_use]
    pub fn max_writes(&self) -> u64 {
        self.max_writes.unwrap_or_else(|| self.recount_max_writes())
    }

    /// Maximum writes recomputed by scanning every cell — the O(cells)
    /// reference the carried [`WearMap::max_writes`] must always agree
    /// with. Exposed for the conservation checker.
    #[must_use]
    pub fn recount_max_writes(&self) -> u64 {
        sum_and_max(&self.writes).1
    }

    /// Total writes over all cells. O(1): returns the running sum kept in
    /// lockstep with the per-cell counters.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.sum_writes
    }

    /// Total reads over all cells. O(1), like [`WearMap::total_writes`].
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.sum_reads
    }

    /// Total writes recomputed by summing every cell — the O(cells)
    /// reference the cached [`WearMap::total_writes`] must always agree
    /// with. Exposed for the conservation checker.
    #[must_use]
    pub fn recount_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total reads recomputed by summing every cell (see
    /// [`WearMap::recount_writes`]).
    #[must_use]
    pub fn recount_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Number of cells written at least once (the touched footprint; also
    /// used to pre-size sparse exports like the CSV report).
    #[must_use]
    pub fn nonzero_cells(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
    }

    /// Mean writes per cell.
    #[must_use]
    pub fn mean_writes(&self) -> f64 {
        self.total_writes() as f64 / self.dims.cells() as f64
    }

    /// Coordinates `(row, lane)` of a maximally-written cell.
    #[must_use]
    pub fn argmax_writes(&self) -> (usize, usize) {
        let (idx, _) = self
            .writes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)
            .expect("wear map is never empty");
        (idx / self.dims.lanes(), idx % self.dims.lanes())
    }

    /// Ratio of the maximum to the mean write count (1.0 = perfectly
    /// balanced). The paper's balancing strategies aim to drive this
    /// toward 1.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_writes();
        if mean == 0.0 {
            1.0
        } else {
            self.max_writes() as f64 / mean
        }
    }

    /// Per-row totals (marginal over lanes).
    #[must_use]
    pub fn row_totals(&self) -> Vec<u64> {
        (0..self.dims.rows())
            .map(|r| {
                let base = r * self.dims.lanes();
                self.writes[base..base + self.dims.lanes()].iter().sum()
            })
            .collect()
    }

    /// Per-lane totals (marginal over rows).
    #[must_use]
    pub fn lane_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.dims.lanes()];
        for r in 0..self.dims.rows() {
            let base = r * self.dims.lanes();
            for (lane, t) in totals.iter_mut().enumerate() {
                *t += self.writes[base + lane];
            }
        }
        totals
    }

    /// Per-cell write counts of one row.
    #[must_use]
    pub fn row_writes(&self, row: usize) -> &[u64] {
        let base = row * self.dims.lanes();
        &self.writes[base..base + self.dims.lanes()]
    }

    /// Gini coefficient of the write distribution (0 = perfectly even,
    /// → 1 = concentrated on few cells). A scalar summary of heatmap
    /// uniformity used in reports.
    #[must_use]
    pub fn gini(&self) -> f64 {
        let mut sorted: Vec<u64> = self.writes.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let total: u64 = sorted.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 =
            sorted.iter().enumerate().map(|(i, &w)| (i as f64 + 1.0) * w as f64).sum();
        (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
    }

    /// Nearest-rank quantile of the per-cell write distribution:
    /// `write_quantile(0.99)` is the smallest count `w` such that at least
    /// 99% of cells have `writes ≤ w`. `q` is clamped to `[0, 1]`; `q = 0`
    /// gives the minimum, `q = 1` the maximum. A pure function of the
    /// write counts, so replayed and compiled runs agree bit for bit.
    #[must_use]
    pub fn write_quantile(&self, q: f64) -> u64 {
        if self.writes.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = self.writes.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: ceil(q * n), 1-based; q = 0 maps to rank 1.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Downsamples the write map onto a `grid_rows × grid_lanes` grid of
    /// cell-averaged densities normalized to the maximum bucket (1.0 =
    /// hottest bucket), for heatmap rendering.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero or exceeds the array
    /// dimension.
    #[must_use]
    pub fn heatmap(&self, grid_rows: usize, grid_lanes: usize) -> Vec<Vec<f64>> {
        assert!(grid_rows > 0 && grid_rows <= self.dims.rows(), "bad grid rows");
        assert!(grid_lanes > 0 && grid_lanes <= self.dims.lanes(), "bad grid lanes");
        let mut sums = vec![vec![0f64; grid_lanes]; grid_rows];
        let mut counts = vec![vec![0u64; grid_lanes]; grid_rows];
        for r in 0..self.dims.rows() {
            let gr = r * grid_rows / self.dims.rows();
            let base = r * self.dims.lanes();
            for l in 0..self.dims.lanes() {
                let gl = l * grid_lanes / self.dims.lanes();
                sums[gr][gl] += self.writes[base + l] as f64;
                counts[gr][gl] += 1;
            }
        }
        let mut max = 0f64;
        for (row, crow) in sums.iter_mut().zip(&counts) {
            for (v, &c) in row.iter_mut().zip(crow) {
                *v /= c as f64;
                max = max.max(*v);
            }
        }
        if max > 0.0 {
            for row in &mut sums {
                for v in row {
                    *v /= max;
                }
            }
        }
        sums
    }
}

impl Clone for WearMap {
    /// Zero-aware: a plane whose running sum is 0 (e.g. the write plane of
    /// a lazy backend whose classes all span every lane) is allocated
    /// zeroed instead of copied, so the allocator can hand out fresh pages
    /// without touching them. The carried maximum is kept.
    fn clone(&self) -> Self {
        WearMap {
            writes: clone_plane(&self.writes, self.sum_writes),
            reads: clone_plane(&self.reads, self.sum_reads),
            recycle: [false; 2],
            ..*self
        }
    }
}

impl Drop for WearMap {
    /// Returns the planes that were fully written when handed out to the
    /// free list.
    fn drop(&mut self) {
        let [writes, reads] = self.recycle;
        if writes {
            retire(std::mem::take(&mut self.writes));
        }
        if reads {
            retire(std::mem::take(&mut self.reads));
        }
    }
}

/// A zeroed plane of `dims.cells()` cells and whether it may be recycled:
/// a recycled plane, or else a zeroed allocation, whose pages are touched
/// lazily and so never enter the free list.
fn zeroed(dims: ArrayDims) -> (Vec<u64>, bool) {
    match reused_plane(dims) {
        Some(plane) => (plane, true),
        None => (vec![0; dims.cells()], false),
    }
}

/// A copy of `cells`, allocated zeroed instead of copied when its running
/// `sum` is 0.
fn clone_plane(cells: &[u64], sum: u64) -> Vec<u64> {
    if sum == 0 {
        vec![0; cells.len()]
    } else {
        cells.to_vec()
    }
}

/// Adds `rows[r]` to every cell of row `r` (see [`WearMap::add_full_rows`])
/// and returns the plane's maximum.
fn add_rows_in_place(dims: ArrayDims, plane: &mut [u64], sum: &mut u64, rows: &[u64]) -> u64 {
    let lanes = dims.lanes();
    assert_eq!(rows.len(), dims.rows(), "row count length mismatch");
    let zero = *sum == 0;
    let mut max = 0;
    for (cells, &count) in plane.chunks_exact_mut(lanes).zip(rows) {
        if zero {
            if count > 0 {
                cells.fill(count);
                max = max.max(count);
            }
            continue;
        }
        max = max.max(sum_and_max(cells).1 + count);
        if count > 0 {
            for cell in cells {
                *cell += count;
            }
        }
    }
    *sum += rows.iter().sum::<u64>() * lanes as u64;
    max
}

/// Sum and maximum of `cells` in one pass. Four independent running sums
/// and maxima keep the compares from forming one serial chain (baseline
/// x86-64 has no vector compare for `u64`), which halves the pass.
fn sum_and_max(cells: &[u64]) -> (u64, u64) {
    let (mut sums, mut maxima) = ([0u64; 4], [0u64; 4]);
    let mut chunks = cells.chunks_exact(4);
    for chunk in &mut chunks {
        for ((sum, max), &cell) in sums.iter_mut().zip(&mut maxima).zip(chunk) {
            *sum += cell;
            *max = (*max).max(cell);
        }
    }
    let (mut sum, mut max) = (sums.iter().sum(), maxima.into_iter().max().unwrap_or(0));
    for &cell in chunks.remainder() {
        sum += cell;
        max = max.max(cell);
    }
    (sum, max)
}

fn add_row_list(
    dims: ArrayDims,
    plane: &mut [u64],
    sum: &mut u64,
    row: usize,
    lanes: &[usize],
    count: u64,
) {
    let cells = &mut plane[row * dims.lanes()..(row + 1) * dims.lanes()];
    for &lane in lanes {
        cells[lane] += count;
    }
    *sum += count * lanes.len() as u64;
}

fn add_full_row(dims: ArrayDims, plane: &mut [u64], sum: &mut u64, row: usize, count: u64) {
    for cell in &mut plane[row * dims.lanes()..(row + 1) * dims.lanes()] {
        *cell += count;
    }
    *sum += count * dims.lanes() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_queries() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        w.add_writes(2, &LaneSet::full(4), 3);
        w.add_write_at(2, 1, 2);
        assert_eq!(w.writes_at(2, 1), 5);
        assert_eq!(w.max_writes(), 5);
        assert_eq!(w.total_writes(), 14);
        assert_eq!(w.argmax_writes(), (2, 1));
    }

    #[test]
    fn nonzero_cells_counts_touched_footprint() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        assert_eq!(w.nonzero_cells(), 0);
        w.add_writes(0, &LaneSet::full(4), 2);
        w.add_write_at(3, 1, 1);
        w.add_write_at(3, 1, 5); // same cell again: still one cell
        assert_eq!(w.nonzero_cells(), 5);
        w.add_reads(2, &LaneSet::full(4), 9); // reads don't count
        assert_eq!(w.nonzero_cells(), 5);
    }

    #[test]
    fn reads_tracked_separately() {
        let mut w = WearMap::new(ArrayDims::new(2, 2));
        w.add_reads(0, &LaneSet::full(2), 7);
        w.add_read_at(1, 1, 1);
        assert_eq!(w.total_reads(), 15);
        assert_eq!(w.reads_at(1, 1), 1);
        assert_eq!(w.total_writes(), 0);
    }

    #[test]
    fn write_quantile_is_nearest_rank() {
        let mut w = WearMap::new(ArrayDims::new(2, 2));
        // Cell counts: [0, 1, 2, 3].
        w.add_write_at(0, 1, 1);
        w.add_write_at(1, 0, 2);
        w.add_write_at(1, 1, 3);
        assert_eq!(w.write_quantile(0.0), 0);
        assert_eq!(w.write_quantile(0.25), 0);
        assert_eq!(w.write_quantile(0.5), 1);
        assert_eq!(w.write_quantile(0.75), 2);
        assert_eq!(w.write_quantile(0.99), 3);
        assert_eq!(w.write_quantile(1.0), 3);
        assert_eq!(w.write_quantile(1.0), w.max_writes());
        // Out-of-range quantiles clamp rather than panic.
        assert_eq!(w.write_quantile(-1.0), 0);
        assert_eq!(w.write_quantile(2.0), 3);
    }

    #[test]
    fn marginals() {
        let mut w = WearMap::new(ArrayDims::new(3, 2));
        w.add_writes(0, &LaneSet::full(2), 1);
        w.add_writes(1, &LaneSet::from_indices(2, &[1]), 4);
        assert_eq!(w.row_totals(), vec![2, 4, 0]);
        assert_eq!(w.lane_totals(), vec![1, 5]);
        assert_eq!(w.row_writes(1), &[0, 4]);
    }

    #[test]
    fn imbalance_of_uniform_map_is_one() {
        let mut w = WearMap::new(ArrayDims::new(8, 8));
        for r in 0..8 {
            w.add_writes(r, &LaneSet::full(8), 10);
        }
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        assert!(w.gini().abs() < 1e-9);
    }

    #[test]
    fn gini_detects_concentration() {
        let mut even = WearMap::new(ArrayDims::new(4, 4));
        for r in 0..4 {
            even.add_writes(r, &LaneSet::full(4), 1);
        }
        let mut skewed = WearMap::new(ArrayDims::new(4, 4));
        skewed.add_write_at(0, 0, 16);
        assert!(skewed.gini() > even.gini());
        assert!(skewed.gini() > 0.9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = WearMap::new(ArrayDims::new(2, 2));
        let mut b = WearMap::new(ArrayDims::new(2, 2));
        a.add_write_at(0, 0, 1);
        b.add_write_at(0, 0, 2);
        b.add_read_at(1, 1, 3);
        a.merge(&b);
        assert_eq!(a.writes_at(0, 0), 3);
        assert_eq!(a.reads_at(1, 1), 3);
    }

    #[test]
    fn merged_folds_many_maps() {
        let dims = ArrayDims::new(3, 2);
        let maps: Vec<WearMap> = (0..4u64)
            .map(|i| {
                let mut m = WearMap::new(dims);
                m.add_write_at(i as usize % 3, 0, i + 1);
                m.add_read_at(0, 1, i);
                m
            })
            .collect();
        let total = WearMap::merged(dims, maps);
        assert_eq!(total.total_writes(), 1 + 2 + 3 + 4);
        assert_eq!(total.reads_at(0, 1), 1 + 2 + 3);
        assert_eq!(total.writes_at(0, 0), 1 + 4);
        let empty = WearMap::merged(dims, std::iter::empty());
        assert_eq!(empty.total_writes(), 0);
    }

    #[test]
    fn heatmap_normalizes_to_unit_max() {
        let mut w = WearMap::new(ArrayDims::new(8, 8));
        w.add_writes(0, &LaneSet::full(8), 10);
        w.add_writes(4, &LaneSet::full(8), 5);
        let h = w.heatmap(2, 2);
        assert_eq!(h.len(), 2);
        assert!((h[0][0] - 1.0).abs() < 1e-12);
        assert!((h[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cached_totals_track_every_mutator() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        w.add_writes(0, &LaneSet::full(4), 3);
        w.add_reads(1, &LaneSet::range(4, 0, 2), 2);
        w.add_write_at(3, 3, 7);
        w.add_read_at(2, 0, 5);
        let mut other = WearMap::new(ArrayDims::new(4, 4));
        other.add_writes(2, &LaneSet::full(4), 1);
        other.add_read_at(0, 0, 4);
        w.merge(&other);
        assert_eq!(w.total_writes(), w.recount_writes());
        assert_eq!(w.total_reads(), w.recount_reads());
        assert_eq!(w.total_writes(), 12 + 7 + 4);
        assert_eq!(w.total_reads(), 4 + 5 + 4);
    }

    #[test]
    fn row_adders_match_lane_set_adds() {
        let dims = ArrayDims::new(3, 4);
        let mut rows = WearMap::new(dims);
        rows.add_row_writes(0, &[1, 3], 2);
        rows.add_full_row_writes(2, 5);
        rows.add_row_reads(1, &[0], 7);
        rows.add_full_row_reads(0, 1);
        let mut sets = WearMap::new(dims);
        sets.add_writes(0, &LaneSet::from_indices(4, &[1, 3]), 2);
        sets.add_writes(2, &LaneSet::full(4), 5);
        sets.add_reads(1, &LaneSet::from_indices(4, &[0]), 7);
        sets.add_reads(0, &LaneSet::full(4), 1);
        for r in 0..3 {
            assert_eq!(rows.row_writes(r), sets.row_writes(r));
            for l in 0..4 {
                assert_eq!(rows.reads_at(r, l), sets.reads_at(r, l));
            }
        }
        assert_eq!(rows.total_writes(), rows.recount_writes());
        assert_eq!(rows.total_reads(), rows.recount_reads());
        assert_eq!(rows.total_writes(), sets.total_writes());
        assert_eq!(rows.total_reads(), sets.total_reads());
    }

    #[test]
    fn read_plane_is_allocated_on_first_read() {
        let mut w = WearMap::new(ArrayDims::new(2, 3));
        assert_eq!(w.reads_at(1, 2), 0);
        let mut other = WearMap::new(ArrayDims::new(2, 3));
        w.merge(&other);
        assert_eq!(w.recount_reads(), 0);
        other.add_read_at(1, 2, 4);
        w.merge(&other);
        assert_eq!(w.reads_at(1, 2), 4);
        assert_eq!(w.total_reads(), w.recount_reads());
    }

    #[test]
    fn clone_copies_both_planes() {
        let mut w = WearMap::new(ArrayDims::new(2, 3));
        w.add_write_at(1, 2, 4);
        let writes_only = w.clone();
        assert_eq!(writes_only.writes_at(1, 2), 4);
        assert_eq!(writes_only.total_reads(), 0);
        assert_eq!(writes_only.recount_reads(), 0);
        w.add_read_at(0, 1, 3);
        let both = w.clone();
        assert_eq!(both.reads_at(0, 1), 3);
        assert_eq!(both.total_reads(), both.recount_reads());
        assert_eq!(both.total_writes(), both.recount_writes());
    }

    #[test]
    fn carried_max_is_known_after_whole_plane_passes_only() {
        let dims = ArrayDims::new(2, 3);
        let mut w = WearMap::new(dims);
        assert_eq!(w.max_writes, Some(0));
        w.add_write_at(1, 2, 4);
        assert_eq!(w.max_writes, None, "a scattered add clears the carried max");
        assert_eq!(w.max_writes(), 4, "an unknown max is scanned");
        w.add_full_row_writes(0, 9);
        assert_eq!(w.max_writes, None);
        let mut other = WearMap::new(dims);
        other.add_row_writes(1, &[0], 20);
        assert_eq!(other.max_writes, None);
        w.merge(&other);
        assert_eq!(w.max_writes, Some(20));
        w.add_writes(0, &LaneSet::full(3), 1);
        assert_eq!(w.max_writes, None);
        assert_eq!(w.max_writes(), w.recount_max_writes());
        let planes = WearMap::from_planes(dims, vec![3, 1, 4, 1, 5, 9], vec![2; 6]);
        assert_eq!(planes.max_writes, Some(9));
        assert_eq!((planes.total_writes(), planes.total_reads()), (23, 12));
    }

    #[test]
    fn clone_keeps_the_carried_max_state() {
        let dims = ArrayDims::new(2, 2);
        let known = WearMap::from_planes(dims, vec![0, 7, 2, 0], Vec::new());
        assert_eq!(known.clone().max_writes, Some(7));
        let mut unknown = known.clone();
        unknown.add_write_at(0, 0, 1);
        assert_eq!(unknown.clone().max_writes, None);
        // Zero-sum clones allocate zeroed planes and keep the state too: a
        // fresh map's known 0, and an unknown max left by zero-count adds.
        let fresh = WearMap::new(dims);
        assert_eq!(fresh.clone().max_writes, Some(0));
        let mut zero_adds = WearMap::new(dims);
        zero_adds.add_write_at(1, 1, 0);
        let copy = zero_adds.clone();
        assert_eq!(copy.max_writes, None);
        assert_eq!((copy.max_writes(), copy.recount_max_writes()), (0, 0));
    }

    #[test]
    fn add_full_rows_matches_full_row_adds() {
        let dims = ArrayDims::new(3, 4);
        let rows_w = [2u64, 0, 5];
        let rows_r = [0u64, 1, 0];
        let check = |base: &WearMap| {
            let mut fused = base.clone();
            fused.add_full_rows(&rows_w, Some(&rows_r));
            let mut slow = base.clone();
            for (row, (&w, &r)) in rows_w.iter().zip(&rows_r).enumerate() {
                slow.add_full_row_writes(row, w);
                slow.add_full_row_reads(row, r);
            }
            for row in 0..3 {
                assert_eq!(fused.row_writes(row), slow.row_writes(row));
                for lane in 0..4 {
                    assert_eq!(fused.reads_at(row, lane), slow.reads_at(row, lane));
                }
            }
            assert_eq!(fused.max_writes, Some(slow.recount_max_writes()));
            assert_eq!(fused.total_writes(), fused.recount_writes());
            assert_eq!(fused.total_reads(), fused.recount_reads());
        };
        // Zero-sum planes: only the bucket rows are written.
        check(&WearMap::new(dims));
        let mut w = WearMap::new(dims);
        w.add_write_at(1, 3, 11);
        w.add_read_at(0, 0, 2);
        check(&w);
        // Untracked reads stay unallocated.
        let mut untracked = WearMap::new(dims);
        untracked.add_full_rows(&rows_w, None);
        assert!(untracked.reads.is_empty());
        assert_eq!(untracked.max_writes(), 5);
    }

    #[test]
    fn prefaulted_map_matches_a_zero_plane() {
        let dims = ArrayDims::new(3, 5);
        let map = WearMap::prefaulted(dims);
        let planes = WearMap::from_planes(dims, vec![0; dims.cells()], Vec::new());
        assert_eq!(map.max_writes, planes.max_writes);
        assert_eq!(
            (map.total_writes(), map.total_reads()),
            (planes.total_writes(), planes.total_reads())
        );
        assert_eq!((map.recount_writes(), map.recount_max_writes()), (0, 0));
        assert_eq!((map.writes.len(), map.reads.len()), (dims.cells(), 0));
    }

    #[test]
    fn row_groups_match_row_list_adds() {
        let dims = ArrayDims::new(2, 6);
        let mut groups = WearMap::new(dims);
        // Groups {4, 1}, {}, {0, 5}, {2} with counts 3, 9, 0, 7.
        groups.add_row_groups(1, &[1, 4, 0, 5, 2], &[2, 2, 4, 5], &[3, 9, 0, 7], false);
        groups.add_row_groups(0, &[3], &[1], &[2], true);
        let mut lists = WearMap::new(dims);
        lists.add_row_writes(1, &[1, 4], 3);
        lists.add_row_writes(1, &[2], 7);
        lists.add_row_reads(0, &[3], 2);
        for row in 0..2 {
            assert_eq!(groups.row_writes(row), lists.row_writes(row));
            for lane in 0..6 {
                assert_eq!(groups.reads_at(row, lane), lists.reads_at(row, lane));
            }
        }
        assert_eq!(groups.total_writes(), groups.recount_writes());
        assert_eq!(groups.total_reads(), groups.recount_reads());
        assert_eq!((groups.total_writes(), groups.total_reads()), (13, 2));
        assert_eq!(groups.max_writes, None, "a scattered add clears the carried max");
    }

    // The free list is process-wide and tests run in parallel, so each
    // recycling test uses a cell count no other test in this crate uses.

    /// Retired planes of `cells` cells on the free list.
    fn listed(cells: usize) -> usize {
        let list = RETIRED.lock().expect("no test panics holding the free list");
        list.planes.iter().filter(|plane| plane.len() == cells).count()
    }

    #[test]
    fn a_recycled_plane_reads_all_zero() {
        let dims = ArrayDims::new(512, 257);
        assert!(dims.cells() >= RECYCLE_FLOOR_CELLS);
        let before = plane_reuse();
        let mut used = WearMap::prefaulted(dims);
        used.add_full_row_writes(3, 9);
        used.add_write_at(511, 256, 4);
        used.add_read_at(7, 7, 2);
        let plane = used.writes.as_ptr();
        drop(used);
        assert_eq!(listed(dims.cells()), 1, "the prefaulted write plane is retired");

        let mut map = WearMap::new(dims);
        assert_eq!(map.writes.as_ptr(), plane, "new takes the retired plane");
        assert!(plane_reuse().reused > before.reused);
        assert_eq!(map.max_writes, Some(0));
        assert_eq!((map.total_writes(), map.total_reads()), (0, 0));
        assert_eq!((map.recount_writes(), map.recount_max_writes()), (0, 0));
        assert_eq!(map.nonzero_cells(), 0);

        // A recycled read plane is zeroed too.
        let mut donor = WearMap::prefaulted(dims);
        donor.add_full_row_writes(0, 5);
        let read_plane = donor.writes.as_ptr();
        drop(donor);
        map.add_read_at(1, 2, 3);
        assert_eq!(map.reads.as_ptr(), read_plane, "the first read takes the retired plane");
        assert_eq!((map.total_reads(), map.recount_reads()), (3, 3));
        assert_eq!(map.reads_at(1, 2), 3);
        assert_eq!(map.reads_at(0, 0), 0);
        drop(map);
        assert_eq!(listed(dims.cells()), 2, "both recycled planes return");
    }

    #[test]
    fn a_zeroed_allocation_never_enters_the_list() {
        let dims = ArrayDims::new(512, 258);
        let mut lazy = WearMap::new(dims);
        lazy.add_read_at(0, 0, 1);
        drop(lazy);
        assert_eq!(listed(dims.cells()), 0, "vec![0; n] planes are freed");
        let mut written = WearMap::prefaulted(dims);
        written.add_write_at(2, 2, 2);
        drop(written.clone());
        assert_eq!(listed(dims.cells()), 0, "a clone is freed");
        drop(written);
        assert_eq!(listed(dims.cells()), 1);
        drop(WearMap::from_planes(dims, vec![0; dims.cells()], Vec::new()));
        assert_eq!(listed(dims.cells()), 1, "a caller's plane is freed");
    }

    #[test]
    fn planes_under_the_floor_never_enter_the_list() {
        let dims = ArrayDims::new(256, 511);
        assert!(dims.cells() < RECYCLE_FLOOR_CELLS);
        drop(WearMap::prefaulted(dims));
        assert_eq!(listed(dims.cells()), 0);
    }

    #[test]
    fn the_list_never_exceeds_its_cap() {
        let mut list = PlaneList::new();
        let plane_bytes = RECYCLE_FLOOR_CELLS * 8;
        let fit = RECYCLE_CAP_BYTES / plane_bytes;
        for i in 0..fit + 2 {
            let rejected = list.retire(vec![0; RECYCLE_FLOOR_CELLS]);
            assert_eq!(rejected.is_some(), i >= fit, "plane {i}");
            assert!(list.bytes <= RECYCLE_CAP_BYTES);
        }
        assert_eq!((list.planes.len(), list.bytes), (fit, fit * plane_bytes));
        assert!(list.take(RECYCLE_FLOOR_CELLS).is_some());
        assert_eq!(list.bytes, (fit - 1) * plane_bytes);
        assert!(plane_reuse().retained_bytes <= RECYCLE_CAP_BYTES as u64);
    }

    #[test]
    fn a_plane_only_serves_its_own_cell_count() {
        let (a, b) = (ArrayDims::new(512, 259), ArrayDims::new(512, 260));
        let map = WearMap::prefaulted(a);
        let plane = map.writes.as_ptr();
        drop(map);
        let other = WearMap::prefaulted(b);
        assert_eq!(listed(a.cells()), 1, "a plane of another cell count stays listed");
        assert_ne!(other.writes.as_ptr(), plane);
        let again = WearMap::prefaulted(a);
        assert_eq!((listed(a.cells()), again.writes.as_ptr()), (0, plane));
    }

    #[test]
    fn empty_map_statistics_are_defined() {
        let w = WearMap::new(ArrayDims::new(4, 4));
        assert_eq!(w.max_writes(), 0);
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(w.gini(), 0.0);
        let h = w.heatmap(2, 2);
        assert_eq!(h[0][0], 0.0);
    }
}
