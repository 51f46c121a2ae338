//! Epoch-compiled wear kernels: the data half of the dynamic-`Hw` fast path.
//!
//! Hardware free-row renaming redirects every all-lane gate into the free
//! row, so each iteration writes a different set of physical rows and the
//! simulator historically re-walked the whole step trace once per iteration.
//! But the renaming state machine is *position-based*: which slots of its
//! internal arrangement a trace touches — and in what order — depends only
//! on the trace, never on the arrangement's current values. One symbolic
//! replay against a fresh remapper therefore yields a reusable **wear
//! kernel**:
//!
//! * per-(lane class, arrangement slot) write/read deltas of one iteration
//!   ([`WearKernel::slot_writes`]);
//! * the net slot permutation `E` one iteration applies to the arrangement
//!   ([`WearKernel::end_permutation`]);
//! * the number of redirects one iteration performs.
//!
//! Iteration `i` of an epoch then deposits the slot-`t` delta at physical
//! row `A₀[Eⁱ[t]]` (`A₀` = the arrangement at epoch start), so the whole
//! epoch folds into per-slot totals `U[s] = Σᵢ panel[E⁻ⁱ[s]]` — computed in
//! O(slots) over `E`'s cycle decomposition ([`WearKernel::fold_epoch_into`])
//! instead of O(steps × iterations) of replay. The totals stay in slot/row
//! space: the simulator books them per (lane class, physical row) and
//! renders lanes into the [`WearMap`](crate::WearMap) only when the lane
//! table changes or the map is read (see `nvpim_core::kernel`).
//!
//! A kernel is compiled once per trace, against the identity software row
//! table; an epoch under any other table `T` is the same kernel with every
//! slot relabeled by `T` (see `nvpim_core::kernel`). This module holds the
//! representation and the permutation arithmetic; the symbolic compiler
//! lives with the simulator (it needs the remapper type), keeping this
//! crate free of balancing dependencies.

/// A permutation with its cycle decomposition precomputed — the reusable
/// algebra every epoch-folding fast path is built on.
///
/// Three operations, all O(len) for *any* span:
///
/// * [`PermFolder::fold_into`] — collapse `span` successive applications of
///   the permutation onto a delta panel (`out[s] = Σᵢ panel[P⁻ⁱ[s]]`);
/// * [`PermFolder::advance`] — compose a permutation-valued state by
///   `P^span` in place (`arr ← arr ∘ P^span`);
/// * [`PermFolder::power`] — materialize `P^span` itself.
///
/// [`WearKernel`] delegates its per-epoch folds to one of these over the
/// iteration's end permutation; the analytic engine builds a second folder
/// over a whole super-cycle's net permutation to collapse arbitrarily many
/// epochs per query.
///
/// # Examples
///
/// ```
/// use nvpim_array::PermFolder;
///
/// let rot = PermFolder::new(vec![1, 2, 3, 0]); // s → s+1 (mod 4)
/// let mut out = vec![0u64; 4];
/// rot.fold_into(3, &[10, 0, 0, 0], &mut out);
/// assert_eq!(out, vec![10, 10, 10, 0]);
/// assert_eq!(rot.power(6), vec![2, 3, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct PermFolder {
    perm: Vec<usize>,
    /// Cycle decomposition of `perm` (every element appears in exactly one
    /// cycle; fixed points are 1-cycles), precomputed so folds and
    /// advances are allocation-free.
    cycles: Vec<Vec<usize>>,
    identity: bool,
}

impl PermFolder {
    /// Builds a folder over `perm`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    #[must_use]
    pub fn new(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &s in &perm {
            assert!(s < n && !seen[s], "not a permutation of 0..{n}");
            seen[s] = true;
        }
        let cycles = cycle_decomposition(&perm);
        let identity = perm.iter().enumerate().all(|(i, &s)| i == s);
        PermFolder { perm, cycles, identity }
    }

    /// The universe size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Whether the permutation is the identity (folds degenerate to
    /// `span ×` scaling and advances to no-ops).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The underlying permutation.
    #[must_use]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Folds `span` successive applications of the permutation onto `panel`:
    /// `out[s] = Σ_{i=0}^{span−1} panel[P⁻ⁱ[s]]` — application `i` deposits
    /// `panel[t]` at `P^i[t]`. `out` is fully overwritten. O(len),
    /// independent of `span`: per cycle of length `L`, `span = qL + r`
    /// contributes `q · (cycle sum)` everywhere plus a length-`r` window
    /// slid around the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `panel` or `out` differ in length from the universe.
    pub fn fold_into(&self, span: u64, panel: &[u64], out: &mut [u64]) {
        assert_eq!(panel.len(), self.perm.len(), "panel length mismatch");
        assert_eq!(out.len(), self.perm.len(), "output length mismatch");
        for cycle in &self.cycles {
            let l = cycle.len();
            if l == 1 {
                // A fixed point keeps its own delta every application.
                out[cycle[0]] = span * panel[cycle[0]];
                continue;
            }
            let q = span / l as u64;
            let r = (span % l as u64) as usize;
            let cycle_sum: u64 = cycle.iter().map(|&s| panel[s]).sum();
            // Window for position j: Σ_{i=0}^{r−1} panel[cycle[(j−i) mod L]].
            let mut window = 0u64;
            for i in 0..r {
                // j = 0: slots cycle[0], cycle[L−1], …, cycle[L−r+1].
                window += panel[cycle[(l - i) % l]];
            }
            // Slide to j+1: gains cycle[j+1], loses cycle[j+1−r]; both
            // indices wrap by comparison, keeping division out of the loop.
            let (mut next, mut drop) = (1, (1 + l - r) % l);
            for &slot in cycle {
                out[slot] = q * cycle_sum + window;
                window = window + panel[cycle[next]] - panel[cycle[drop]];
                next = if next + 1 == l { 0 } else { next + 1 };
                drop = if drop + 1 == l { 0 } else { drop + 1 };
            }
        }
    }

    /// Row-blocked variant of [`PermFolder::fold_into`] for panels whose
    /// elements are contiguous rows of `width` values (row-major
    /// `slot * width + lane` layout): `out[s·W..s·W+W] = Σᵢ
    /// panel[P⁻ⁱ[s]·W..]`, element-wise. Identical cycle algebra, but the
    /// inner loops are exact-size slice zips over whole lane rows —
    /// branch-free, autovectorization-friendly, and cache-linear instead
    /// of one strided column gather per lane. `out` is fully overwritten;
    /// `scratch` is reused storage for the running cycle-sum and window
    /// rows (resized to `2 × width`).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `panel`/`out` differ in length from
    /// `len() × width`.
    pub fn fold_rows_into(
        &self,
        span: u64,
        panel: &[u64],
        width: usize,
        out: &mut [u64],
        scratch: &mut Vec<u64>,
    ) {
        assert!(width > 0, "row width must be positive");
        assert_eq!(panel.len(), self.perm.len() * width, "panel length mismatch");
        assert_eq!(out.len(), self.perm.len() * width, "output length mismatch");
        scratch.clear();
        scratch.resize(2 * width, 0);
        let (cycle_sum, window) = scratch.split_at_mut(width);
        for cycle in &self.cycles {
            let len = cycle.len() as u64;
            let q = span / len;
            let r = (span % len) as usize;
            let l = cycle.len();
            cycle_sum.fill(0);
            for &slot in cycle {
                let row = &panel[slot * width..(slot + 1) * width];
                for (acc, &v) in cycle_sum.iter_mut().zip(row.iter()) {
                    *acc += v;
                }
            }
            window.fill(0);
            for i in 0..r {
                let slot = cycle[(l - i) % l];
                let row = &panel[slot * width..(slot + 1) * width];
                for (acc, &v) in window.iter_mut().zip(row.iter()) {
                    *acc += v;
                }
            }
            for (j, &slot) in cycle.iter().enumerate() {
                let dst = &mut out[slot * width..(slot + 1) * width];
                for i in 0..width {
                    dst[i] = q * cycle_sum[i] + window[i];
                }
                let next = &panel[cycle[(j + 1) % l] * width..];
                let drop = &panel[cycle[(j + 1 + l - r) % l] * width..];
                for i in 0..width {
                    window[i] = window[i] + next[i] - drop[i];
                }
            }
        }
    }

    /// Advances a permutation-valued state by `span` applications in place:
    /// `arr ← arr ∘ P^span` (`arr[s] ← arr[P^span[s]]`), O(len) for any
    /// `span`. `scratch` is reused storage for one cycle's values.
    ///
    /// # Panics
    ///
    /// Panics if `arr`'s length differs from the universe.
    pub fn advance(&self, span: u64, arr: &mut [usize], scratch: &mut Vec<usize>) {
        assert_eq!(arr.len(), self.perm.len(), "arrangement length mismatch");
        if self.identity {
            return;
        }
        for cycle in &self.cycles {
            let l = cycle.len();
            let shift = (span % l as u64) as usize;
            if shift == 0 {
                continue;
            }
            scratch.clear();
            scratch.extend(cycle.iter().map(|&s| arr[s]));
            // P^span maps cycle[j] → cycle[(j + span) mod L], so the new
            // value at cycle[j] is the old value at cycle[(j + span) mod L].
            for (j, &slot) in cycle.iter().enumerate() {
                arr[slot] = scratch[(j + shift) % l];
            }
        }
    }

    /// Materializes `P^span` as a fresh permutation.
    #[must_use]
    pub fn power(&self, span: u64) -> Vec<usize> {
        let mut arr: Vec<usize> = (0..self.perm.len()).collect();
        self.advance(span, &mut arr, &mut Vec::new());
        arr
    }
}

/// One iteration of a trace, compiled against a symbolic
/// (identity-arrangement) hardware remapper under the identity software
/// row table.
///
/// `slots` is the physical row count: slot `s < slots − 1` is the remapper's
/// logical address `s`, slot `slots − 1` is its free register. The kernel
/// stores, per lane class, the write (and optionally read) deltas one
/// iteration deposits at each slot, plus the net arrangement permutation
/// `E` the iteration's redirects apply. Everything downstream — epoch
/// folding, state advancement — is pure permutation arithmetic on those
/// arrays; see the module docs for the algebra.
#[derive(Debug, Clone)]
pub struct WearKernel {
    slots: usize,
    slot_writes: Vec<Vec<u64>>,
    slot_reads: Option<Vec<Vec<u64>>>,
    /// The end permutation `E` with its cycle decomposition, so per-epoch
    /// folds and advances are allocation-free.
    folder: PermFolder,
    redirects_per_iter: u64,
}

impl WearKernel {
    /// Assembles a kernel from a symbolic replay's outputs.
    ///
    /// `end` is the symbolic arrangement after one iteration,
    /// `redirects_per_iter` the redirect count of one iteration.
    ///
    /// # Panics
    ///
    /// Panics if `end` is not a permutation of `0..slots` or any per-class
    /// panel's length differs from `end`'s.
    #[must_use]
    pub fn new(
        slot_writes: Vec<Vec<u64>>,
        slot_reads: Option<Vec<Vec<u64>>>,
        end: Vec<usize>,
        redirects_per_iter: u64,
    ) -> Self {
        let slots = end.len();
        let mut seen = vec![false; slots];
        for &s in &end {
            assert!(s < slots && !seen[s], "end arrangement is not a permutation");
            seen[s] = true;
        }
        for panel in slot_writes.iter().chain(slot_reads.iter().flatten()) {
            assert_eq!(panel.len(), slots, "panel length must equal the slot count");
        }
        let folder = PermFolder::new(end);
        WearKernel { slots, slot_writes, slot_reads, folder, redirects_per_iter }
    }

    /// Physical row count (arrangement length).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of lane classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.slot_writes.len()
    }

    /// Per-slot write deltas of one iteration for `class`.
    #[must_use]
    pub fn slot_writes(&self, class: usize) -> &[u64] {
        &self.slot_writes[class]
    }

    /// Per-slot read deltas of one iteration for `class`, if compiled with
    /// read tracking.
    #[must_use]
    pub fn slot_reads(&self, class: usize) -> Option<&[u64]> {
        self.slot_reads.as_ref().map(|r| r[class].as_slice())
    }

    /// The net slot permutation one iteration applies to the arrangement.
    #[must_use]
    pub fn end_permutation(&self) -> &[usize] {
        self.folder.perm()
    }

    /// The end permutation's folder, for callers that compose further
    /// permutation algebra on top of the kernel (e.g. the analytic engine's
    /// super-cycle accumulation).
    #[must_use]
    pub fn folder(&self) -> &PermFolder {
        &self.folder
    }

    /// Redirects one iteration performs (constant across iterations: the
    /// redirect sites are fixed by the trace, not by the mapping state).
    #[must_use]
    pub fn redirects_per_iteration(&self) -> u64 {
        self.redirects_per_iter
    }

    /// Approximate resident size in bytes (delta panels plus the end
    /// permutation and its cycles) —
    /// what a byte-budgeted artifact cache bills for holding this kernel.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let panel_entries = self.slot_writes.iter().map(Vec::len).sum::<usize>()
            + self.slot_reads.as_ref().map_or(0, |r| r.iter().map(Vec::len).sum::<usize>());
        panel_entries * std::mem::size_of::<u64>() + 2 * self.slots * std::mem::size_of::<usize>()
    }

    /// Folds one epoch of `span` iterations of a per-slot delta `panel`
    /// into `out`: `out[s] = Σ_{i=0}^{span−1} panel[E⁻ⁱ[s]]`, the total
    /// delta slot `s` receives across the epoch. `out` is fully
    /// overwritten. O(slots), independent of `span`: per cycle of length
    /// `L`, `span = qL + r` contributes `q · (cycle sum)` everywhere plus a
    /// length-`r` window slid around the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `panel` or `out` differ in length from the slot count.
    pub fn fold_epoch_into(&self, span: u64, panel: &[u64], out: &mut [u64]) {
        self.folder.fold_into(span, panel, out);
    }

    /// Advances an arrangement by `span` iterations in place:
    /// `arr ← arr ∘ E^span` (`arr[s] ← arr[E^span[s]]`), using the cycle
    /// decomposition so the cost is O(slots) for any `span`. `scratch` is
    /// reused storage for one cycle's values.
    ///
    /// # Panics
    ///
    /// Panics if `arr`'s length differs from the slot count.
    pub fn advance_arrangement(&self, span: u64, arr: &mut [usize], scratch: &mut Vec<usize>) {
        self.folder.advance(span, arr, scratch);
    }
}

/// Splits a permutation into its cycles (each slot in exactly one).
fn cycle_decomposition(perm: &[usize]) -> Vec<Vec<usize>> {
    let mut seen = vec![false; perm.len()];
    let mut cycles = Vec::new();
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut cycle = Vec::new();
        let mut s = start;
        while !seen[s] {
            seen[s] = true;
            cycle.push(s);
            s = perm[s];
        }
        cycles.push(cycle);
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference fold: literally apply E iteration by iteration.
    fn brute_fold(end: &[usize], span: u64, panel: &[u64]) -> Vec<u64> {
        let n = end.len();
        let mut out = vec![0u64; n];
        // Iteration i deposits panel[t] at slot E^i[t].
        let mut power: Vec<usize> = (0..n).collect(); // E^i
        for _ in 0..span {
            for (t, &slot) in power.iter().enumerate() {
                out[slot] += panel[t];
            }
            let next: Vec<usize> = (0..n).map(|s| end[power[s]]).collect();
            power = next;
        }
        out
    }

    fn brute_advance(end: &[usize], span: u64, arr: &[usize]) -> Vec<usize> {
        let mut a = arr.to_vec();
        for _ in 0..span {
            let next: Vec<usize> = (0..a.len()).map(|s| a[end[s]]).collect();
            a = next;
        }
        a
    }

    fn kernel_with_end(end: Vec<usize>) -> WearKernel {
        let slots = end.len();
        WearKernel::new(vec![vec![0; slots]], None, end, 0)
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn random_perm(n: usize, seed: &mut u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (xorshift(seed) % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn fold_matches_brute_force_on_random_permutations() {
        let mut seed = 0xBADC0DEu64;
        for n in [1usize, 2, 5, 9, 16] {
            for span in [0u64, 1, 2, 3, 7, 16, 100, 101] {
                let end = random_perm(n, &mut seed);
                let panel: Vec<u64> = (0..n).map(|_| xorshift(&mut seed) % 50).collect();
                let kernel = kernel_with_end(end.clone());
                let mut out = vec![u64::MAX; n]; // must be fully overwritten
                kernel.fold_epoch_into(span, &panel, &mut out);
                assert_eq!(out, brute_fold(&end, span, &panel), "n={n} span={span}");
            }
        }
    }

    #[test]
    fn fold_rows_matches_columnwise_fold() {
        let mut seed = 0x5EEDu64;
        for n in [1usize, 3, 8, 13] {
            for width in [1usize, 2, 7] {
                for span in [0u64, 1, 5, 42, 100] {
                    let end = random_perm(n, &mut seed);
                    let panel: Vec<u64> =
                        (0..n * width).map(|_| xorshift(&mut seed) % 50).collect();
                    let folder = PermFolder::new(end.clone());
                    let mut out = vec![u64::MAX; n * width]; // must be fully overwritten
                    let mut scratch = Vec::new();
                    folder.fold_rows_into(span, &panel, width, &mut out, &mut scratch);
                    // Reference: fold each lane column independently with the
                    // scalar path.
                    for c in 0..width {
                        let col: Vec<u64> = (0..n).map(|s| panel[s * width + c]).collect();
                        let mut col_out = vec![0u64; n];
                        folder.fold_into(span, &col, &mut col_out);
                        for s in 0..n {
                            assert_eq!(
                                out[s * width + c],
                                col_out[s],
                                "n={n} width={width} span={span} slot={s} lane={c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn advance_matches_brute_force() {
        let mut seed = 7u64;
        for n in [2usize, 6, 11] {
            for span in [0u64, 1, 4, 29, 1000] {
                let end = random_perm(n, &mut seed);
                let start = random_perm(n, &mut seed);
                let kernel = kernel_with_end(end.clone());
                let mut arr = start.clone();
                let mut scratch = Vec::new();
                kernel.advance_arrangement(span, &mut arr, &mut scratch);
                assert_eq!(arr, brute_advance(&end, span, &start), "n={n} span={span}");
            }
        }
    }

    #[test]
    fn identity_end_is_static_and_folds_to_scaling() {
        let kernel = kernel_with_end((0..8).collect());
        assert!(kernel.folder().is_identity());
        let panel: Vec<u64> = (0..8).collect();
        let mut out = vec![0u64; 8];
        kernel.fold_epoch_into(13, &panel, &mut out);
        let expect: Vec<u64> = panel.iter().map(|&d| 13 * d).collect();
        assert_eq!(out, expect);
        let mut arr: Vec<usize> = (0..8).rev().collect();
        let before = arr.clone();
        kernel.advance_arrangement(1000, &mut arr, &mut Vec::new());
        assert_eq!(arr, before);
    }

    #[test]
    fn single_cycle_shift() {
        // E = rotation by one: slot s → s+1 (mod 4).
        let end = vec![1, 2, 3, 0];
        let kernel = kernel_with_end(end.clone());
        assert!(!kernel.folder().is_identity());
        let panel = vec![10, 0, 0, 0];
        let mut out = vec![0u64; 4];
        // Three iterations: deposits at E^0[0]=0, E^1[0]=1, E^2[0]=2.
        kernel.fold_epoch_into(3, &panel, &mut out);
        assert_eq!(out, vec![10, 10, 10, 0]);
    }

    #[test]
    fn accessors_report_the_compiled_shape() {
        let kernel = WearKernel::new(vec![vec![0; 4]], None, (0..4).collect(), 5);
        assert_eq!(kernel.redirects_per_iteration(), 5);
        assert_eq!(kernel.slots(), 4);
        assert_eq!(kernel.classes(), 1);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_end_rejected() {
        let _ = kernel_with_end(vec![0, 0, 1]);
    }

    #[test]
    fn folder_power_matches_repeated_application() {
        let mut seed = 0xF01DE5_u64;
        for n in [1usize, 4, 9] {
            let perm = random_perm(n, &mut seed);
            let folder = PermFolder::new(perm.clone());
            for span in [0u64, 1, 3, 17, 1000] {
                // P^span by brute force: advance the identity span times.
                let mut brute: Vec<usize> = (0..n).collect();
                for _ in 0..span {
                    brute = (0..n).map(|s| brute[perm[s]]).collect();
                }
                assert_eq!(folder.power(span), brute, "n={n} span={span}");
            }
        }
    }

    #[test]
    fn folder_identity_detection() {
        assert!(PermFolder::new((0..5).collect()).is_identity());
        assert!(!PermFolder::new(vec![1, 0]).is_identity());
        assert_eq!(PermFolder::new(vec![2, 0, 1]).len(), 3);
        assert!(PermFolder::new(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn folder_rejects_non_permutation() {
        let _ = PermFolder::new(vec![1, 1, 0]);
    }
}
