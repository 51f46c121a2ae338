//! Property-based tests for lane sets, wear maps, and trace accounting.

use nvpim_array::trace::TraceCounts;
use nvpim_array::{ArchStyle, ArrayDims, LaneSet, Step, Trace, WearMap, WriteSource};
use nvpim_logic::GateKind;
use proptest::prelude::*;

fn arb_indices(universe: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..universe, 0..universe)
}

/// A step walk for one architecture style, written out independently of
/// the trace's own: the reference its memoized counts must equal.
fn walk_counts(trace: &Trace, arch: ArchStyle) -> TraceCounts {
    let size = |class: usize| trace.classes()[class].count() as u64;
    let mut c = TraceCounts::default();
    for step in trace.steps() {
        let (steps, writes, reads, gates, active) = match *step {
            Step::Write { class, .. } => (1, size(class), 0, 0, size(class)),
            Step::Read { class, .. } => (1, 0, size(class), 0, size(class)),
            Step::Gate { kind, class, .. } => {
                let n = size(class);
                let steps = arch.steps_per_gate();
                (steps, arch.writes_per_gate() * n, u64::from(kind.arity()) * n, 1, steps * n)
            }
            Step::Transfer { src_class, dst_class, .. } => {
                let (ns, nd) = (size(src_class), size(dst_class));
                (2, nd, ns, 0, ns + nd)
            }
        };
        c.sequential_steps += steps;
        c.cell_writes += writes;
        c.cell_reads += reads;
        c.gate_ops += gates;
        c.weighted_active_lanes += active as f64;
    }
    c
}

proptest! {
    #[test]
    fn laneset_membership_matches_construction(universe in 1usize..300, idx in arb_indices(299)) {
        let idx: Vec<usize> = idx.into_iter().filter(|&i| i < universe).collect();
        let set = LaneSet::from_indices(universe, &idx);
        let expect: std::collections::BTreeSet<usize> = idx.iter().copied().collect();
        prop_assert_eq!(set.count(), expect.len());
        for lane in 0..universe {
            prop_assert_eq!(set.contains(lane), expect.contains(&lane));
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn laneset_union_intersection_laws(universe in 1usize..200, a in arb_indices(199), b in arb_indices(199)) {
        let a: Vec<usize> = a.into_iter().filter(|&i| i < universe).collect();
        let b: Vec<usize> = b.into_iter().filter(|&i| i < universe).collect();
        let sa = LaneSet::from_indices(universe, &a);
        let sb = LaneSet::from_indices(universe, &b);
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        prop_assert_eq!(sa.count() + sb.count(), union.count() + inter.count());
        // Commutativity.
        prop_assert_eq!(&union, &sb.union(&sa));
        prop_assert_eq!(&inter, &sb.intersection(&sa));
        // Containment.
        for lane in inter.iter() {
            prop_assert!(sa.contains(lane) && sb.contains(lane));
        }
        for lane in sa.iter() {
            prop_assert!(union.contains(lane));
        }
    }

    #[test]
    fn laneset_permutation_preserves_cardinality(universe in 1usize..128, seed: u64) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..universe).collect();
        perm.shuffle(&mut rng);
        let set = LaneSet::from_pred(universe, |l| l % 3 == 0);
        let mapped = set.permuted(&perm);
        prop_assert_eq!(mapped.count(), set.count());
        for lane in set.iter() {
            prop_assert!(mapped.contains(perm[lane]));
        }
    }

    #[test]
    fn wearmap_totals_equal_sum_of_marginals(rows in 1usize..32, lanes in 1usize..32, ops in prop::collection::vec((0usize..31, 0usize..31, 1u64..100, 0u8..8), 0..50)) {
        let dims = ArrayDims::new(rows, lanes);
        let cells = dims.cells();
        let mut wear = WearMap::new(dims);
        // Scattered adders interleaved with the whole-plane passes that
        // carry the maximum: after every step the carried maximum and the
        // running sum must match a per-cell recount.
        for &(r, l, n, kind) in &ops {
            let (r, l) = (r % rows, l % lanes);
            match kind {
                0 => wear.add_write_at(r, l, n),
                1 => wear.add_writes(r, &LaneSet::range(lanes, 0, l + 1), n),
                2 => wear.add_row_writes(r, &[l], n),
                3 => wear.add_full_row_writes(r, n),
                4 => {
                    let plane: Vec<u64> = (0..cells)
                        .map(|i| wear.writes_at(i / lanes, i % lanes) + (i as u64 * n) % 7)
                        .collect();
                    wear = WearMap::from_planes(dims, plane, Vec::new());
                }
                5 => {
                    let mut other = WearMap::new(dims);
                    other.add_write_at(r, l, n);
                    wear.merge(&other);
                }
                6 => {
                    let counts: Vec<u64> = (0..rows).map(|i| if i == r { n } else { 0 }).collect();
                    wear.add_full_rows(&counts, None);
                }
                _ => wear = wear.clone(),
            }
            prop_assert_eq!(wear.max_writes(), wear.recount_max_writes());
            prop_assert_eq!(wear.total_writes(), wear.recount_writes());
        }
        let row_sum: u64 = wear.row_totals().iter().sum();
        let lane_sum: u64 = wear.lane_totals().iter().sum();
        prop_assert_eq!(row_sum, wear.total_writes());
        prop_assert_eq!(lane_sum, wear.total_writes());
        prop_assert!(wear.max_writes() <= wear.total_writes());
        if wear.total_writes() > 0 {
            let (r, l) = wear.argmax_writes();
            prop_assert_eq!(wear.writes_at(r, l), wear.max_writes());
        }
    }

    #[test]
    fn heatmap_values_are_normalized(rows in 2usize..40, lanes in 2usize..40, ops in prop::collection::vec((0usize..39, 0usize..39, 1u64..50), 1..30)) {
        let dims = ArrayDims::new(rows, lanes);
        let mut wear = WearMap::new(dims);
        for &(r, l, n) in &ops {
            if r < rows && l < lanes {
                wear.add_write_at(r, l, n);
            }
        }
        let grid = wear.heatmap(rows.min(8), lanes.min(8));
        let mut max = 0.0f64;
        for row in &grid {
            for &v in row {
                prop_assert!((0.0..=1.0).contains(&v));
                max = max.max(v);
            }
        }
        if wear.total_writes() > 0 {
            prop_assert!((max - 1.0).abs() < 1e-12, "hottest bucket must be 1.0");
        }
    }

    #[test]
    fn trace_counts_are_additive(n_gates in 0usize..40, n_writes in 0usize..10, lanes in 1usize..16) {
        let dims = ArrayDims::new(8, lanes);
        let mut t = Trace::new(dims);
        let all = t.add_class(LaneSet::full(lanes));
        for k in 0..n_writes {
            t.push(Step::Write { row: k % 8, class: all, source: WriteSource::Input(k) });
        }
        for g in 0..n_gates {
            t.push(Step::Gate { kind: GateKind::Nand, ins: [g % 8, (g + 1) % 8], out: (g + 2) % 8, class: all });
        }
        let sense = t.counts(ArchStyle::SenseAmp);
        let preset = t.counts(ArchStyle::PresetOutput);
        let lanes64 = lanes as u64;
        prop_assert_eq!(sense.cell_writes, (n_writes + n_gates) as u64 * lanes64);
        prop_assert_eq!(preset.cell_writes, (n_writes + 2 * n_gates) as u64 * lanes64);
        prop_assert_eq!(sense.sequential_steps + n_gates as u64, preset.sequential_steps);
        prop_assert_eq!(sense.cell_reads, preset.cell_reads);
    }

    #[test]
    fn memoized_counts_match_a_step_walk(
        lanes in 1usize..24,
        masks in prop::collection::vec(any::<u32>(), 1..5),
        ops in prop::collection::vec((0usize..4, 0usize..8, 0usize..8, 0usize..8, 0usize..8), 0..60),
        peek_every in 1usize..8,
    ) {
        const ROWS: usize = 8;
        let arches = [ArchStyle::SenseAmp, ArchStyle::PresetOutput];
        let mut t = Trace::new(ArrayDims::new(ROWS, lanes));
        t.add_class(LaneSet::full(lanes));
        for &mask in &masks {
            t.add_class(LaneSet::from_pred(lanes, |l| mask >> (l % 32) & 1 == 1));
        }
        let classes = t.classes().len();
        for (i, &(kind, a, b, c, k)) in ops.iter().enumerate() {
            let class = k % classes;
            t.push(match kind {
                0 => Step::Write { row: a, class, source: WriteSource::Input(b) },
                1 => Step::Read { row: a, class },
                2 => Step::Gate { kind: GateKind::ALL[k], ins: [a, b], out: c, class },
                // Transfers pair a class with itself, so cardinalities match.
                _ => Step::Transfer { src_row: a, dst_row: b, src_class: class, dst_class: class },
            });
            // Reading mid-synthesis memoizes counts the next push must reset.
            if i % peek_every == 0 {
                for arch in arches {
                    prop_assert_eq!(t.counts(arch), walk_counts(&t, arch));
                }
            }
        }
        for arch in arches {
            let (memo, walked) = (t.counts(arch), walk_counts(&t, arch));
            prop_assert_eq!(memo, walked);
            prop_assert_eq!(memo.weighted_active_lanes.to_bits(), walked.weighted_active_lanes.to_bits());
            prop_assert_eq!(t.recount_counts(arch), walked);
        }
    }

    #[test]
    fn gini_bounded_and_zero_for_uniform(rows in 1usize..16, lanes in 1usize..16, v in 1u64..1000) {
        let dims = ArrayDims::new(rows, lanes);
        let mut wear = WearMap::new(dims);
        for r in 0..rows {
            wear.add_writes(r, &LaneSet::full(lanes), v);
        }
        prop_assert!(wear.gini().abs() < 1e-9);
        // Concentrate everything in one cell: gini approaches 1 - 1/n.
        let mut spike = WearMap::new(dims);
        spike.add_write_at(0, 0, v);
        let n = dims.cells() as f64;
        prop_assert!((spike.gini() - (1.0 - 1.0 / n)).abs() < 1e-9);
    }
}
