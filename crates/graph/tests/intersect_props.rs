//! Property-based tests of the intersection-kernel layer.
//!
//! The engine's bit-identity guarantee rests on every kernel returning the
//! exact same count for the same inputs; these properties pin that over
//! arbitrary sorted duplicate-free slices (the shape of CSR adjacency),
//! plus the set-algebra invariants any intersection must satisfy.

use proptest::prelude::*;
use tlp_graph::intersect::{
    galloping_intersection_size, merge_intersection_size, sorted_intersection_size,
    IntersectionKernel,
};
use tlp_graph::{GraphBuilder, VertexId};

/// A sorted, duplicate-free vertex slice — the invariant CSR adjacency
/// guarantees (asserted by `properties.rs`). Skewed lengths are common so
/// the galloping crossover is exercised in both directions.
fn arb_sorted_slice(max_len: usize) -> impl Strategy<Value = Vec<VertexId>> {
    prop::collection::vec(0u32..500, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn naive(a: &[VertexId], b: &[VertexId]) -> usize {
    a.iter().filter(|x| b.contains(x)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both kernels agree with the adaptive dispatcher (and the naive
    /// definition) on arbitrary sorted slices, in both argument orders.
    #[test]
    fn all_kernels_agree(a in arb_sorted_slice(60), b in arb_sorted_slice(600)) {
        let expected = naive(&a, &b);
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(sorted_intersection_size(x, y), expected);
            prop_assert_eq!(merge_intersection_size(x, y), expected);
            prop_assert_eq!(galloping_intersection_size(x, y), expected);
        }
    }

    /// Empty operand: the intersection with nothing is empty.
    #[test]
    fn empty_side_yields_zero(a in arb_sorted_slice(200)) {
        let empty: Vec<VertexId> = Vec::new();
        prop_assert_eq!(sorted_intersection_size(&a, &empty), 0);
        prop_assert_eq!(merge_intersection_size(&empty, &a), 0);
        prop_assert_eq!(galloping_intersection_size(&a, &empty), 0);
    }

    /// Identical operands: the intersection is the whole (duplicate-free)
    /// slice.
    #[test]
    fn self_intersection_is_identity(a in arb_sorted_slice(200)) {
        prop_assert_eq!(sorted_intersection_size(&a, &a), a.len());
        prop_assert_eq!(merge_intersection_size(&a, &a), a.len());
        prop_assert_eq!(galloping_intersection_size(&a, &a), a.len());
    }

    /// Disjoint operands (built by offsetting `b` past `a`'s range) yield
    /// zero.
    #[test]
    fn disjoint_slices_yield_zero(a in arb_sorted_slice(100), b in arb_sorted_slice(100)) {
        let offset = a.last().map_or(0, |&x| x + 1);
        let shifted: Vec<VertexId> = b.iter().map(|&x| x + offset).collect();
        prop_assert_eq!(sorted_intersection_size(&a, &shifted), 0);
        prop_assert_eq!(merge_intersection_size(&a, &shifted), 0);
        prop_assert_eq!(galloping_intersection_size(&a, &shifted), 0);
    }

    /// Bounds: the count never exceeds either operand's length, and is
    /// symmetric in its arguments.
    #[test]
    fn count_is_bounded_and_symmetric(a in arb_sorted_slice(150), b in arb_sorted_slice(150)) {
        let c = sorted_intersection_size(&a, &b);
        prop_assert!(c <= a.len() && c <= b.len());
        prop_assert_eq!(sorted_intersection_size(&b, &a), c);
    }

    /// The loaded-kernel path (marks + cache) agrees with the dispatcher on
    /// graphs built from arbitrary edge lists, for every vertex pair class,
    /// and the cache returns the same count it stored.
    #[test]
    fn loaded_kernel_matches_dispatcher(
        edges in prop::collection::vec((0u32..40, 0u32..40), 1..150),
        loaded in 0u32..40,
    ) {
        let g = GraphBuilder::new().add_edges(edges.iter().copied()).build();
        let loaded = loaded % g.num_vertices() as u32;
        let mut kernel = IntersectionKernel::new(g.num_vertices());
        kernel.load(&g, loaded);
        for u in g.vertices() {
            let expected = sorted_intersection_size(g.neighbors(u), g.neighbors(loaded));
            prop_assert_eq!(kernel.count_with_loaded(&g, u), expected);
            prop_assert_eq!(kernel.cached_with_loaded(u), Some(expected));
            // Second query must come from the cache with the same value.
            prop_assert_eq!(kernel.count_with_loaded(&g, u), expected);
        }
    }
}
