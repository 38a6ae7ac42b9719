//! Property-based tests of the intersection layer and the triangle table.
//!
//! The engine reads every Stage I numerator from the per-edge triangle
//! table. These properties pin the merge counter the table is checked
//! against to the naive definition over arbitrary sorted duplicate-free
//! slices (the shape of CSR adjacency), plus the set-algebra invariants any
//! intersection must satisfy, and check the table against the merge
//! counter on every edge of random graphs and of views with permuted
//! vertex and edge ids.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tlp_graph::generators::{rmat, RmatProbabilities};
use tlp_graph::intersect::{edge_triangles, merge_intersection_size};
use tlp_graph::{CsrGraph, EdgeId, GraphBuilder, GraphView, VertexId};

/// A sorted, duplicate-free vertex slice — the invariant CSR adjacency
/// guarantees (asserted by `properties.rs`).
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

    /// The merge counter agrees with the naive definition on arbitrary
    /// sorted slices of skewed lengths, in both argument orders.
    #[test]
    fn merge_matches_naive(a in arb_sorted_slice(60), b in arb_sorted_slice(600)) {
        let expected = naive(&a, &b);
        prop_assert_eq!(merge_intersection_size(&a, &b), expected);
        prop_assert_eq!(merge_intersection_size(&b, &a), expected);
    }

    /// Empty operand: the intersection with nothing is empty.
    #[test]
    fn empty_side_yields_zero(a in arb_sorted_slice(200)) {
        let empty: Vec<VertexId> = Vec::new();
        prop_assert_eq!(merge_intersection_size(&a, &empty), 0);
        prop_assert_eq!(merge_intersection_size(&empty, &a), 0);
    }

    /// Identical operands: the intersection is the whole (duplicate-free)
    /// slice.
    #[test]
    fn self_intersection_is_identity(a in arb_sorted_slice(200)) {
        prop_assert_eq!(merge_intersection_size(&a, &a), a.len());
    }

    /// Disjoint operands (built by offsetting `b` past `a`'s range) yield
    /// zero.
    #[test]
    fn disjoint_slices_yield_zero(a in arb_sorted_slice(100), b in arb_sorted_slice(100)) {
        let offset = a.last().map_or(0, |&x| x + 1);
        let shifted: Vec<VertexId> = b.iter().map(|&x| x + offset).collect();
        prop_assert_eq!(merge_intersection_size(&a, &shifted), 0);
    }

    /// Bounds: the count never exceeds either operand's length, and is
    /// symmetric in its arguments.
    #[test]
    fn count_is_bounded_and_symmetric(a in arb_sorted_slice(150), b in arb_sorted_slice(150)) {
        let c = merge_intersection_size(&a, &b);
        prop_assert!(c <= a.len() && c <= b.len());
        prop_assert_eq!(merge_intersection_size(&b, &a), c);
    }

    /// `tri[e] = |N(a) ∩ N(b)|` for every edge `e = (a, b)` of stars,
    /// cliques, R-MAT graphs and arbitrary edge lists, with isolated
    /// vertices mixed in.
    #[test]
    fn triangle_table_matches_intersections(graph in arb_graph()) {
        check_table(graph.view())?;
    }

    /// The same over a `from_sections` view whose vertex ids and edge ids
    /// are both permuted, so edge ids follow no canonical order.
    #[test]
    fn triangle_table_matches_on_relabelled_sections(
        graph in arb_graph(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut relabel: Vec<VertexId> = graph.vertices().collect();
        relabel.shuffle(&mut rng);
        let permuted = GraphBuilder::new()
            .reserve_vertices(graph.num_vertices())
            .add_edges(graph.view().edge_iter().map(|e| {
                let (a, b) = e.endpoints();
                (relabel[a as usize], relabel[b as usize])
            }))
            .build();
        let view = permuted.view();
        let mut new_id: Vec<EdgeId> = (0..view.num_edges() as EdgeId).collect();
        new_id.shuffle(&mut rng);
        let adj_edge: Vec<EdgeId> = view.adj_edge().iter().map(|&e| new_id[e as usize]).collect();
        let mut pairs = vec![[0u32; 2]; view.num_edges()];
        for (e, edge) in view.edge_iter().enumerate() {
            pairs[new_id[e] as usize] = [edge.source(), edge.target()];
        }
        let sections = GraphView::from_sections(
            view.offsets(),
            view.adj_vertex(),
            &adj_edge,
            &pairs,
        )
        .expect("permuted sections keep the CSR shape");
        check_table(sections)?;
        let total = |table: Vec<u32>| table.iter().map(|&t| u64::from(t)).sum::<u64>();
        prop_assert_eq!(total(edge_triangles(sections)), total(edge_triangles(&graph)));
    }
}

/// Checks every table entry of `view` against the merge counter.
fn check_table(view: GraphView<'_>) -> Result<(), TestCaseError> {
    let tri = edge_triangles(view);
    prop_assert_eq!(tri.len(), view.num_edges());
    for (e, edge) in view.edge_iter().enumerate() {
        let (a, b) = edge.endpoints();
        let expected = merge_intersection_size(view.neighbors(a), view.neighbors(b));
        prop_assert_eq!(tri[e] as usize, expected);
    }
    Ok(())
}

/// Stars, cliques, duplicate-free R-MAT and arbitrary edge lists, each
/// padded with a few isolated vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    let star = (1u32..40, 0usize..4).prop_map(|(leaves, isolated)| {
        GraphBuilder::new()
            .reserve_vertices(leaves as usize + 1 + isolated)
            .add_edges((1..=leaves).map(|leaf| (0, leaf)))
            .build()
    });
    let clique = (1u32..14, 0usize..4).prop_map(|(k, isolated)| {
        GraphBuilder::new()
            .reserve_vertices(k as usize + isolated)
            .add_edges((0..k).flat_map(|a| (a + 1..k).map(move |b| (a, b))))
            .build()
    });
    let rmat = (3u32..9, 1usize..400, any::<u64>())
        .prop_map(|(scale, m, seed)| rmat(scale, m, RmatProbabilities::default(), seed));
    let edge_list = (
        prop::collection::vec((0u32..40, 0u32..40), 0..200),
        0usize..8,
    )
        .prop_map(|(edges, isolated)| {
            GraphBuilder::new()
                .reserve_vertices(40 + isolated)
                .add_edges(edges)
                .build()
        });
    prop_oneof![star, clique, rmat, edge_list]
}
