//! Stage I selection criterion (Eq. 7 of the paper).
//!
//! In Stage I the partition is still loose (`M(P_k) <= 1`), and the paper
//! selects the frontier vertex that is *close to the partition* and has a
//! *high degree*:
//!
//! ```text
//! mu_s1(v_i) = max_{v_j in N(v_i) ∩ P_k}  |N(v_i) ∩ N(v_j)| / |N(v_j)|
//! ```
//!
//! Neighborhoods are those of the input graph (the criterion is a structural
//! closeness measure borrowed from local community detection, not a residual
//! quantity). Since `v_j` is a neighbor of `v_i`, the numerator is the
//! number of triangles through the edge `(v_i, v_j)`: the engine reads it
//! from the per-edge table of [`tlp_graph::intersect::edge_triangles`],
//! built once per graph. The from-scratch functions here intersect the
//! sorted CSR adjacency lists with the adaptive merge/gallop kernel
//! instead; both give the same count, so the same f64 term.

use tlp_graph::{GraphView, VertexId};

// The adaptive intersection primitive lives in the graph crate's kernel
// layer; re-exported because `mu_s1`'s definition is stated in terms of it.
pub use tlp_graph::intersect::sorted_intersection_size;

/// The single-member closeness term `|N(v_i) ∩ N(v_j)| / |N(v_j)|`.
///
/// `mu_s1` is the maximum of this over the members `v_j` adjacent to `v_i`;
/// the driver maintains that maximum incrementally as members join.
///
/// Returns 0 when `v_j` has no neighbors (cannot happen for a member of a
/// growing partition, but keeps the function total).
pub fn closeness_term<'a>(graph: impl Into<GraphView<'a>>, v_i: VertexId, v_j: VertexId) -> f64 {
    let graph = graph.into();
    let nj = graph.neighbors(v_j);
    if nj.is_empty() {
        return 0.0;
    }
    sorted_intersection_size(graph.neighbors(v_i), nj) as f64 / nj.len() as f64
}

/// Computes `mu_s1(v_i)` from scratch against a membership predicate.
///
/// The driver uses incremental maxima instead; this reference implementation
/// backs the tests and is handy for one-off analysis.
///
/// # Example
///
/// Reproduces the paper's Fig. 6(a) walk-through: with partition
/// `P_k = {b, c, d}` of the drawn graph, candidate `e` scores highest.
///
/// ```
/// use tlp_core::stage1::mu_s1;
/// use tlp_graph::GraphBuilder;
///
/// // Fig. 6(a): P_k = {1, 2, 3}; candidates a=0, e=4, g=5.
/// let g = GraphBuilder::new()
///     .add_edges([
///         (0, 1),          // a - b
///         (1, 2), (1, 3),  // b - c, b - d
///         (2, 3),          // c - d
///         (4, 2), (4, 3),  // e - c, e - d
///         (4, 5),          // e - g
///         (5, 3),          // g - d
///         (5, 6), (4, 6),  // g - h, e - h (outside edges)
///         (0, 7),          // a - i (outside edge)
///     ])
///     .build();
/// let member = |v: u32| v == 1 || v == 2 || v == 3;
/// let score_a = mu_s1(&g, 0, member);
/// let score_e = mu_s1(&g, 4, member);
/// let score_g = mu_s1(&g, 5, member);
/// assert!(score_e > score_a && score_e > score_g);
/// ```
pub fn mu_s1<'a, F>(graph: impl Into<GraphView<'a>>, v_i: VertexId, mut is_member: F) -> f64
where
    F: FnMut(VertexId) -> bool,
{
    let graph = graph.into();
    let mut best = 0.0f64;
    for &v_j in graph.neighbors(v_i) {
        if is_member(v_j) {
            let term = closeness_term(graph, v_i, v_j);
            if term > best {
                best = term;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::GraphBuilder;

    #[test]
    fn intersection_basic_cases() {
        assert_eq!(sorted_intersection_size(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(sorted_intersection_size(&[1, 2, 3], &[4, 5]), 0);
        assert_eq!(sorted_intersection_size(&[], &[]), 0);
        assert_eq!(sorted_intersection_size(&[1, 5, 7], &[5]), 1);
    }

    #[test]
    fn closeness_term_matches_hand_computation() {
        // Triangle 0-1-2 plus pendant 3 on vertex 1.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (1, 3)])
            .build();
        // N(0) = {1,2}; N(1) = {0,2,3}. Intersection = {2}. |N(1)| = 3.
        assert!((closeness_term(&g, 0, 1) - 1.0 / 3.0).abs() < 1e-12);
        // N(3) = {1}; N(0) ∩ N(3) = {1} ∩ {1,2}... N(3)={1}, N(0)={1,2} -> {1}.
        assert!((closeness_term(&g, 0, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mu_s1_takes_max_over_member_neighbors() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (1, 3), (0, 3)])
            .build();
        // Candidate 3 with members {0, 1}: terms against both, take max.
        let t0 = closeness_term(&g, 3, 0);
        let t1 = closeness_term(&g, 3, 1);
        let m = mu_s1(&g, 3, |v| v == 0 || v == 1);
        assert!((m - t0.max(t1)).abs() < 1e-12);
    }

    #[test]
    fn mu_s1_zero_when_no_member_neighbor() {
        let g = GraphBuilder::new().add_edges([(0, 1), (2, 3)]).build();
        assert_eq!(mu_s1(&g, 0, |v| v == 2), 0.0);
    }

    #[test]
    fn higher_degree_candidate_wins_at_equal_attachment() {
        // Paper Fig. 6 rationale: e and a have equally many edges into P_k,
        // but e's higher degree gives it more shared neighbors.
        let g = GraphBuilder::new()
            .add_edges([
                (0, 1),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 2),
                (4, 3),
                (4, 5),
                (5, 3),
            ])
            .build();
        let member = |v: u32| (1..=3).contains(&v);
        assert!(mu_s1(&g, 4, member) >= mu_s1(&g, 0, member));
    }

    #[test]
    fn adaptive_intersection_matches_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let la = rng.gen_range(0..40);
            let lb = rng.gen_range(0..2000);
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(0..500)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(0..500)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let naive = a.iter().filter(|x| b.contains(x)).count();
            assert_eq!(sorted_intersection_size(&a, &b), naive);
            assert_eq!(sorted_intersection_size(&b, &a), naive);
        }
    }
}
