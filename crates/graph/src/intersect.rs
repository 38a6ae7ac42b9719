//! Neighborhood intersections and the per-edge triangle table.
//!
//! Stage I of TLP scores a frontier candidate `v_i` against an adjacent
//! member `v_j` by `|N(v_i) ∩ N(v_j)| / |N(v_j)|`. Because `v_i` and `v_j`
//! are adjacent and the neighborhoods are those of the input graph, the
//! numerator is the number of triangles through the edge `(v_i, v_j)`: a
//! property of the graph alone. [`edge_triangles`] counts it once per
//! edge, so the engine reads every Stage I numerator from a table instead
//! of intersecting adjacency lists.
//!
//! [`merge_intersection_size`] counts the intersection of two sorted CSR
//! slices by linear merge. No production path calls it: it is the plain
//! reference the table is checked against, edge by edge, here and in the
//! property suite (`tests/intersect_props.rs`).

use crate::{EdgeId, GraphView, VertexId};

/// Size of the intersection of two sorted, duplicate-free slices, by
/// linear two-pointer merge (`O(|a| + |b|)`).
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::merge_intersection_size;
///
/// assert_eq!(merge_intersection_size(&[1, 3, 5, 9], &[2, 3, 4, 5]), 2);
/// assert_eq!(merge_intersection_size(&[], &[1]), 0);
/// ```
pub fn merge_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Sentinel for "no forward edge to this vertex" in [`edge_triangles`].
const UNMARKED: EdgeId = EdgeId::MAX;

/// The triangle table: `table[e] = |N(a) ∩ N(b)|` for every edge
/// `e = (a, b)`, one `u32` per [`EdgeId`].
///
/// Counts by degree-ordered forward counting in `O(m·√m)`: each edge is
/// oriented from the endpoint of lower `(degree, id)` rank to the higher,
/// and every triangle is then found exactly once, from its lowest-ranked
/// corner, and credited to its three edges. Scratch beyond the table is
/// one forward adjacency (8 B per edge) and one mark per vertex, both
/// freed on return.
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::edge_triangles;
/// use tlp_graph::GraphBuilder;
///
/// // Two triangles sharing the edge (0, 1), plus a pendant edge (2, 4).
/// let g = GraphBuilder::new()
///     .add_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)])
///     .build();
/// let tri = edge_triangles(&g);
/// assert_eq!(tri[g.edge_id(0, 1).unwrap() as usize], 2);
/// assert_eq!(tri[g.edge_id(0, 2).unwrap() as usize], 1);
/// assert_eq!(tri[g.edge_id(2, 4).unwrap() as usize], 0);
/// ```
pub fn edge_triangles<'a>(graph: impl Into<GraphView<'a>>) -> Vec<u32> {
    let graph = graph.into();
    let n = graph.num_vertices();
    let precedes = |a: VertexId, b: VertexId| (graph.degree(a), a) < (graph.degree(b), b);

    // Forward adjacency: the arcs (w, e) of u with u ≺ w, in CSR order.
    let mut fwd_start = Vec::with_capacity(n + 1);
    let mut fwd: Vec<(VertexId, EdgeId)> = Vec::with_capacity(graph.num_edges());
    for u in graph.vertices() {
        fwd_start.push(fwd.len());
        fwd.extend(graph.incident(u).filter(|&(w, _)| precedes(u, w)));
    }
    fwd_start.push(fwd.len());
    let out = |u: usize| &fwd[fwd_start[u]..fwd_start[u + 1]];

    let mut table = vec![0u32; graph.num_edges()];
    // mark[w] = id of edge (u, w) while u's forward neighbors are marked.
    let mut mark = vec![UNMARKED; n];
    for u in 0..n {
        for &(w, e) in out(u) {
            mark[w as usize] = e;
        }
        for &(v, e_uv) in out(u) {
            for &(w, e_vw) in out(v as usize) {
                let e_uw = mark[w as usize];
                if e_uw != UNMARKED {
                    table[e_uv as usize] += 1;
                    table[e_vw as usize] += 1;
                    table[e_uw as usize] += 1;
                }
            }
        }
        for &(w, _) in out(u) {
            mark[w as usize] = UNMARKED;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn naive(a: &[VertexId], b: &[VertexId]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn merge_matches_naive_on_basic_cases() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[1, 5, 7], &[5]),
            (&[0, 2, 4, 6, 8], &[1, 2, 3, 4, 5]),
        ];
        for &(a, b) in cases {
            assert_eq!(merge_intersection_size(a, b), naive(a, b));
            assert_eq!(merge_intersection_size(b, a), naive(a, b));
        }
    }

    #[test]
    fn triangle_table_matches_intersections() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 0)])
            .build();
        let tri = edge_triangles(&g);
        assert_eq!(tri.len(), g.num_edges());
        for (e, edge) in g.view().edge_iter().enumerate() {
            let (a, b) = edge.endpoints();
            let expected = merge_intersection_size(g.neighbors(a), g.neighbors(b));
            assert_eq!(tri[e] as usize, expected, "edge {edge:?}");
        }
    }

    #[test]
    fn triangle_table_of_empty_and_edgeless_graphs() {
        assert!(edge_triangles(&GraphBuilder::new().build()).is_empty());
        let g = GraphBuilder::new().reserve_vertices(5).build();
        assert!(edge_triangles(&g).is_empty());
    }
}
