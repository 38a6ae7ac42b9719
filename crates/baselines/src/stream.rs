//! Streaming orders for edges and vertices.
//!
//! Streaming partitioners are sensitive to arrival order; these helpers
//! produce the standard orders used in the literature (natural file order,
//! random permutation, and BFS for vertex streams) deterministically.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tlp_graph::{EdgeId, GraphView, VertexId};

/// Arrival order of an edge stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Edge-id order (the canonical sorted order of `CsrGraph`).
    Natural,
    /// Seeded uniform shuffle.
    Random(u64),
}

/// Arrival order of a vertex stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexOrder {
    /// `0..n`.
    Natural,
    /// Seeded uniform shuffle.
    Random(u64),
    /// BFS from vertex 0, restarting per component (the order recommended
    /// for LDG/FENNEL in Stanton & Kliot's evaluation).
    Bfs,
}

/// Materializes an edge arrival order.
///
/// # Example
///
/// ```
/// use tlp_baselines::{edge_order, EdgeOrder};
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new().add_edges([(0, 1), (1, 2), (2, 3)]).build();
/// assert_eq!(edge_order(&g, EdgeOrder::Natural), vec![0, 1, 2]);
/// let shuffled = edge_order(&g, EdgeOrder::Random(7));
/// let mut sorted = shuffled.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, vec![0, 1, 2]);
/// ```
pub fn edge_order<'a>(graph: impl Into<GraphView<'a>>, order: EdgeOrder) -> Vec<EdgeId> {
    let graph = graph.into();
    let m = graph.num_edges() as EdgeId;
    match order {
        EdgeOrder::Natural => (0..m).collect(),
        EdgeOrder::Random(seed) => {
            let mut ids: Vec<EdgeId> = (0..m).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids
        }
    }
}

/// Materializes a vertex arrival order.
pub fn vertex_order<'a>(graph: impl Into<GraphView<'a>>, order: VertexOrder) -> Vec<VertexId> {
    let graph = graph.into();
    let n = graph.num_vertices();
    match order {
        VertexOrder::Natural => (0..n as VertexId).collect(),
        VertexOrder::Random(seed) => {
            let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids
        }
        VertexOrder::Bfs => {
            let mut visited = vec![false; n];
            let mut out = Vec::with_capacity(n);
            let mut queue = std::collections::VecDeque::new();
            for s in 0..n as VertexId {
                if visited[s as usize] {
                    continue;
                }
                visited[s as usize] = true;
                queue.push_back(s);
                while let Some(v) = queue.pop_front() {
                    out.push(v);
                    for &w in graph.neighbors(v) {
                        if !visited[w as usize] {
                            visited[w as usize] = true;
                            queue.push_back(w);
                        }
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (4, 5)])
            .build()
    }

    #[test]
    fn natural_orders() {
        let g = graph();
        assert_eq!(edge_order(&g, EdgeOrder::Natural), vec![0, 1, 2, 3]);
        assert_eq!(
            vertex_order(&g, VertexOrder::Natural),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn random_orders_are_permutations_and_seeded() {
        let g = graph();
        let a = edge_order(&g, EdgeOrder::Random(1));
        let b = edge_order(&g, EdgeOrder::Random(1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let v = vertex_order(&g, VertexOrder::Random(2));
        let mut vs = v.clone();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_vertex_order_covers_all_components() {
        let g = graph();
        let order = vertex_order(&g, VertexOrder::Bfs);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], 0);
        // Component {4,5} appears after component {0..3}.
        let pos4 = order.iter().position(|&v| v == 4).unwrap();
        assert!(pos4 >= 4);
    }
}
