//! Weighted graph representation used throughout the multilevel scheme.

use tlp_graph::GraphView;

/// An undirected graph with vertex and edge weights in CSR form.
///
/// Coarsening contracts matched vertex pairs: the contracted vertex's weight
/// is the sum of its constituents, and parallel edges merge by adding their
/// weights, so the edge cut of a coarse partition equals the edge cut of its
/// projection to the original graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    adj: Vec<(u32, u64)>,
    vertex_weight: Vec<u64>,
    total_edge_weight: u64,
}

impl WeightedGraph {
    /// Builds a unit-weight graph from any CSR-backed graph view.
    pub fn from_csr<'a>(graph: impl Into<GraphView<'a>>) -> Self {
        let graph = graph.into();
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut adj = Vec::with_capacity(2 * graph.num_edges());
        for v in graph.vertices() {
            for &w in graph.neighbors(v) {
                adj.push((w, 1u64));
            }
            offsets.push(adj.len());
        }
        WeightedGraph {
            offsets,
            adj,
            vertex_weight: vec![1; n],
            total_edge_weight: graph.num_edges() as u64,
        }
    }

    /// Builds a weighted graph from per-vertex adjacency lists.
    ///
    /// Each undirected edge must appear in both endpoints' lists with the
    /// same weight; `total_edge_weight` is half the sum of list weights.
    pub(crate) fn from_adjacency(vertex_weight: Vec<u64>, adjacency: Vec<Vec<(u32, u64)>>) -> Self {
        let n = adjacency.len();
        assert_eq!(vertex_weight.len(), n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut adj = Vec::new();
        let mut twice_weight = 0u64;
        for list in &adjacency {
            for &(w, wt) in list {
                adj.push((w, wt));
                twice_weight += wt;
            }
            offsets.push(adj.len());
        }
        WeightedGraph {
            offsets,
            adj,
            vertex_weight,
            total_edge_weight: twice_weight / 2,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Weighted number of edges.
    pub fn total_edge_weight(&self) -> u64 {
        self.total_edge_weight
    }

    /// Weight of vertex `v`.
    pub fn vertex_weight(&self, v: u32) -> u64 {
        self.vertex_weight[v as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weight.iter().sum()
    }

    /// `(neighbor, edge_weight)` pairs of `v`.
    pub fn neighbors(&self, v: u32) -> &[(u32, u64)] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The weighted cut of a two-sided assignment (`side[v]` in `{0, 1}`).
    pub fn cut(&self, side: &[u8]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.num_vertices() as u32 {
            for &(w, wt) in self.neighbors(v) {
                if side[v as usize] != side[w as usize] {
                    cut += wt;
                }
            }
        }
        cut / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::GraphBuilder;

    #[test]
    fn from_csr_has_unit_weights() {
        let g = GraphBuilder::new().add_edges([(0, 1), (1, 2)]).build();
        let wg = WeightedGraph::from_csr(&g);
        assert_eq!(wg.num_vertices(), 3);
        assert_eq!(wg.total_edge_weight(), 2);
        assert_eq!(wg.vertex_weight(1), 1);
        assert_eq!(wg.total_vertex_weight(), 3);
    }

    #[test]
    fn cut_counts_weighted_cross_edges() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .build();
        let wg = WeightedGraph::from_csr(&g);
        assert_eq!(wg.cut(&[0, 0, 1]), 2);
        assert_eq!(wg.cut(&[0, 0, 0]), 0);
    }

    #[test]
    fn from_adjacency_merges_weights() {
        // Two vertices joined by a weight-3 edge.
        let wg = WeightedGraph::from_adjacency(vec![2, 5], vec![vec![(1, 3)], vec![(0, 3)]]);
        assert_eq!(wg.total_edge_weight(), 3);
        assert_eq!(wg.vertex_weight(1), 5);
        assert_eq!(wg.cut(&[0, 1]), 3);
    }
}
