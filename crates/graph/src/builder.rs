//! Incremental construction of [`CsrGraph`]s from raw edge lists.

use crate::{CsrGraph, Edge, VertexId};

/// A deduplicating builder for [`CsrGraph`].
///
/// The builder accepts edges in any order and endpoint orientation, drops
/// self-loops and duplicate edges, and tracks the highest vertex id seen so
/// the resulting graph has a dense vertex space `0..n`.
///
/// # Example
///
/// ```
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .add_edge(1, 0)
///     .add_edge(0, 1) // duplicate, dropped
///     .add_edge(2, 2) // self-loop, dropped
///     .build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.num_vertices(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    min_vertices: usize,
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declares that the graph has at least `n` vertices, so isolated
    /// trailing vertices survive even if no edge mentions them.
    pub fn reserve_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds one undirected edge; self-loops are counted and dropped.
    #[must_use]
    pub fn add_edge(mut self, a: VertexId, b: VertexId) -> Self {
        self.push_edge(a, b);
        self
    }

    /// Adds one undirected edge through a mutable reference (loop-friendly).
    pub fn push_edge(&mut self, a: VertexId, b: VertexId) {
        if a == b {
            self.dropped_self_loops += 1;
            // The vertex still exists even though its loop is dropped.
            self.min_vertices = self.min_vertices.max(a as usize + 1);
            return;
        }
        self.edges.push(Edge::new(a, b));
    }

    /// Adds every edge from an iterator of endpoint pairs.
    #[must_use]
    pub fn add_edges<I>(mut self, iter: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (a, b) in iter {
            self.push_edge(a, b);
        }
        self
    }

    /// Number of self-loops dropped so far.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Finalizes the graph: deduplicates edges and builds the CSR arrays.
    pub fn build(self) -> CsrGraph {
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        let num_vertices = edges
            .iter()
            .map(|e| e.target() as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        CsrGraph::from_canonical_edges(num_vertices, edges)
    }
}

impl FromIterator<(VertexId, VertexId)> for GraphBuilder {
    fn from_iter<T: IntoIterator<Item = (VertexId, VertexId)>>(iter: T) -> Self {
        GraphBuilder::new().add_edges(iter)
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.push_edge(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_in_both_orientations_collapse() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 0), (0, 1), (2, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_are_dropped_and_counted() {
        let mut b = GraphBuilder::new();
        b.push_edge(0, 0);
        b.push_edge(0, 1);
        b.push_edge(1, 1);
        assert_eq!(b.dropped_self_loops(), 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut b: GraphBuilder = [(0, 1), (1, 2)].into_iter().collect();
        b.extend([(2, 3)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn reserve_vertices_keeps_isolated_tail() {
        let g = GraphBuilder::new().reserve_vertices(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn edge_ids_are_dense_and_sorted_canonical() {
        let g = GraphBuilder::new()
            .add_edges([(3, 2), (0, 1), (2, 0)])
            .build();
        // Edges are canonicalized and sorted, so EdgeIds follow (0,1),(0,2),(2,3).
        assert_eq!(g.edge(0).endpoints(), (0, 1));
        assert_eq!(g.edge(1).endpoints(), (0, 2));
        assert_eq!(g.edge(2).endpoints(), (2, 3));
    }
}
