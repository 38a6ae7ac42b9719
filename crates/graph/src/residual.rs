//! Mutable "unallocated edges" view over a [`CsrGraph`](crate::CsrGraph).
//!
//! Local partitioning (Fig. 3 of the paper) consumes the graph one partition
//! at a time: once an edge is allocated to a partition it is removed from
//! consideration for later rounds. [`ResidualGraph`] tracks that state with a
//! per-edge bitmap and per-vertex residual degrees, so the algorithms can ask
//! "which of `v`'s edges are still free?" without rebuilding anything.

use crate::{EdgeId, GraphView, VertexId};

/// The sub-multigraph of edges not yet allocated to any partition.
///
/// # Example
///
/// ```
/// use tlp_graph::{GraphBuilder, ResidualGraph};
///
/// let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
/// let mut r = ResidualGraph::new(&g);
/// assert_eq!(r.remaining_edges(), 2);
/// let id = g.edge_id(0, 1).expect("exists");
/// r.allocate(id);
/// assert_eq!(r.remaining_edges(), 1);
/// assert_eq!(r.residual_degree(1), 1);
/// assert!(!r.is_free(id));
/// ```
#[derive(Clone, Debug)]
pub struct ResidualGraph<'g> {
    graph: GraphView<'g>,
    free: Vec<bool>,
    residual_degree: Vec<u32>,
    remaining: usize,
}

impl<'g> ResidualGraph<'g> {
    /// Creates a residual view in which every edge of `graph` is free.
    ///
    /// Accepts anything convertible to a [`GraphView`] — `&CsrGraph` or an
    /// existing view — so the residual state can sit directly on top of a
    /// shared arena without an owned copy.
    pub fn new(graph: impl Into<GraphView<'g>>) -> Self {
        let graph = graph.into();
        let residual_degree = graph.vertices().map(|v| graph.degree(v) as u32).collect();
        ResidualGraph {
            graph,
            free: vec![true; graph.num_edges()],
            residual_degree,
            remaining: graph.num_edges(),
        }
    }

    /// The underlying immutable graph view.
    pub fn graph(&self) -> GraphView<'g> {
        self.graph
    }

    /// Number of edges not yet allocated.
    pub fn remaining_edges(&self) -> usize {
        self.remaining
    }

    /// Whether every edge has been allocated.
    pub fn is_exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Whether edge `e` is still unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_edges`.
    pub fn is_free(&self, e: EdgeId) -> bool {
        self.free[e as usize]
    }

    /// Number of unallocated edges incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn residual_degree(&self, v: VertexId) -> usize {
        self.residual_degree[v as usize] as usize
    }

    /// Marks edge `e` allocated and updates both endpoints' residual degrees.
    ///
    /// Allocating an already-allocated edge is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or already allocated.
    pub fn allocate(&mut self, e: EdgeId) {
        let slot = &mut self.free[e as usize];
        assert!(*slot, "edge {e} allocated twice");
        *slot = false;
        self.remaining -= 1;
        let edge = self.graph.edge(e);
        self.residual_degree[edge.source() as usize] -= 1;
        self.residual_degree[edge.target() as usize] -= 1;
    }

    /// Iterates over `(neighbor, edge_id)` pairs of `v` whose edge is still
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn residual_incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.graph
            .incident(v)
            .filter(move |&(_, id)| self.free[id as usize])
    }

    /// Finds any vertex with at least one residual edge at or after `hint`
    /// (wrapping), or `None` if the residual graph is empty. Useful for
    /// cheap random reseeding: pass a random `hint` and take the hit.
    pub fn any_active_vertex_from(&self, hint: VertexId) -> Option<VertexId> {
        let n = self.graph.num_vertices();
        if n == 0 || self.remaining == 0 {
            return None;
        }
        let start = hint as usize % n;
        (start..n)
            .chain(0..start)
            .map(|v| v as VertexId)
            .find(|&v| self.residual_degree[v as usize] > 0)
    }

    /// Resets every edge to free.
    pub fn reset(&mut self) {
        self.free.fill(true);
        for v in self.graph.vertices() {
            self.residual_degree[v as usize] = self.graph.degree(v) as u32;
        }
        self.remaining = self.graph.num_edges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, GraphBuilder};

    fn path4() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build()
    }

    #[test]
    fn fresh_view_has_all_edges_free() {
        let g = path4();
        let r = ResidualGraph::new(&g);
        assert_eq!(r.remaining_edges(), 3);
        assert!(!r.is_exhausted());
        for e in 0..g.num_edges() as EdgeId {
            assert!(r.is_free(e));
        }
        assert_eq!(r.residual_degree(1), 2);
    }

    #[test]
    fn allocate_updates_degrees_and_iteration() {
        let g = path4();
        let mut r = ResidualGraph::new(&g);
        let id = g.edge_id(1, 2).unwrap();
        r.allocate(id);
        assert_eq!(r.remaining_edges(), 2);
        assert_eq!(r.residual_degree(1), 1);
        assert_eq!(r.residual_degree(2), 1);
        let nbrs: Vec<_> = r.residual_incident(1).map(|(w, _)| w).collect();
        assert_eq!(nbrs, vec![0]);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_allocation_panics() {
        let g = path4();
        let mut r = ResidualGraph::new(&g);
        r.allocate(0);
        r.allocate(0);
    }

    #[test]
    fn exhaustion_and_reset() {
        let g = path4();
        let mut r = ResidualGraph::new(&g);
        for e in 0..g.num_edges() as EdgeId {
            r.allocate(e);
        }
        assert!(r.is_exhausted());
        assert_eq!(r.any_active_vertex_from(0), None);
        r.reset();
        assert_eq!(r.remaining_edges(), 3);
        assert!(r.is_free(0));
    }

    #[test]
    fn active_vertex_search_wraps() {
        let g = path4();
        let mut r = ResidualGraph::new(&g);
        // Leave only edge (0,1) free; hint beyond it must wrap around.
        r.allocate(g.edge_id(1, 2).unwrap());
        r.allocate(g.edge_id(2, 3).unwrap());
        let v = r.any_active_vertex_from(2).unwrap();
        assert!(v == 0 || v == 1);
        assert!(r.residual_degree(v) > 0);
    }

    #[test]
    fn hint_out_of_range_is_wrapped_not_panicking() {
        let g = path4();
        let r = ResidualGraph::new(&g);
        assert!(r.any_active_vertex_from(1_000_000).is_some());
    }
}
