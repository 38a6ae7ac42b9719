//! Borrowed-slice CSR view shared by every read path in the workspace.
//!
//! [`GraphView`] is the read API of [`CsrGraph`]: four borrowed slices
//! (vertex offsets, neighbor ids, arc edge ids, and the canonical edge
//! table as `(u, v)` endpoint pairs). It is `Copy`, so hot loops pass it by
//! value, and it does not care who owns the backing memory — an owned
//! [`CsrGraph`], a `.tlpg` v2 arena read straight from disk by `tlp-store`,
//! or anything else that can produce correctly shaped slices. Every
//! accessor is implemented here once; [`CsrGraph`]'s read methods call
//! into its view.
//!
//! # Ownership contract
//!
//! A `GraphView` never owns or copies graph memory. Whoever produces the
//! view (a `CsrGraph`, a store arena, …) must keep the backing buffers alive
//! and immutable for the view's lifetime; the borrow checker enforces this,
//! which is why serving and parallel trials can share one immutable arena
//! instead of cloning per consumer. Two views are equal when all four
//! sections are equal, whoever owns them.

use crate::{CsrGraph, Edge, EdgeId, GraphError, VertexId};

/// An immutable borrowed CSR graph: the read API of [`CsrGraph`] over
/// memory owned by someone else.
///
/// Obtain one from [`CsrGraph::view`] (or `&CsrGraph` via `From`/`Into`),
/// or from a `tlp-store` v2 arena. See the module docs for the ownership
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphView<'a> {
    /// `offsets[v]..offsets[v+1]` is the adjacency range of vertex `v`.
    offsets: &'a [u64],
    /// Neighbor endpoint for each directed arc, sorted ascending per vertex.
    adj_vertex: &'a [VertexId],
    /// Undirected edge id for each directed arc (parallel to `adj_vertex`).
    adj_edge: &'a [EdgeId],
    /// Canonical `(u, v)` endpoint pairs, `u <= v`, indexed by `EdgeId`:
    /// the layout of the `.tlpg` `EDGE` section.
    edges: &'a [[VertexId; 2]],
}

impl<'a> GraphView<'a> {
    /// Assembles a view from raw CSR sections, validating their structure.
    ///
    /// Checks everything needed to make the accessor methods panic-free for
    /// in-range vertex ids: a non-empty, zero-led, monotonically
    /// non-decreasing offsets array whose final entry equals the adjacency
    /// length, parallel adjacency arrays, and an edge table of exactly half
    /// the adjacency length. It deliberately does **not** re-verify
    /// adjacency *contents* (neighbor sortedness, edge-id cross-links) —
    /// that is `O(m)` and is the producer's job (`CsrGraph` construction or
    /// a store checksum).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] describing the first violated shape
    /// constraint.
    pub fn from_sections(
        offsets: &'a [u64],
        adj_vertex: &'a [VertexId],
        adj_edge: &'a [EdgeId],
        edges: &'a [[VertexId; 2]],
    ) -> Result<Self, GraphError> {
        let arcs = adj_vertex.len();
        if offsets.is_empty() {
            return Err(GraphError::Invalid("offsets array is empty".into()));
        }
        if offsets[0] != 0 {
            return Err(GraphError::Invalid(format!(
                "offsets[0] = {}, expected 0",
                offsets[0]
            )));
        }
        if let Some(w) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::Invalid(format!(
                "offsets decrease at index {w}: {} then {}",
                offsets[w],
                offsets[w + 1]
            )));
        }
        let last = *offsets.last().expect("non-empty") as usize;
        if last != arcs {
            return Err(GraphError::Invalid(format!(
                "offsets end at {last} but adjacency has {arcs} arcs"
            )));
        }
        if adj_edge.len() != arcs {
            return Err(GraphError::Invalid(format!(
                "adjacency arrays disagree: {arcs} neighbor ids vs {} edge ids",
                adj_edge.len()
            )));
        }
        if edges.len() * 2 != arcs {
            return Err(GraphError::Invalid(format!(
                "edge table has {} edges but adjacency has {arcs} arcs (expected 2m)",
                edges.len()
            )));
        }
        Ok(Self::from_valid_sections(
            offsets, adj_vertex, adj_edge, edges,
        ))
    }

    /// Assembles a view from sections already validated by the producer
    /// (e.g. checksum-verified `.tlpg` v2 sections whose shape was checked
    /// once at open).
    ///
    /// Skipping re-validation keeps repeated view construction O(1); the
    /// shape constraints are still debug-asserted. Passing sections that
    /// violate them never breaks memory safety — Rust bounds checks still
    /// apply — but accessors may panic or return nonsense.
    pub fn from_sections_trusted(
        offsets: &'a [u64],
        adj_vertex: &'a [VertexId],
        adj_edge: &'a [EdgeId],
        edges: &'a [[VertexId; 2]],
    ) -> Self {
        debug_assert!(
            Self::from_sections(offsets, adj_vertex, adj_edge, edges).is_ok(),
            "trusted sections fail structural validation"
        );
        Self::from_valid_sections(offsets, adj_vertex, adj_edge, edges)
    }

    /// Assembles a view with no check at all, not even in debug builds:
    /// for [`CsrGraph::view`], whose arrays are valid by construction and
    /// which every `CsrGraph` accessor calls.
    #[inline]
    pub(crate) fn from_valid_sections(
        offsets: &'a [u64],
        adj_vertex: &'a [VertexId],
        adj_edge: &'a [EdgeId],
        edges: &'a [[VertexId; 2]],
    ) -> Self {
        GraphView {
            offsets,
            adj_vertex,
            adj_edge,
            edges,
        }
    }

    /// Number of vertices `n = |V|`, including isolated ones.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The neighbors of `v` as a slice (one entry per incident edge),
    /// sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        let v = v as usize;
        &self.adj_vertex[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over `(neighbor, edge_id)` pairs incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    #[inline]
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + 'a {
        let v = v as usize;
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        self.adj_vertex[range.clone()]
            .iter()
            .copied()
            .zip(self.adj_edge[range].iter().copied())
    }

    /// The canonical [`Edge`] for an [`EdgeId`].
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_edges`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        let [u, v] = self.edges[e as usize];
        Edge::new(u, v)
    }

    /// Iterates all canonical edges in [`EdgeId`] order.
    pub fn edge_iter(&self) -> impl Iterator<Item = Edge> + 'a {
        self.edges.iter().map(|&[u, v]| Edge::new(u, v))
    }

    /// Iterates over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Average degree `2m / n`, or `0.0` for a vertex-free graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether vertices `a` and `b` are adjacent.
    ///
    /// Binary-searches the sorted neighbor slice of the lower-degree
    /// endpoint, so the cost is `O(log min_degree)`.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_id(a, b).is_some()
    }

    /// Looks up the [`EdgeId`] connecting `a` and `b`, if any, in
    /// `O(log min_degree)`.
    pub fn edge_id(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        let (probe, other) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let base = self.offsets[probe as usize] as usize;
        self.neighbors(probe)
            .binary_search(&other)
            .ok()
            .map(|pos| self.adj_edge[base + pos])
    }

    /// The raw vertex-offset section (`n + 1` entries).
    pub fn offsets(&self) -> &'a [u64] {
        self.offsets
    }

    /// The raw neighbor-id section (`2m` entries).
    pub fn adj_vertex(&self) -> &'a [VertexId] {
        self.adj_vertex
    }

    /// The raw arc-edge-id section (`2m` entries, parallel to
    /// [`GraphView::adj_vertex`]).
    pub fn adj_edge(&self) -> &'a [EdgeId] {
        self.adj_edge
    }
}

impl<'a> From<&'a CsrGraph> for GraphView<'a> {
    fn from(graph: &'a CsrGraph) -> Self {
        graph.view()
    }
}

impl<'a> From<&GraphView<'a>> for GraphView<'a> {
    fn from(view: &GraphView<'a>) -> Self {
        *view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .build()
    }

    fn pairs(v: GraphView<'_>) -> Vec<[VertexId; 2]> {
        v.edge_iter().map(|e| [e.source(), e.target()]).collect()
    }

    #[test]
    fn view_mirrors_graph() {
        let g = sample();
        let v = g.view();
        assert_eq!(v.num_vertices(), g.num_vertices());
        assert_eq!(v.num_edges(), g.num_edges());
        assert!((v.average_degree() - g.average_degree()).abs() < 1e-12);
        for x in g.vertices() {
            assert_eq!(v.degree(x), g.degree(x));
            assert_eq!(v.neighbors(x), g.neighbors(x));
            assert_eq!(
                v.incident(x).collect::<Vec<_>>(),
                g.incident(x).collect::<Vec<_>>()
            );
        }
        let edges: Vec<Edge> = (0..g.num_edges() as u32).map(|e| g.edge(e)).collect();
        assert_eq!(v.edge_iter().collect::<Vec<_>>(), edges);
    }

    #[test]
    fn views_over_copied_sections_are_equal() {
        let g = sample();
        let v = g.view();
        let (offsets, adj_vertex, adj_edge) = (
            v.offsets().to_vec(),
            v.adj_vertex().to_vec(),
            v.adj_edge().to_vec(),
        );
        let edges = pairs(v);
        let copy = GraphView::from_sections(&offsets, &adj_vertex, &adj_edge, &edges).unwrap();
        assert_eq!(copy, v);
        let mut swapped = adj_edge.clone();
        swapped.swap(0, 1);
        let other = GraphView::from_sections(&offsets, &adj_vertex, &swapped, &edges).unwrap();
        assert_ne!(other, v, "equality reads every section");
    }

    #[test]
    fn has_edge_and_edge_id_agree_with_graph() {
        let g = sample();
        let v = g.view();
        for a in g.vertices() {
            for b in g.vertices() {
                assert_eq!(v.has_edge(a, b), g.has_edge(a, b));
                assert_eq!(v.edge_id(a, b), g.edge_id(a, b));
            }
        }
    }

    #[test]
    fn from_sections_rejects_malformed_shapes() {
        let g = sample();
        let v = g.view();
        let edges = pairs(v);
        let (adj_vertex, adj_edge) = (v.adj_vertex(), v.adj_edge());
        let empty: &[u64] = &[];
        assert!(GraphView::from_sections(empty, adj_vertex, adj_edge, &edges).is_err());
        let bad_lead = [1u64, adj_vertex.len() as u64];
        assert!(GraphView::from_sections(&bad_lead, adj_vertex, adj_edge, &edges).is_err());
        let decreasing = [0u64, 5, 3, adj_vertex.len() as u64];
        assert!(GraphView::from_sections(&decreasing, adj_vertex, adj_edge, &edges).is_err());
        let short_end = {
            let mut o = v.offsets().to_vec();
            *o.last_mut().unwrap() -= 1;
            o
        };
        // Last offset disagreeing with the adjacency length must be caught
        // even though the array is still monotone.
        assert!(GraphView::from_sections(&short_end, adj_vertex, adj_edge, &edges).is_err());
        let truncated_ids = &adj_edge[..adj_edge.len() - 1];
        assert!(GraphView::from_sections(v.offsets(), adj_vertex, truncated_ids, &edges).is_err());
        let wrong_m = &edges[..g.num_edges() - 1];
        assert!(GraphView::from_sections(v.offsets(), adj_vertex, adj_edge, wrong_m).is_err());
    }

    #[test]
    fn empty_graph_view() {
        let g = GraphBuilder::new().build();
        let v = g.view();
        assert_eq!(v.num_vertices(), 0);
        assert_eq!(v.num_edges(), 0);
        assert!(v.is_empty());
        assert_eq!(v.average_degree(), 0.0);
        assert_eq!(v.vertices().count(), 0);
    }
}
