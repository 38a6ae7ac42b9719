//! Compressed-sparse-row representation of an undirected simple graph.

use crate::{Edge, EdgeId, GraphError, GraphView, VertexId};

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// Every undirected edge is stored once in a canonical edge table (indexed by
/// [`EdgeId`]) and twice in the adjacency array (once per direction), with
/// both directions carrying the same `EdgeId`. This makes `EdgeId`-indexed
/// partition assignments and residual-edge bookkeeping cheap.
///
/// The arrays have the layout of a `.tlpg` v2 file's CSR sections, and
/// every read method is a call into [`CsrGraph::view`], so an owned graph
/// and an arena read from disk answer through the same code.
///
/// Construct via [`crate::GraphBuilder`], [`crate::io`], or a generator in
/// [`crate::generators`].
///
/// # Example
///
/// ```
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
/// let mut neighbors: Vec<_> = g.neighbors(0).to_vec();
/// neighbors.sort_unstable();
/// assert_eq!(neighbors, vec![1, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the adjacency range of vertex `v`.
    offsets: Vec<u64>,
    /// Neighbor endpoint for each directed arc.
    adj_vertex: Vec<VertexId>,
    /// Undirected edge id for each directed arc (parallel to `adj_vertex`).
    adj_edge: Vec<EdgeId>,
    /// Canonical `(u, v)` endpoint pairs, `u < v`, indexed by `EdgeId`.
    edges: Vec<[VertexId; 2]>,
}

impl CsrGraph {
    /// Builds a CSR graph from a deduplicated, loop-free canonical edge list.
    ///
    /// This is the low-level constructor used by [`crate::GraphBuilder`];
    /// `edges` must already be simple (no duplicates, no self-loops), and
    /// every endpoint must be `< num_vertices`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a self-loop is present.
    /// Duplicate detection is the builder's job and is only debug-asserted
    /// here.
    pub(crate) fn from_canonical_edges(num_vertices: usize, edges: Vec<Edge>) -> Self {
        let mut degrees = vec![0usize; num_vertices];
        for e in &edges {
            assert!(
                (e.target() as usize) < num_vertices,
                "edge {e:?} endpoint out of range (num_vertices = {num_vertices})"
            );
            assert!(!e.is_self_loop(), "self-loop {e:?} passed to CsrGraph");
            degrees[e.source() as usize] += 1;
            degrees[e.target() as usize] += 1;
        }

        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0u64);
        let mut acc = 0usize;
        for &d in &degrees {
            acc += d;
            offsets.push(acc as u64);
        }

        let mut cursor: Vec<usize> = offsets.iter().map(|&o| o as usize).collect();
        let mut adj_vertex = vec![0 as VertexId; acc];
        let mut adj_edge = vec![0 as EdgeId; acc];
        for (id, e) in edges.iter().enumerate() {
            let id = id as EdgeId;
            let (u, v) = e.endpoints();
            let cu = &mut cursor[u as usize];
            adj_vertex[*cu] = v;
            adj_edge[*cu] = id;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            adj_vertex[*cv] = u;
            adj_edge[*cv] = id;
            *cv += 1;
        }

        CsrGraph {
            offsets,
            adj_vertex,
            adj_edge,
            // Same size and alignment, so this reuses the allocation.
            edges: edges
                .into_iter()
                .map(|e| [e.source(), e.target()])
                .collect(),
        }
    }

    /// Builds a CSR graph from an edge list that is already in canonical
    /// form: sorted ascending, deduplicated, loop-free, endpoints `< n`.
    ///
    /// This is the zero-copy ingestion path for trusted on-disk formats
    /// (`tlp-store` binary blocks): unlike [`crate::GraphBuilder`] it never
    /// re-sorts, so reconstruction from a canonical dump is `O(n + m)` and
    /// bit-identical to the graph the dump was written from.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] if the list is out of order, contains
    /// a duplicate or self-loop, or mentions an endpoint `>= num_vertices`.
    pub fn from_sorted_canonical_edges(
        num_vertices: usize,
        edges: Vec<Edge>,
    ) -> Result<Self, GraphError> {
        for (i, e) in edges.iter().enumerate() {
            if e.is_self_loop() {
                return Err(GraphError::Invalid(format!("self-loop {e:?} at index {i}")));
            }
            if e.target() as usize >= num_vertices {
                return Err(GraphError::Invalid(format!(
                    "edge {e:?} endpoint out of range (num_vertices = {num_vertices})"
                )));
            }
            if i > 0 && edges[i - 1] >= *e {
                return Err(GraphError::Invalid(format!(
                    "edge list not strictly sorted at index {i}: {:?} then {e:?}",
                    edges[i - 1]
                )));
            }
        }
        Ok(CsrGraph::from_canonical_edges(num_vertices, edges))
    }

    /// A borrowed [`GraphView`] over this graph's CSR arrays.
    ///
    /// Construction is O(1) — the view borrows the existing sections.
    #[inline]
    pub fn view(&self) -> GraphView<'_> {
        GraphView::from_valid_sections(&self.offsets, &self.adj_vertex, &self.adj_edge, &self.edges)
    }

    /// Number of vertices `n = |V|`, including isolated ones.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.view().num_vertices()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.view().num_edges()
    }

    /// Whether the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Degree of vertex `v`. See [`GraphView::degree`].
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.view().degree(v)
    }

    /// The neighbors of `v`, sorted ascending. See [`GraphView::neighbors`].
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.view().neighbors(v)
    }

    /// Iterates over `(neighbor, edge_id)` pairs incident to `v`. See
    /// [`GraphView::incident`].
    #[inline]
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.view().incident(v)
    }

    /// The canonical [`Edge`] for an [`EdgeId`]. See [`GraphView::edge`].
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.view().edge(e)
    }

    /// Iterates over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        self.view().vertices()
    }

    /// Average degree `2m / n`, or `0.0` for a vertex-free graph.
    pub fn average_degree(&self) -> f64 {
        self.view().average_degree()
    }

    /// Whether vertices `a` and `b` are adjacent. See
    /// [`GraphView::has_edge`].
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.view().has_edge(a, b)
    }

    /// The [`EdgeId`] connecting `a` and `b`, if any. See
    /// [`GraphView::edge_id`].
    pub fn edge_id(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        self.view().edge_id(a, b)
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> crate::CsrGraph {
        // 0-1, 1-2, 2-0, 2-3
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "{w} missing backlink to {v}");
            }
        }
    }

    #[test]
    fn incident_edge_ids_match_edge_table() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            for (w, id) in g.incident(v) {
                let e = g.edge(id);
                assert!(e.contains(v) && e.contains(w));
                assert_eq!(e.other(v), w);
            }
        }
    }

    #[test]
    fn each_edge_id_appears_twice_in_adjacency() {
        let g = triangle_plus_tail();
        let mut count = vec![0usize; g.num_edges()];
        for v in g.vertices() {
            for (_, id) in g.incident(v) {
                count[id as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn has_edge_and_edge_id() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        let id = g.edge_id(2, 3).expect("edge 2-3 exists");
        assert_eq!(g.edge(id).endpoints(), (2, 3));
        assert_eq!(g.edge_id(0, 3), None);
    }

    #[test]
    fn average_degree() {
        let g = triangle_plus_tail();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn from_sorted_canonical_edges_round_trips_builder_output() {
        let g = triangle_plus_tail();
        let edges = g.view().edge_iter().collect();
        let rebuilt =
            crate::CsrGraph::from_sorted_canonical_edges(g.num_vertices(), edges).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_sorted_canonical_edges_rejects_bad_input() {
        use crate::Edge;
        let sorted_dup = vec![Edge::new(0, 1), Edge::new(0, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, sorted_dup).is_err());
        let unsorted = vec![Edge::new(1, 2), Edge::new(0, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(3, unsorted).is_err());
        let loop_edge = vec![Edge::new(1, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, loop_edge).is_err());
        let out_of_range = vec![Edge::new(0, 9)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, out_of_range).is_err());
    }

    #[test]
    fn isolated_vertices_are_retained() {
        let g = GraphBuilder::new()
            .reserve_vertices(10)
            .add_edge(0, 1)
            .build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
        assert!(g.neighbors(9).is_empty());
    }
}
