//! Breadth-first traversal and connected components.
//!
//! The paper notes (§III-E) that local partitioning visits the graph in BFS
//! order as each partition expands; these helpers are also used by tests and
//! by generators to validate connectivity properties.

use crate::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// BFS distances from `start`; unreachable vertices get `None`.
///
/// # Panics
///
/// Panics if `start >= graph.num_vertices()`.
pub fn bfs_distances(graph: &CsrGraph, start: VertexId) -> Vec<Option<u32>> {
    assert!(
        (start as usize) < graph.num_vertices(),
        "start out of range"
    );
    let mut dist: Vec<Option<u32>> = vec![None; graph.num_vertices()];
    let mut queue = VecDeque::new();
    dist[start as usize] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize].expect("queued vertices have distances");
        for &w in graph.neighbors(v) {
            if dist[w as usize].is_none() {
                dist[w as usize] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// A decomposition of a graph into connected components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectedComponents {
    /// `component[v]` is the component index of vertex `v`.
    component: Vec<u32>,
    /// Number of vertices in each component.
    sizes: Vec<usize>,
}

impl ConnectedComponents {
    /// Computes connected components with repeated BFS.
    pub fn find(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut component = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut queue = VecDeque::new();
        for s in graph.vertices() {
            if component[s as usize] != u32::MAX {
                continue;
            }
            let id = sizes.len() as u32;
            sizes.push(0);
            component[s as usize] = id;
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                sizes[id as usize] += 1;
                for &w in graph.neighbors(v) {
                    if component[w as usize] == u32::MAX {
                        component[w as usize] = id;
                        queue.push_back(w);
                    }
                }
            }
        }
        ConnectedComponents { component, sizes }
    }

    /// Number of connected components (0 for the empty graph).
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Component index of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: VertexId) -> u32 {
        self.component[v as usize]
    }

    /// Whether `a` and `b` are in the same component.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn same_component(&self, a: VertexId, b: VertexId) -> bool {
        self.component_of(a) == self.component_of(b)
    }

    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_components() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (3, 4)])
            .build()
    }

    #[test]
    fn bfs_distances_layer_by_layer() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn unreachable_vertices_have_no_distance() {
        let g = two_components();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[3], None);
        assert_eq!(d[4], None);
    }

    #[test]
    fn components_are_found() {
        let g = two_components();
        let cc = ConnectedComponents::find(&g);
        assert_eq!(cc.count(), 2);
        assert!(cc.same_component(0, 2));
        assert!(!cc.same_component(0, 3));
        let mut sizes = cc.sizes().to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        assert_eq!(cc.largest(), 3);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = GraphBuilder::new()
            .reserve_vertices(3)
            .add_edge(0, 1)
            .build();
        let cc = ConnectedComponents::find(&g);
        assert_eq!(cc.count(), 2);
        assert_eq!(cc.largest(), 2);
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = GraphBuilder::new().build();
        let cc = ConnectedComponents::find(&g);
        assert_eq!(cc.count(), 0);
        assert_eq!(cc.largest(), 0);
    }
}
