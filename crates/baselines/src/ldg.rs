//! Linear deterministic greedy (LDG) vertex streaming, Stanton & Kliot,
//! KDD 2012.

use crate::stream::{vertex_order, VertexOrder};
use crate::util::least_loaded;
use crate::vertex_to_edge::{derive_edge_partition, VertexPartition};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError, PartitionId};
use tlp_graph::GraphView;

/// Capacity slack: partitions hold at most `⌈1.1 · n / p⌉` vertices.
const SLACK: f64 = 1.1;

/// LDG streams vertices and places each into the partition holding most of
/// its already-placed neighbors, damped by a fullness penalty:
///
/// ```text
/// argmax_i  |N(v) ∩ P_i| * (1 - |P_i| / C),    C = 1.1 * n / p
/// ```
///
/// Ties go to the less-loaded partition. The resulting vertex partition is
/// converted to an edge partition with the standard endpoint rule (see
/// [`crate::derive_edge_partition`]).
///
/// # Example
///
/// ```
/// use tlp_baselines::{LdgPartitioner, VertexOrder};
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(400, 1_600, 2.2, 5);
/// let ldg = LdgPartitioner::new(VertexOrder::Random(7));
/// let part = ldg.partition(&g, 8)?;
/// assert_eq!(part.num_edges(), 1_600);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LdgPartitioner {
    order: VertexOrder,
}

impl Default for LdgPartitioner {
    fn default() -> Self {
        LdgPartitioner::new(VertexOrder::Random(0))
    }
}

impl LdgPartitioner {
    /// Creates an LDG partitioner with the standard 10% capacity slack.
    pub fn new(order: VertexOrder) -> Self {
        LdgPartitioner { order }
    }

    /// Runs the vertex-streaming phase only.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroPartitions`] if `num_partitions == 0`.
    pub fn partition_vertices<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
        num_partitions: usize,
    ) -> Result<VertexPartition, PartitionError> {
        let graph = graph.into();
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        let n = graph.num_vertices();
        let p = num_partitions;
        let capacity = (SLACK * n as f64 / p as f64).ceil().max(1.0);
        let mut assignment: Vec<PartitionId> = vec![PartitionId::MAX; n];
        let mut sizes = vec![0usize; p];
        let mut neighbor_counts = vec![0usize; p];

        for v in vertex_order(graph, self.order) {
            neighbor_counts.fill(0);
            for &w in graph.neighbors(v) {
                let pid = assignment[w as usize];
                if pid != PartitionId::MAX {
                    neighbor_counts[pid as usize] += 1;
                }
            }
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for i in 0..p {
                if sizes[i] as f64 >= capacity {
                    continue;
                }
                let score = neighbor_counts[i] as f64 * (1.0 - sizes[i] as f64 / capacity);
                if score > best_score
                    || (score == best_score && (sizes[i], i) < (sizes[best], best))
                {
                    best = i;
                    best_score = score;
                }
            }
            if best_score == f64::NEG_INFINITY {
                // All partitions at capacity (possible only via rounding):
                // fall back to least loaded.
                best = least_loaded(&sizes, 0..p).expect("p >= 1");
            }
            assignment[v as usize] = best as PartitionId;
            sizes[best] += 1;
        }
        VertexPartition::new(p, assignment)
    }
}

impl EdgePartitioner for LdgPartitioner {
    fn name(&self) -> &str {
        "LDG"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let vp = self.partition_vertices(graph, num_partitions)?;
        Ok(derive_edge_partition(graph, &vp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::PartitionMetrics;
    use tlp_graph::generators::{chung_lu, erdos_renyi};
    use tlp_graph::GraphBuilder;

    #[test]
    fn vertex_partition_respects_capacity() {
        let g = erdos_renyi(100, 300, 1);
        let ldg = LdgPartitioner::new(VertexOrder::Natural);
        let vp = ldg.partition_vertices(&g, 4).unwrap();
        let cap = (1.1f64 * 100.0 / 4.0).ceil() as usize;
        for &c in &vp.vertex_counts() {
            assert!(c <= cap, "partition of {c} vertices exceeds capacity {cap}");
        }
    }

    #[test]
    fn keeps_communities_together() {
        // Two cliques joined by one edge: LDG should keep each clique whole.
        let mut b = GraphBuilder::new();
        for a in 0..5u32 {
            for c in (a + 1)..5 {
                b.push_edge(a, c);
                b.push_edge(a + 5, c + 5);
            }
        }
        b.push_edge(0, 5);
        let g = b.build();
        let ldg = LdgPartitioner::new(VertexOrder::Bfs);
        let vp = ldg.partition_vertices(&g, 2).unwrap();
        // LDG may pull the bridge endpoint across (capacity permitting),
        // cutting its 4 clique edges; anything near-minimal beats the ~10
        // expected of a random split of this 21-edge graph.
        assert!(vp.edge_cut(&g) <= 5, "cut = {}", vp.edge_cut(&g));
    }

    #[test]
    fn beats_random_on_structured_graphs() {
        let g = chung_lu(600, 3000, 2.2, 7);
        let ldg = LdgPartitioner::new(VertexOrder::Random(3))
            .partition(&g, 10)
            .unwrap();
        let rnd = crate::StreamingPartitioner {
            kind: crate::StreamingKind::Random,
            order: crate::EdgeOrder::Natural,
            seed: 3,
        }
        .partition(&g, 10)
        .unwrap();
        let rf_ldg = PartitionMetrics::compute(&g, &ldg).replication_factor;
        let rf_rnd = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_ldg < rf_rnd, "LDG {rf_ldg} vs Random {rf_rnd}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        assert!(LdgPartitioner::default().partition(&g, 0).is_err());
    }

    #[test]
    fn deterministic_per_order() {
        let g = erdos_renyi(80, 240, 5);
        let a = LdgPartitioner::new(VertexOrder::Random(9))
            .partition(&g, 4)
            .unwrap();
        let b = LdgPartitioner::new(VertexOrder::Random(9))
            .partition(&g, 4)
            .unwrap();
        assert_eq!(a, b);
    }
}
