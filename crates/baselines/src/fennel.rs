//! FENNEL vertex streaming (Tsourakakis et al., WSDM 2014).

use crate::stream::{vertex_order, VertexOrder};
use crate::util::least_loaded;
use crate::vertex_to_edge::{derive_edge_partition, VertexPartition};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError, PartitionId};
use tlp_graph::GraphView;

/// Objective exponent `γ`, the FENNEL paper's recommended value.
const GAMMA: f64 = 1.5;

/// Capacity slack: partitions hold at most `⌈1.1 · n / p⌉` vertices.
const SLACK: f64 = 1.1;

/// FENNEL streams vertices and places each by the interpolated objective
///
/// ```text
/// argmax_i  |N(v) ∩ P_i| - α * γ / 2 * |P_i|^(γ-1)
/// ```
///
/// with the paper's recommended `γ = 1.5` and `α = √p * m / n^1.5`, under a
/// hard capacity `1.1 * n / p`. The vertex partition is converted to an edge
/// partition with the standard endpoint rule.
///
/// # Example
///
/// ```
/// use tlp_baselines::{FennelPartitioner, VertexOrder};
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(400, 1_600, 2.2, 8);
/// let part = FennelPartitioner::new(VertexOrder::Random(3)).partition(&g, 8)?;
/// assert_eq!(part.num_edges(), 1_600);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FennelPartitioner {
    order: VertexOrder,
}

impl Default for FennelPartitioner {
    fn default() -> Self {
        FennelPartitioner::new(VertexOrder::Random(0))
    }
}

impl FennelPartitioner {
    /// Creates a FENNEL partitioner with `γ = 1.5` and 10% capacity slack.
    pub fn new(order: VertexOrder) -> Self {
        FennelPartitioner { order }
    }

    /// Runs the vertex-streaming phase only.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroPartitions`] for `num_partitions == 0`.
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
        let m = graph.num_edges();
        let p = num_partitions;
        let alpha = if n == 0 {
            0.0
        } else {
            (p as f64).sqrt() * m as f64 / (n as f64).powf(1.5)
        };
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
            let mut best = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for i in 0..p {
                if sizes[i] as f64 >= capacity {
                    continue;
                }
                let penalty = alpha * GAMMA / 2.0 * (sizes[i] as f64).powf(GAMMA - 1.0);
                let score = neighbor_counts[i] as f64 - penalty;
                if score > best_score {
                    best = i;
                    best_score = score;
                }
            }
            let pid = if best == usize::MAX {
                least_loaded(&sizes, 0..p).expect("p >= 1")
            } else {
                best
            };
            assignment[v as usize] = pid as PartitionId;
            sizes[pid] += 1;
        }
        VertexPartition::new(p, assignment)
    }
}

impl EdgePartitioner for FennelPartitioner {
    fn name(&self) -> &str {
        "FENNEL"
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
    use tlp_graph::generators::chung_lu;
    use tlp_graph::GraphBuilder;

    #[test]
    fn rejects_zero_p() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        assert!(FennelPartitioner::default().partition(&g, 0).is_err());
    }

    #[test]
    fn respects_vertex_capacity() {
        let g = chung_lu(200, 600, 2.2, 1);
        let vp = FennelPartitioner::new(VertexOrder::Natural)
            .partition_vertices(&g, 4)
            .unwrap();
        let cap = (1.1f64 * 200.0 / 4.0).ceil() as usize;
        for &c in &vp.vertex_counts() {
            assert!(c <= cap);
        }
    }

    #[test]
    fn beats_random_on_structured_graphs() {
        let g = chung_lu(600, 3000, 2.2, 2);
        let fennel = FennelPartitioner::new(VertexOrder::Random(4))
            .partition(&g, 10)
            .unwrap();
        let rnd = crate::RandomPartitioner::new(4).partition(&g, 10).unwrap();
        let rf_f = PartitionMetrics::compute(&g, &fennel).replication_factor;
        let rf_r = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_f < rf_r, "FENNEL {rf_f} vs Random {rf_r}");
    }

    #[test]
    fn deterministic() {
        let g = chung_lu(150, 450, 2.2, 6);
        let a = FennelPartitioner::default().partition(&g, 3).unwrap();
        let b = FennelPartitioner::default().partition(&g, 3).unwrap();
        assert_eq!(a, b);
    }
}
