//! PowerGraph's greedy streaming edge placement (Gonzalez et al., OSDI 2012).

use crate::stream::EdgeOrder;
use crate::streaming::{place_in_order, GreedyState};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError};
use tlp_graph::GraphView;

/// The greedy heuristic of PowerGraph's "oblivious" edge placement.
///
/// For each arriving edge `(u, v)`, with `A(x)` the set of partitions where
/// `x` already has edges:
///
/// 1. if `A(u) ∩ A(v)` is non-empty, pick its least-loaded member;
/// 2. else if both are non-empty, pick the least-loaded of `A(u) ∪ A(v)`;
/// 3. else if one is non-empty, pick its least-loaded member;
/// 4. else pick the globally least-loaded partition.
///
/// # Example
///
/// ```
/// use tlp_baselines::{EdgeOrder, GreedyPartitioner};
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(300, 1_500, 2.2, 2);
/// let part = GreedyPartitioner::new(EdgeOrder::Random(4)).partition(&g, 6)?;
/// assert_eq!(part.num_edges(), 1_500);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GreedyPartitioner {
    order: EdgeOrder,
}

impl Default for GreedyPartitioner {
    fn default() -> Self {
        GreedyPartitioner::new(EdgeOrder::Random(0))
    }
}

impl GreedyPartitioner {
    /// Creates a greedy partitioner streaming edges in `order`.
    pub fn new(order: EdgeOrder) -> Self {
        GreedyPartitioner { order }
    }
}

impl EdgePartitioner for GreedyPartitioner {
    fn name(&self) -> &str {
        "Greedy"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let mut placer = GreedyState::new(graph.num_vertices(), num_partitions)?;
        let assignment = place_in_order(&mut placer, graph, self.order);
        EdgePartition::new(num_partitions, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::PartitionMetrics;
    use tlp_graph::generators::chung_lu;
    use tlp_graph::GraphBuilder;

    #[test]
    fn reuses_shared_replica_partitions() {
        // Triangle: after two edges, the third must join an existing
        // replica partition rather than opening a new one.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .build();
        let part = GreedyPartitioner::new(EdgeOrder::Natural)
            .partition(&g, 3)
            .unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        // Greedy keeps a triangle within at most two partitions.
        let used = m.edge_counts.iter().filter(|&&c| c > 0).count();
        assert!(used <= 2, "triangle scattered over {used} partitions");
    }

    #[test]
    fn beats_random_on_power_law() {
        let g = chung_lu(800, 4000, 2.1, 6);
        let greedy = GreedyPartitioner::new(EdgeOrder::Random(1))
            .partition(&g, 10)
            .unwrap();
        let rnd = crate::RandomPartitioner::new(1).partition(&g, 10).unwrap();
        let rf_g = PartitionMetrics::compute(&g, &greedy).replication_factor;
        let rf_r = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_g < rf_r, "Greedy {rf_g} vs Random {rf_r}");
    }

    #[test]
    fn loads_stay_reasonably_balanced() {
        let g = chung_lu(500, 2500, 2.2, 8);
        let part = GreedyPartitioner::new(EdgeOrder::Random(2))
            .partition(&g, 5)
            .unwrap();
        let counts = part.edge_counts();
        let max = *counts.iter().max().unwrap();
        let ideal = 2500 / 5;
        assert!(max <= 2 * ideal, "max load {max} vs ideal {ideal}");
    }

    #[test]
    fn deterministic_and_rejects_zero() {
        let g = chung_lu(100, 400, 2.2, 3);
        let a = GreedyPartitioner::default().partition(&g, 4).unwrap();
        let b = GreedyPartitioner::default().partition(&g, 4).unwrap();
        assert_eq!(a, b);
        assert!(GreedyPartitioner::default().partition(&g, 0).is_err());
    }
}
