//! Uniform random edge assignment (the paper's "Random" baseline).

use crate::stream::EdgeOrder;
use crate::streaming::{place_in_order, RandomState};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError};
use tlp_graph::GraphView;

/// Assigns every edge to a uniformly random partition.
///
/// The paper treats Random's replication factor as the quality floor: it is
/// fast and perfectly balanced in expectation but replicates aggressively.
/// Deterministic per seed (a stateless per-edge hash, so the assignment of
/// one edge never depends on the others).
///
/// # Example
///
/// ```
/// use tlp_baselines::RandomPartitioner;
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::erdos_renyi;
///
/// let g = erdos_renyi(50, 200, 1);
/// let part = RandomPartitioner::new(42).partition(&g, 4)?;
/// assert_eq!(part.num_edges(), 200);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomPartitioner {
    seed: u64,
}

impl RandomPartitioner {
    /// Creates a random partitioner with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomPartitioner { seed }
    }
}

impl EdgePartitioner for RandomPartitioner {
    fn name(&self) -> &str {
        "Random"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let mut placer = RandomState::new(num_partitions, self.seed)?;
        let assignment = place_in_order(&mut placer, graph, EdgeOrder::Natural);
        EdgePartition::new(num_partitions, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::generators::erdos_renyi;

    #[test]
    fn covers_all_edges_roughly_evenly() {
        let g = erdos_renyi(100, 2000, 3);
        let part = RandomPartitioner::new(1).partition(&g, 10).unwrap();
        let counts = part.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        // Expect every partition within 3 sigma of 200.
        for &c in &counts {
            assert!((100..=300).contains(&c), "unbalanced count {c}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(40, 100, 2);
        let a = RandomPartitioner::new(5).partition(&g, 3).unwrap();
        let b = RandomPartitioner::new(5).partition(&g, 3).unwrap();
        let c = RandomPartitioner::new(6).partition(&g, 3).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_partitions_rejected() {
        let g = erdos_renyi(10, 20, 1);
        assert!(RandomPartitioner::new(0).partition(&g, 0).is_err());
    }
}
