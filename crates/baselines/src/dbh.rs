//! Degree-based hashing (DBH), Xie et al., NIPS 2014.

use crate::stream::EdgeOrder;
use crate::streaming::{place_in_order, DbhState};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError};
use tlp_graph::GraphView;

/// Degree-based hashing: each edge is placed by hashing its *lower-degree*
/// endpoint.
///
/// The intuition for power-law graphs: cutting (replicating) the few
/// high-degree hubs is unavoidable, so DBH deliberately keeps the many
/// low-degree vertices whole — an edge follows its low-degree endpoint, so
/// that endpoint's edges all land in one partition.
///
/// # Example
///
/// ```
/// use tlp_baselines::DbhPartitioner;
/// use tlp_core::{EdgePartitioner, PartitionMetrics};
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(500, 2_500, 2.1, 3);
/// let part = DbhPartitioner::new(0).partition(&g, 8)?;
/// let m = PartitionMetrics::compute(&g, &part);
/// assert!(m.replication_factor >= 1.0);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct DbhPartitioner {
    seed: u64,
}

impl DbhPartitioner {
    /// Creates a DBH partitioner; `seed` perturbs the vertex hash.
    pub fn new(seed: u64) -> Self {
        DbhPartitioner { seed }
    }
}

impl EdgePartitioner for DbhPartitioner {
    fn name(&self) -> &str {
        "DBH"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let degrees: Vec<u32> = graph.vertices().map(|v| graph.degree(v) as u32).collect();
        let mut placer = DbhState::new(degrees, num_partitions, self.seed)?;
        let assignment = place_in_order(&mut placer, graph, EdgeOrder::Natural);
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
    fn low_degree_vertices_are_never_replicated() {
        // In a star, every leaf has degree 1 < center degree, so each edge
        // hashes by its leaf: leaves are whole, only the center replicates.
        let g = GraphBuilder::new()
            .add_edges((1..=20).map(|v| (0, v)))
            .build();
        let part = DbhPartitioner::new(3).partition(&g, 4).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.spanned_vertices, 1); // only the hub
    }

    #[test]
    fn beats_random_on_power_law_graphs() {
        let g = chung_lu(1000, 5000, 2.0, 9);
        let p = 10;
        let dbh = DbhPartitioner::new(1).partition(&g, p).unwrap();
        let rnd = crate::RandomPartitioner::new(1).partition(&g, p).unwrap();
        let rf_dbh = PartitionMetrics::compute(&g, &dbh).replication_factor;
        let rf_rnd = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_dbh < rf_rnd, "DBH {rf_dbh} vs Random {rf_rnd}");
    }

    #[test]
    fn deterministic_and_total() {
        let g = chung_lu(200, 800, 2.2, 4);
        let a = DbhPartitioner::new(7).partition(&g, 5).unwrap();
        let b = DbhPartitioner::new(7).partition(&g, 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.edge_counts().iter().sum::<usize>(), 800);
    }

    #[test]
    fn zero_partitions_rejected() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        assert!(DbhPartitioner::new(0).partition(&g, 0).is_err());
    }
}
