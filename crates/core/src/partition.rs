//! The output type of every edge partitioner: an `EdgeId -> partition` map.

use crate::PartitionError;
use serde::{Deserialize, Serialize};
use tlp_graph::EdgeId;

/// Identifier of a partition, dense in `0..p`.
pub type PartitionId = u32;

/// A balanced `p`-edge partition (Definition 3 of the paper): every edge of
/// the graph is assigned to exactly one of `p` partitions.
///
/// The assignment is stored as a flat vector indexed by [`EdgeId`], matching
/// the dense edge ids of [`tlp_graph::CsrGraph`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgePartition {
    num_partitions: usize,
    assignment: Vec<PartitionId>,
}

impl EdgePartition {
    /// Wraps a complete assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroPartitions`] if `num_partitions == 0`
    /// and [`PartitionError::InvalidAssignment`] if any entry is `>=
    /// num_partitions`.
    ///
    /// # Example
    ///
    /// ```
    /// use tlp_core::EdgePartition;
    ///
    /// let part = EdgePartition::new(2, vec![0, 1, 0])?;
    /// assert_eq!(part.partition_of(1), 1);
    /// assert_eq!(part.edge_counts(), vec![2, 1]);
    /// # Ok::<(), tlp_core::PartitionError>(())
    /// ```
    pub fn new(
        num_partitions: usize,
        assignment: Vec<PartitionId>,
    ) -> Result<Self, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        if let Some((e, &pid)) = assignment
            .iter()
            .enumerate()
            .find(|(_, &pid)| pid as usize >= num_partitions)
        {
            return Err(PartitionError::InvalidAssignment(format!(
                "edge {e} assigned to partition {pid}, but only {num_partitions} partitions exist"
            )));
        }
        Ok(EdgePartition {
            num_partitions,
            assignment,
        })
    }

    /// Number of partitions `p`.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of assigned edges (the graph's `m`).
    pub fn num_edges(&self) -> usize {
        self.assignment.len()
    }

    /// Partition of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn partition_of(&self, e: EdgeId) -> PartitionId {
        self.assignment[e as usize]
    }

    /// The raw assignment vector, indexed by [`EdgeId`].
    pub fn assignments(&self) -> &[PartitionId] {
        &self.assignment
    }

    /// Edge count of every partition, indexed by [`PartitionId`].
    pub fn edge_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for &pid in &self.assignment {
            counts[pid as usize] += 1;
        }
        counts
    }

    /// Checks the partition covers exactly the edges of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidAssignment`] if the edge counts
    /// disagree.
    pub fn validate_for<'a>(
        &self,
        graph: impl Into<tlp_graph::GraphView<'a>>,
    ) -> Result<(), PartitionError> {
        let graph = graph.into();
        if self.assignment.len() != graph.num_edges() {
            return Err(PartitionError::InvalidAssignment(format!(
                "partition covers {} edges but graph has {}",
                self.assignment.len(),
                graph.num_edges()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::GraphBuilder;

    #[test]
    fn valid_partition_roundtrip() {
        let p = EdgePartition::new(3, vec![0, 2, 1, 0]).unwrap();
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.partition_of(2), 1);
        assert_eq!(p.edge_counts(), vec![2, 1, 1]);
        assert_eq!(p.assignments(), &[0, 2, 1, 0]);
    }

    #[test]
    fn zero_partitions_rejected() {
        assert_eq!(
            EdgePartition::new(0, vec![]).unwrap_err(),
            PartitionError::ZeroPartitions
        );
    }

    #[test]
    fn out_of_range_assignment_rejected() {
        let err = EdgePartition::new(2, vec![0, 2]).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidAssignment(_)));
    }

    #[test]
    fn empty_partitions_are_allowed() {
        let p = EdgePartition::new(4, vec![0, 0]).unwrap();
        assert_eq!(p.edge_counts(), vec![2, 0, 0, 0]);
    }

    #[test]
    fn validate_against_graph() {
        let g = GraphBuilder::new().add_edges([(0, 1), (1, 2)]).build();
        let good = EdgePartition::new(2, vec![0, 1]).unwrap();
        assert!(good.validate_for(&g).is_ok());
        let bad = EdgePartition::new(2, vec![0]).unwrap();
        assert!(bad.validate_for(&g).is_err());
    }
}
