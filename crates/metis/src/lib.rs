//! A METIS-style multilevel k-way graph partitioner, built from scratch.
//!
//! The paper compares TLP against METIS (Karypis & Kumar, SISC 1998). METIS
//! itself is a C library; this crate reimplements its published scheme in
//! safe Rust so the comparison can run hermetically:
//!
//! 1. **Coarsening** — repeated heavy-edge matching and contraction
//!    ([`matching`], [`coarsen`]) until the graph is small;
//! 2. **Initial partitioning** — greedy graph growing on the coarsest graph
//!    ([`initial`]), best of several seeded tries;
//! 3. **Uncoarsening** — projection back through the levels with
//!    Fiduccia–Mattheyses boundary refinement at each level ([`refine`]);
//! 4. **k-way** — recursive bisection with weight-proportional side targets
//!    ([`kway`]).
//!
//! Like METIS in the paper's pipeline, the result is a *vertex* partition;
//! [`MetisPartitioner`] converts it to an edge partition with the same
//! endpoint rule used for LDG/FENNEL (`tlp_baselines::derive_edge_partition`)
//! so the RF comparison is apples-to-apples.
//!
//! # Example
//!
//! ```
//! use tlp_core::{EdgePartitioner, PartitionMetrics};
//! use tlp_graph::generators::chung_lu;
//! use tlp_metis::MetisPartitioner;
//!
//! let graph = chung_lu(400, 1_600, 2.2, 11);
//! let metis = MetisPartitioner::default();
//! let partition = metis.partition(&graph, 8)?;
//! let rf = PartitionMetrics::compute(&graph, &partition).replication_factor;
//! assert!(rf >= 1.0);
//! # Ok::<(), tlp_core::PartitionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;
pub mod initial;
pub mod kway;
pub mod matching;
pub mod refine;
mod wgraph;

pub use wgraph::WeightedGraph;

use tlp_baselines::{derive_edge_partition, VertexPartition};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError};
use tlp_graph::GraphView;

/// Tuning knobs of the multilevel scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetisConfig {
    /// RNG seed for matching order and initial-partition tries.
    pub seed: u64,
    /// Stop coarsening when at most this many vertices remain.
    pub coarsen_target: usize,
    /// Allowed imbalance of a bisection side versus its target weight
    /// (METIS's default load imbalance is ~3%).
    pub epsilon: f64,
    /// Number of seeded greedy-graph-growing attempts for the initial
    /// bisection; the best cut wins.
    pub initial_tries: usize,
    /// Maximum FM refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MetisConfig {
    fn default() -> Self {
        MetisConfig {
            seed: 0,
            coarsen_target: 160,
            epsilon: 0.03,
            initial_tries: 4,
            refine_passes: 8,
        }
    }
}

/// The multilevel k-way partitioner, exposed as an [`EdgePartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetisPartitioner {
    config: MetisConfig,
}

impl MetisPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: MetisConfig) -> Self {
        MetisPartitioner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MetisConfig {
        &self.config
    }

    /// Runs the multilevel scheme and returns the *vertex* partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::ZeroPartitions`] when `num_partitions == 0`.
    pub fn partition_vertices<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
        num_partitions: usize,
    ) -> Result<VertexPartition, PartitionError> {
        let graph = graph.into();
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        let wg = WeightedGraph::from_csr(graph);
        let assignment = kway::recursive_bisection(&wg, num_partitions, &self.config);
        VertexPartition::new(num_partitions, assignment)
    }
}

impl EdgePartitioner for MetisPartitioner {
    fn name(&self) -> &str {
        "METIS"
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
    fn rejects_zero_partitions() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        assert!(MetisPartitioner::default().partition(&g, 0).is_err());
    }

    #[test]
    fn covers_all_edges() {
        let g = chung_lu(500, 2000, 2.2, 7);
        let part = MetisPartitioner::default().partition(&g, 8).unwrap();
        assert_eq!(part.edge_counts().iter().sum::<usize>(), 2000);
    }

    #[test]
    fn splits_two_cliques_perfectly() {
        let mut b = GraphBuilder::new();
        for a in 0..8u32 {
            for c in (a + 1)..8 {
                b.push_edge(a, c);
                b.push_edge(a + 8, c + 8);
            }
        }
        b.push_edge(0, 8);
        let g = b.build();
        let vp = MetisPartitioner::default()
            .partition_vertices(&g, 2)
            .unwrap();
        assert_eq!(vp.edge_cut(&g), 1, "only the bridge should be cut");
    }

    #[test]
    fn vertex_partition_is_balanced() {
        let g = erdos_renyi(600, 2400, 5);
        let vp = MetisPartitioner::default()
            .partition_vertices(&g, 4)
            .unwrap();
        let counts = vp.vertex_counts();
        let max = *counts.iter().max().unwrap();
        assert!(max <= 600 / 4 + 600 / 10, "imbalanced: {counts:?}");
    }

    #[test]
    fn beats_random_clearly() {
        let g = chung_lu(800, 4000, 2.2, 13);
        let metis = MetisPartitioner::default().partition(&g, 10).unwrap();
        let rnd = tlp_baselines::StreamingPartitioner {
            kind: tlp_baselines::StreamingKind::Random,
            order: tlp_baselines::EdgeOrder::Natural,
            seed: 0,
        }
        .partition(&g, 10)
        .unwrap();
        let rf_m = PartitionMetrics::compute(&g, &metis).replication_factor;
        let rf_r = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_m < rf_r, "METIS {rf_m} vs Random {rf_r}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = chung_lu(300, 1200, 2.2, 3);
        let a = MetisPartitioner::default().partition(&g, 4).unwrap();
        let b = MetisPartitioner::default().partition(&g, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn handles_non_power_of_two_k() {
        let g = erdos_renyi(300, 1200, 9);
        for p in [3, 5, 7, 10, 15, 20] {
            let vp = MetisPartitioner::default()
                .partition_vertices(&g, p)
                .unwrap();
            let counts = vp.vertex_counts();
            assert_eq!(counts.iter().sum::<usize>(), 300);
            assert_eq!(counts.len(), p);
            assert!(
                counts.iter().all(|&c| c > 0),
                "empty side for p={p}: {counts:?}"
            );
        }
    }
}
