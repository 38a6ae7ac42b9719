//! Partition quality metrics: replication factor, balance, and per-partition
//! modularity.

use crate::{EdgePartition, Modularity, PartitionId};
use serde::{Deserialize, Serialize};
use tlp_graph::{GraphView, VertexId};

/// Quality metrics of a finished edge partition.
///
/// The headline metric is the **replication factor** (Definition 4):
/// `RF = Σ_k |V(P_k)| / |V|`, where `V(P_k)` is the set of vertices incident
/// to at least one edge of `P_k`. The denominator counts vertices incident
/// to at least one edge — identical to `|V|` on the paper's datasets, and
/// the only sensible choice when synthetic graphs carry isolated vertices
/// (which belong to no partition under edge partitioning).
///
/// # Example
///
/// ```
/// use tlp_core::{EdgePartition, PartitionMetrics};
/// use tlp_graph::GraphBuilder;
///
/// // Path 0-1-2 split between two partitions: vertex 1 is spanned.
/// let g = GraphBuilder::new().add_edges([(0, 1), (1, 2)]).build();
/// let part = EdgePartition::new(2, vec![0, 1])?;
/// let m = PartitionMetrics::compute(&g, &part);
/// assert_eq!(m.spanned_vertices, 1);
/// assert!((m.replication_factor - 4.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionMetrics {
    /// Replication factor `RF >= 1` (1 = no vertex is replicated).
    pub replication_factor: f64,
    /// Edges per partition, indexed by partition id.
    pub edge_counts: Vec<usize>,
    /// Distinct vertices per partition, indexed by partition id.
    pub vertex_counts: Vec<usize>,
    /// Load imbalance: `max_k |E(P_k)| / (|E| / p)` (1.0 = perfectly even).
    pub balance: f64,
    /// Final modularity of each partition: `|E(P_k)|` over the number of
    /// edge-endpoint incidences that edges of *other* partitions have inside
    /// `V(P_k)` (the exact form of the quantity in the paper's Claim 1).
    pub modularity: Vec<f64>,
    /// Number of vertices appearing in two or more partitions.
    pub spanned_vertices: usize,
    /// Number of vertices incident to at least one edge (the RF denominator).
    pub covered_vertices: usize,
    /// `Σ_k |V(P_k)|` (the RF numerator).
    pub total_replicas: usize,
}

impl PartitionMetrics {
    /// The canonical replication-factor expression: `total_replicas /
    /// covered_vertices`, with the empty graph defined as `1.0`.
    ///
    /// Every RF reported anywhere in the workspace (live runs, partition
    /// store manifests, streamed recomputation) funnels through this one
    /// function, so all code paths agree bit-for-bit.
    pub fn replication_factor_of(total_replicas: usize, covered_vertices: usize) -> f64 {
        if covered_vertices == 0 {
            1.0
        } else {
            total_replicas as f64 / covered_vertices as f64
        }
    }

    /// The canonical balance expression: `max_edges / (num_edges / p)`,
    /// with the empty graph defined as `1.0`.
    pub fn balance_of(max_edges: usize, num_edges: usize, num_partitions: usize) -> f64 {
        if num_edges == 0 {
            1.0
        } else {
            let ideal = num_edges as f64 / num_partitions as f64;
            max_edges as f64 / ideal
        }
    }

    /// Computes all metrics in one pass over the graph.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not cover exactly the edges of `graph`
    /// (use [`EdgePartition::validate_for`] to check first when in doubt).
    pub fn compute<'a>(graph: impl Into<GraphView<'a>>, partition: &EdgePartition) -> Self {
        let graph = graph.into();
        assert_eq!(
            partition.num_edges(),
            graph.num_edges(),
            "partition does not match graph"
        );
        let p = partition.num_partitions();
        let mut vertex_counts = vec![0usize; p];
        let mut external = vec![0usize; p];
        let mut total_replicas = 0usize;
        let mut covered_vertices = 0usize;
        let mut spanned_vertices = 0usize;
        let mut scratch: Vec<u32> = Vec::new();

        for v in graph.vertices() {
            scratch.clear();
            scratch.extend(graph.incident(v).map(|(_, e)| partition.partition_of(e)));
            if scratch.is_empty() {
                continue;
            }
            scratch.sort_unstable();
            // Every incident edge assigned to q contributes one external
            // incidence to each *other* partition v belongs to: deg(v)
            // minus the run of v's edges in that partition.
            let degree = scratch.len();
            let mut replicas = 0usize;
            for run in scratch.chunk_by(|a, b| a == b) {
                let pid = run[0] as usize;
                vertex_counts[pid] += 1;
                external[pid] += degree - run.len();
                replicas += 1;
            }
            covered_vertices += 1;
            total_replicas += replicas;
            if replicas > 1 {
                spanned_vertices += 1;
            }
        }

        let edge_counts = partition.edge_counts();
        let balance = Self::balance_of(
            edge_counts.iter().copied().max().unwrap_or(0),
            graph.num_edges(),
            p,
        );
        let modularity = edge_counts
            .iter()
            .zip(&external)
            .map(|(&internal, &ext)| Modularity::new(internal, ext).value())
            .collect();
        let replication_factor = Self::replication_factor_of(total_replicas, covered_vertices);

        PartitionMetrics {
            replication_factor,
            edge_counts,
            vertex_counts,
            balance,
            modularity,
            spanned_vertices,
            covered_vertices,
            total_replicas,
        }
    }
}

/// One-pass metrics accumulator for assignments produced by streaming
/// sources, where the graph is never materialized.
///
/// [`observe_assignment`](Self::observe_assignment) records each edge's
/// endpoints and partition, building per-vertex partition membership
/// bitsets, per-vertex incidence counts and per-partition edge counts.
/// [`finish`](Self::finish) then produces a [`PartitionMetrics`]. The
/// external incidences of partition `q` (the denominator of the paper's
/// Claim 1 modularity) follow from the exact identity
/// `external[q] = Σ_{v : q ∈ A(v)} inc(v) − 2 · edges[q]`: each of `v`'s
/// incidences is external to every partition of `A(v)` but its own, and
/// each edge of `q` is one incidence of `q` at both of its endpoints.
///
/// Every accumulation is an integer add, and the final divisions are the
/// canonical expressions ([`PartitionMetrics::replication_factor_of`] and
/// friends), so the result is **bit-identical** to
/// [`PartitionMetrics::compute`] on the materialized `(graph, partition)`
/// pair whenever the arrival order pairs edges with the same assignments.
#[derive(Clone, Debug)]
pub struct StreamedMetrics {
    num_partitions: usize,
    /// Words per vertex in the membership bitset.
    words: usize,
    /// `num_vertices * words` bitset: vertex v belongs to partition q.
    membership: Vec<u64>,
    /// Edge-endpoint incidences of each vertex so far.
    incidences: Vec<u32>,
    edge_counts: Vec<usize>,
}

impl StreamedMetrics {
    /// Creates an accumulator for `num_vertices` vertices and
    /// `num_partitions` partitions. Memory is `O(n * p / 64 + n + p)`.
    pub fn new(num_vertices: usize, num_partitions: usize) -> Self {
        let words = num_partitions.div_ceil(64).max(1);
        StreamedMetrics {
            num_partitions,
            words,
            membership: vec![0u64; num_vertices * words],
            incidences: vec![0u32; num_vertices],
            edge_counts: vec![0usize; num_partitions],
        }
    }

    fn set(&mut self, v: VertexId, q: PartitionId) {
        let base = v as usize * self.words;
        self.membership[base + q as usize / 64] |= 1u64 << (q as usize % 64);
        self.incidences[v as usize] += 1;
    }

    /// Edge `(u, v)` was assigned to partition `q`.
    pub fn observe_assignment(&mut self, u: VertexId, v: VertexId, q: PartitionId) {
        self.edge_counts[q as usize] += 1;
        self.set(u, q);
        self.set(v, q);
    }

    /// Finalizes the metrics after every assignment was observed.
    pub fn finish(self) -> PartitionMetrics {
        let p = self.num_partitions;
        let mut vertex_counts = vec![0usize; p];
        let mut member_incidences = vec![0usize; p];
        let mut total_replicas = 0usize;
        let mut covered_vertices = 0usize;
        let mut spanned_vertices = 0usize;
        for (vertex, &incidences) in self
            .membership
            .chunks_exact(self.words)
            .zip(&self.incidences)
        {
            let mut replicas = 0usize;
            for (word_idx, &word) in vertex.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let pid = word_idx * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    vertex_counts[pid] += 1;
                    member_incidences[pid] += incidences as usize;
                    replicas += 1;
                }
            }
            if replicas > 0 {
                covered_vertices += 1;
                total_replicas += replicas;
                if replicas > 1 {
                    spanned_vertices += 1;
                }
            }
        }
        let num_edges: usize = self.edge_counts.iter().sum();
        let balance = PartitionMetrics::balance_of(
            self.edge_counts.iter().copied().max().unwrap_or(0),
            num_edges,
            p,
        );
        let modularity = self
            .edge_counts
            .iter()
            .zip(&member_incidences)
            .map(|(&internal, &member)| Modularity::new(internal, member - 2 * internal).value())
            .collect();
        PartitionMetrics {
            replication_factor: PartitionMetrics::replication_factor_of(
                total_replicas,
                covered_vertices,
            ),
            edge_counts: self.edge_counts,
            vertex_counts,
            balance,
            modularity,
            spanned_vertices,
            covered_vertices,
            total_replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgePartition;
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn triangle_pair() -> CsrGraph {
        // Two triangles sharing vertex 2.
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
            .build()
    }

    #[test]
    fn perfect_split_replicates_only_the_cut_vertex() {
        let g = triangle_pair();
        // Edges (0,1),(0,2),(1,2) -> 0; (2,3),(2,4),(3,4) -> 1.
        // Edge ids are sorted canonical: (0,1),(0,2),(1,2),(2,3),(2,4),(3,4).
        let part = EdgePartition::new(2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.spanned_vertices, 1); // vertex 2
        assert_eq!(m.vertex_counts, vec![3, 3]);
        assert_eq!(m.total_replicas, 6);
        assert_eq!(m.covered_vertices, 5);
        assert!((m.replication_factor - 6.0 / 5.0).abs() < 1e-12);
        assert_eq!(m.edge_counts, vec![3, 3]);
        assert!((m.balance - 1.0).abs() < 1e-12);
        // Each side: 3 internal edges; external incidences = the 2 edges of
        // the other triangle touching shared vertex 2 -> modularity 3/2.
        assert_eq!(m.modularity, vec![1.5, 1.5]);
    }

    #[test]
    fn single_partition_has_rf_one_and_infinite_modularity() {
        let g = triangle_pair();
        let part = EdgePartition::new(1, vec![0; 6]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.replication_factor, 1.0);
        assert_eq!(m.spanned_vertices, 0);
        assert!(m.modularity[0].is_infinite());
    }

    #[test]
    fn worst_case_scatter_maximizes_rf() {
        // A star where every edge goes to a different partition: the center
        // appears in all p partitions.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3)])
            .build();
        let part = EdgePartition::new(3, vec![0, 1, 2]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.spanned_vertices, 1);
        // center: 3 replicas; leaves: 1 each -> (3 + 3) / 4.
        assert!((m.replication_factor - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertices_do_not_deflate_rf() {
        let g = GraphBuilder::new()
            .reserve_vertices(100)
            .add_edges([(0, 1), (1, 2)])
            .build();
        let part = EdgePartition::new(2, vec![0, 1]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.covered_vertices, 3);
        assert!((m.replication_factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_partition_slots_have_zero_counts() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        let part = EdgePartition::new(3, vec![1]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.edge_counts, vec![0, 1, 0]);
        assert_eq!(m.vertex_counts, vec![0, 2, 0]);
        assert_eq!(m.modularity[0], 0.0);
    }

    #[test]
    fn streamed_accumulator_is_bit_identical_to_compute() {
        let g = triangle_pair();
        for assignment in [
            vec![0u32, 0, 0, 1, 1, 1],
            vec![0, 1, 2, 0, 1, 2],
            vec![2, 2, 2, 2, 2, 2],
        ] {
            let part = EdgePartition::new(3, assignment.clone()).unwrap();
            let reference = PartitionMetrics::compute(&g, &part);
            let mut acc = StreamedMetrics::new(g.num_vertices(), 3);
            for (eid, edge) in g.edges().iter().enumerate() {
                let (u, v) = edge.endpoints();
                acc.observe_assignment(u, v, assignment[eid]);
            }
            assert_eq!(acc.finish(), reference);
        }
    }

    #[test]
    fn degree_sum_identity_holds() {
        // Exact bookkeeping check: sum over partitions of
        // 2 * internal + external == sum over vertices of |S_v| * deg(v).
        let g = triangle_pair();
        let part = EdgePartition::new(2, vec![0, 1, 0, 1, 0, 1]).unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        let lhs: usize = m
            .edge_counts
            .iter()
            .zip(m.modularity.iter())
            .map(|(&internal, &mod_k)| {
                // Reconstruct the external count from modularity = in/ext.
                let external = if mod_k.is_infinite() || internal == 0 {
                    0
                } else {
                    (internal as f64 / mod_k).round() as usize
                };
                2 * internal + external
            })
            .sum();
        let mut rhs = 0usize;
        for v in g.vertices() {
            let mut pids: Vec<u32> = g.incident(v).map(|(_, e)| part.partition_of(e)).collect();
            pids.sort_unstable();
            pids.dedup();
            rhs += pids.len() * g.degree(v);
        }
        // When some external counts were reconstructed from floats the check
        // is still exact because the counts are small integers.
        assert_eq!(lhs, rhs);
    }
}
