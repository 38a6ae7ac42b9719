//! Cluster assembly: what each machine holds under an edge partition.

use tlp_core::EdgePartition;
use tlp_graph::{CsrGraph, EdgeId, VertexId};

/// Identifier of a simulated machine (same space as partition ids).
pub type MachineId = u32;

/// The materialized cluster state for one `(graph, partition)` pair.
///
/// Mirrors PowerGraph's data placement:
///
/// * each machine stores the edges assigned to it;
/// * every vertex incident to a machine's edges has a **replica** there;
/// * one replica per vertex is the **master** (here: the replica on the
///   machine holding most of the vertex's edges, ties to the lowest
///   machine id — PowerGraph's "balanced" placement heuristic).
#[derive(Clone, Debug)]
pub struct Cluster<'g> {
    graph: &'g CsrGraph,
    num_machines: usize,
    /// Edges held by each machine.
    local_edges: Vec<Vec<EdgeId>>,
    /// Machines holding a replica of each vertex (sorted).
    replicas: Vec<Vec<MachineId>>,
    /// Master machine of each vertex (`u32::MAX` for isolated vertices).
    master: Vec<MachineId>,
}

impl<'g> Cluster<'g> {
    /// Builds the cluster state for `partition` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly the graph's edges.
    pub fn new(graph: &'g CsrGraph, partition: &EdgePartition) -> Self {
        partition
            .validate_for(graph)
            .expect("partition must match graph");
        let p = partition.num_partitions();
        let n = graph.num_vertices();

        let mut local_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); p];
        for e in 0..graph.num_edges() as EdgeId {
            local_edges[partition.partition_of(e) as usize].push(e);
        }

        let mut replicas: Vec<Vec<MachineId>> = vec![Vec::new(); n];
        let mut master = vec![MachineId::MAX; n];
        let mut counts: Vec<u32> = Vec::new();
        for v in graph.vertices() {
            counts.clear();
            counts.resize(p, 0);
            for (_, e) in graph.incident(v) {
                counts[partition.partition_of(e) as usize] += 1;
            }
            let vi = v as usize;
            for (k, &c) in counts.iter().enumerate() {
                if c > 0 {
                    replicas[vi].push(k as MachineId);
                }
            }
            if let Some((k, _)) = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .max_by_key(|&(k, &c)| (c, std::cmp::Reverse(k)))
            {
                master[vi] = k as MachineId;
            }
        }

        Cluster {
            graph,
            num_machines: p,
            local_edges,
            replicas,
            master,
        }
    }

    /// Builds the cluster state from a pipeline [`RunArtifact`](tlp_core::RunArtifact)
    /// — any registry algorithm's output deploys directly onto a simulated
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if the artifact's partition does not cover exactly the
    /// graph's edges (see [`Cluster::new`]).
    pub fn from_artifact(graph: &'g CsrGraph, artifact: &tlp_core::RunArtifact) -> Self {
        Cluster::new(graph, &artifact.partition)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Number of machines (= partitions).
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// The edges held by machine `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn local_edges(&self, k: MachineId) -> &[EdgeId] {
        &self.local_edges[k as usize]
    }

    /// The machines holding a replica of `v` (sorted, possibly empty).
    pub fn replicas(&self, v: VertexId) -> &[MachineId] {
        &self.replicas[v as usize]
    }

    /// The master machine of `v`, or `None` for isolated vertices.
    pub fn master(&self, v: VertexId) -> Option<MachineId> {
        let m = self.master[v as usize];
        (m != MachineId::MAX).then_some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::GraphBuilder;

    fn cluster_of(assign: Vec<u32>, p: usize) -> (CsrGraph, EdgePartition) {
        // Path 0-1-2-3.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        let part = EdgePartition::new(p, assign).unwrap();
        (g, part)
    }

    #[test]
    fn replicas_and_masters_on_a_split_path() {
        let (g, part) = cluster_of(vec![0, 0, 1], 2);
        let c = Cluster::new(&g, &part);
        assert_eq!(c.num_machines(), 2);
        assert_eq!(c.local_edges(0), &[0, 1]);
        assert_eq!(c.local_edges(1), &[2]);
        // Vertex 2 is spanned: replicas on both machines, master where it
        // has more edges... one edge each -> tie -> machine 0.
        assert_eq!(c.replicas(2), &[0, 1]);
        assert_eq!(c.master(2), Some(0));
        // Vertex 1 lives only on machine 0.
        assert_eq!(c.replicas(1), &[0]);
        assert_eq!(c.master(1), Some(0));
    }

    #[test]
    fn master_follows_edge_majority() {
        // Star around 0 with 3 edges on machine 1, 1 edge on machine 0.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        let part = EdgePartition::new(2, vec![0, 1, 1, 1]).unwrap();
        let c = Cluster::new(&g, &part);
        assert_eq!(c.master(0), Some(1));
    }

    #[test]
    fn isolated_vertices_have_no_master() {
        let g = GraphBuilder::new()
            .reserve_vertices(3)
            .add_edge(0, 1)
            .build();
        let part = EdgePartition::new(1, vec![0]).unwrap();
        let c = Cluster::new(&g, &part);
        assert_eq!(c.master(2), None);
        assert!(c.replicas(2).is_empty());
    }

    #[test]
    fn total_replicas_counts_every_copy() {
        let (g, part) = cluster_of(vec![0, 1, 2], 3);
        let c = Cluster::new(&g, &part);
        let total: usize = g.vertices().map(|v| c.replicas(v).len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    #[should_panic(expected = "partition must match graph")]
    fn mismatched_partition_panics() {
        let g = GraphBuilder::new().add_edges([(0, 1), (1, 2)]).build();
        let part = EdgePartition::new(2, vec![0]).unwrap();
        Cluster::new(&g, &part);
    }
}
