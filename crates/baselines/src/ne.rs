//! NE — Neighborhood Expansion (Zhang et al., "Graph Edge Partitioning via
//! Neighborhood Heuristic", KDD 2017; the paper's reference \[13\]).
//!
//! Like TLP, NE grows one partition per round from a random seed, so it is
//! the most closely related comparator. It keeps its own expansion loop
//! over a [`ResidualGraph`]; TLP's engine, private to `tlp-core` behind
//! [`TwoStageLocalPartitioner`](tlp_core::TwoStageLocalPartitioner), shares
//! no state with it.
//!
//! Each round keeps a *boundary set* `S` and a *core* `C ⊆ S`. A vertex
//! that joins `S` allocates every residual edge between itself and `S` to
//! the partition on the spot, so no residual edge ever joins two `S`
//! vertices and a boundary vertex's residual degree *is* its number of
//! neighbors outside `S`: the key NE minimizes. Each step moves the
//! boundary vertex with the lowest `(residual_degree, id)` into the core
//! and pulls its residual neighbors into `S`. The round ends once the
//! partition holds more than `⌈m/p⌉` edges; when `S \ C` runs dry first, a
//! fresh random seed joins `S` (one `gen_range(0..n)` hint from
//! `StdRng::seed_from_u64(seed)`, then the first vertex with a residual
//! edge at or after it, wrapping).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError, PartitionId};
use tlp_graph::{EdgeId, GraphView, ResidualGraph, VertexId};

/// Round stamp of a vertex that has not joined the current round's sets.
const NEVER: u32 = u32::MAX;

/// One NE run's state. `in_set[v] == k` when `v` is in round `k`'s `S`,
/// `in_core[v] == k` when it is in its core.
struct Expansion<'g> {
    residual: ResidualGraph<'g>,
    assignment: Vec<PartitionId>,
    in_set: Vec<u32>,
    in_core: Vec<u32>,
    /// Lazy min-heap of `(residual_degree, vertex)` over the boundary.
    /// Keys only fall as `S` grows, so a vertex's freshest entry surfaces
    /// before its stale ones; pops drop entries that no longer match.
    heap: BinaryHeap<Reverse<(u32, VertexId)>>,
    scratch: Vec<(VertexId, EdgeId)>,
    neighbors: Vec<VertexId>,
}

impl<'g> Expansion<'g> {
    fn new(graph: GraphView<'g>) -> Self {
        let n = graph.num_vertices();
        Expansion {
            residual: ResidualGraph::new(graph),
            assignment: vec![0; graph.num_edges()],
            in_set: vec![NEVER; n],
            in_core: vec![NEVER; n],
            heap: BinaryHeap::new(),
            scratch: Vec::new(),
            neighbors: Vec::new(),
        }
    }

    /// Grows `p` partitions of at most `capacity` edges plus the last
    /// admission's overshoot.
    fn run(mut self, p: usize, capacity: usize, seed: u64) -> Vec<PartitionId> {
        let n = self.residual.graph().num_vertices() as VertexId;
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 0..p as u32 {
            if self.residual.is_exhausted() {
                break;
            }
            let _round = tlp_obs::span_with(
                "round",
                vec![("k".to_string(), tlp_obs::Field::U64(u64::from(k)))],
            );
            let mut edges = 0usize;
            let mut steps = 0u64;
            while edges <= capacity {
                let Some(v) = self.pop_boundary(k) else {
                    // S \ C is empty: a fresh seed joins S.
                    if self.residual.is_exhausted() {
                        break;
                    }
                    let hint = rng.gen_range(0..n);
                    let seed = self
                        .residual
                        .any_active_vertex_from(hint)
                        .expect("a residual edge remains");
                    edges += self.join(seed, k);
                    continue;
                };
                edges += self.admit(v, k);
                steps += 1;
                if self.residual.is_exhausted() {
                    break;
                }
            }
            if tlp_obs::is_enabled() {
                tlp_obs::counter("round.select", steps);
                tlp_obs::counter("round.edges", edges as u64);
            }
            self.heap.clear();
        }
        // Every round that stops short of exhaustion holds more than
        // `capacity >= m/p` edges, so `p` rounds allocate every edge.
        debug_assert!(self.residual.is_exhausted());
        self.assignment
    }

    /// The boundary vertex with the lowest `(residual_degree, id)`, or
    /// `None` when the boundary is empty.
    fn pop_boundary(&mut self, k: u32) -> Option<VertexId> {
        while let Some(Reverse((degree, v))) = self.heap.pop() {
            let vi = v as usize;
            if self.in_core[vi] != k && self.residual.residual_degree(v) as u32 == degree {
                return Some(v);
            }
        }
        None
    }

    /// Moves boundary vertex `v` into the core; each of its residual
    /// neighbors joins `S`. Returns the edges allocated.
    fn admit(&mut self, v: VertexId, k: u32) -> usize {
        self.in_core[v as usize] = k;
        let mut neighbors = std::mem::take(&mut self.neighbors);
        neighbors.clear();
        neighbors.extend(self.residual.residual_incident(v).map(|(u, _)| u));
        let allocated: usize = neighbors.iter().map(|&u| self.join(u, k)).sum();
        self.neighbors = neighbors;
        allocated
    }

    /// Adds `v` to `S`, allocating its residual edges into `S` to
    /// partition `k`. Returns the edges allocated (0 if `v` is already in
    /// `S`).
    fn join(&mut self, v: VertexId, k: u32) -> usize {
        if self.in_set[v as usize] == k {
            return 0;
        }
        self.in_set[v as usize] = k;
        self.scratch.clear();
        self.scratch.extend(self.residual.residual_incident(v));
        let mut allocated = 0;
        for &(u, e) in &self.scratch {
            let ui = u as usize;
            if self.in_set[ui] != k {
                continue;
            }
            self.residual.allocate(e);
            self.assignment[e as usize] = k;
            allocated += 1;
            // A boundary endpoint just lost a residual edge: re-key it.
            // Core vertices are never selected again.
            if self.in_core[ui] != k {
                self.heap
                    .push(Reverse((self.residual.residual_degree(u) as u32, u)));
            }
        }
        self.heap
            .push(Reverse((self.residual.residual_degree(v) as u32, v)));
        allocated
    }
}

/// The NE partitioner.
///
/// # Example
///
/// ```
/// use tlp_baselines::NePartitioner;
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::power_law_community;
///
/// let g = power_law_community(400, 1_600, 2.1, 10, 0.2, 3);
/// let part = NePartitioner::new(1).partition(&g, 8)?;
/// assert_eq!(part.num_edges(), 1_600);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NePartitioner {
    seed: u64,
}

impl NePartitioner {
    /// Creates an NE partitioner with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        NePartitioner { seed }
    }
}

impl EdgePartitioner for NePartitioner {
    fn name(&self) -> &str {
        "NE"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        let m = graph.num_edges();
        let assignment = if m == 0 {
            Vec::new()
        } else {
            Expansion::new(graph).run(num_partitions, m.div_ceil(num_partitions), self.seed)
        };
        EdgePartition::new(num_partitions, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::PartitionMetrics;
    use tlp_graph::generators::power_law_community;
    use tlp_graph::GraphBuilder;

    #[test]
    fn covers_all_edges_and_is_deterministic() {
        let g = power_law_community(300, 1500, 2.1, 8, 0.25, 2);
        let a = NePartitioner::new(5).partition(&g, 6).unwrap();
        let b = NePartitioner::new(5).partition(&g, 6).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.edge_counts().iter().sum::<usize>(), 1500);
    }

    #[test]
    fn beats_random_and_hashing() {
        let g = power_law_community(800, 4000, 2.1, 16, 0.2, 7);
        let p = 10;
        let rf = |part: &EdgePartition| PartitionMetrics::compute(&g, part).replication_factor;
        let ne = rf(&NePartitioner::new(1).partition(&g, p).unwrap());
        let streaming = |kind| {
            let part = crate::StreamingPartitioner {
                kind,
                order: crate::EdgeOrder::Natural,
                seed: 1,
            };
            rf(&part.partition(&g, p).unwrap())
        };
        let rnd = streaming(crate::StreamingKind::Random);
        let dbh = streaming(crate::StreamingKind::Dbh);
        assert!(ne < rnd, "NE {ne} vs Random {rnd}");
        assert!(ne < dbh, "NE {ne} vs DBH {dbh}");
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let g = power_law_community(500, 2500, 2.2, 10, 0.25, 3);
        let part = NePartitioner::new(2).partition(&g, 5).unwrap();
        let counts = part.edge_counts();
        let max = *counts.iter().max().unwrap();
        assert!(max <= 2 * 2500 / 5, "unbalanced: {counts:?}");
    }

    #[test]
    fn handles_disconnected_graphs_and_zero_p() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (2, 3), (4, 5)])
            .build();
        let part = NePartitioner::new(0).partition(&g, 2).unwrap();
        assert_eq!(part.edge_counts().iter().sum::<usize>(), 3);
        assert!(NePartitioner::new(0).partition(&g, 0).is_err());
    }
}
