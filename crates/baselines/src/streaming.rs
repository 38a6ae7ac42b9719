//! Per-edge placement state machines for the streaming baselines.
//!
//! Each streaming heuristic is factored into a [`StreamingPlacer`] — the
//! per-edge placement state machine — so the same decision code runs in two
//! harnesses:
//!
//! * the materialized `EdgePartitioner::partition` paths, which call
//!   [`StreamingPlacer::place`] while walking the requested arrival order
//!   over the in-memory graph, and
//! * [`run_streaming`](crate::run_streaming), which places the
//!   chunks of any [`EdgeSource`](tlp_graph::EdgeSource) pass — including a
//!   `.tlpg` file read chunk by chunk — holding at most `budget` edges in
//!   memory.
//!
//! Because both paths execute the identical placer over the identical
//! arrival sequence, a streamed run is bit-identical to the materialized
//! one at any buffer budget.

use crate::stream::{edge_order, EdgeOrder};
use crate::util::{least_loaded, splitmix64, PartitionSet};
use tlp_core::{EdgePartition, PartitionError, PartitionId};
use tlp_graph::{GraphView, VertexId};

/// Checks that `partition` covers exactly the edges of `graph`, the shared
/// precondition of the `seeded_from` constructors.
fn check_seeding_pair(
    graph: GraphView<'_>,
    partition: &EdgePartition,
) -> Result<(), PartitionError> {
    if partition.num_edges() != graph.num_edges() {
        return Err(PartitionError::InvalidAssignment(format!(
            "partition covers {} edges but the seeding graph has {}",
            partition.num_edges(),
            graph.num_edges()
        )));
    }
    Ok(())
}

/// Per-edge placement state of a streaming heuristic.
///
/// `place` is called once per arriving edge, in arrival order, and must
/// fold the decision into its own state (loads, replica sets, …).
pub trait StreamingPlacer {
    /// Number of partitions this placer assigns into.
    fn num_partitions(&self) -> usize;

    /// Places the arriving edge `(u, v)` and returns its partition.
    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId;
}

/// Places every edge of `graph` in `order` and returns the decisions by
/// edge id — the materialized partitioners' driver.
pub(crate) fn place_in_order(
    placer: &mut dyn StreamingPlacer,
    graph: GraphView<'_>,
    order: EdgeOrder,
) -> Vec<PartitionId> {
    let mut assignment = vec![0 as PartitionId; graph.num_edges()];
    for eid in edge_order(graph, order) {
        let e = graph.edge(eid);
        assignment[eid as usize] = placer.place(e.source(), e.target());
    }
    assignment
}

/// HDRF placement state (see [`crate::HdrfPartitioner`] for the scoring
/// rule). State is `O(n + p)`: replica sets, partial degrees, loads.
#[derive(Clone, Debug)]
pub struct HdrfState {
    lambda: f64,
    replicas: Vec<PartitionSet>,
    partial_degree: Vec<u32>,
    loads: Vec<usize>,
}

impl HdrfState {
    const EPSILON: f64 = 1e-9;

    /// Creates HDRF state for `num_vertices` vertices and `num_partitions`
    /// partitions.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroPartitions`] and the same `lambda` validation
    /// as [`crate::HdrfPartitioner::new`].
    pub fn new(
        num_vertices: usize,
        num_partitions: usize,
        lambda: f64,
    ) -> Result<Self, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(PartitionError::InvalidParameter {
                name: "lambda",
                value: lambda,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(HdrfState {
            lambda,
            replicas: (0..num_vertices)
                .map(|_| PartitionSet::new(num_partitions))
                .collect(),
            partial_degree: vec![0u32; num_vertices],
            loads: vec![0usize; num_partitions],
        })
    }

    /// Creates HDRF state *as if* every edge of `graph` had already been
    /// streamed through [`StreamingPlacer::place`] with the outcomes
    /// recorded in `partition`: partial degrees equal the graph degrees,
    /// replica sets and loads are folded from the assignment.
    ///
    /// When `partition` was itself produced by an HDRF stream over
    /// `graph`'s canonical edge order, the returned state is identical to
    /// the live state at the end of that stream, so placements continue
    /// bit-identically — this is how the serving layer resumes online
    /// placement against a stored partition.
    ///
    /// # Errors
    ///
    /// [`HdrfState::new`] validation errors, plus
    /// [`PartitionError::InvalidAssignment`] if `partition` does not cover
    /// `graph`'s edges.
    pub fn seeded_from<'a>(
        graph: impl Into<GraphView<'a>>,
        partition: &EdgePartition,
        lambda: f64,
    ) -> Result<Self, PartitionError> {
        let graph = graph.into();
        check_seeding_pair(graph, partition)?;
        let mut state = HdrfState::new(graph.num_vertices(), partition.num_partitions(), lambda)?;
        for (eid, edge) in graph.edge_iter().enumerate() {
            let q = partition.partition_of(eid as u32) as usize;
            state.partial_degree[edge.source() as usize] += 1;
            state.partial_degree[edge.target() as usize] += 1;
            state.loads[q] += 1;
            state.replicas[edge.source() as usize].insert(q);
            state.replicas[edge.target() as usize].insert(q);
        }
        Ok(state)
    }
}

impl StreamingPlacer for HdrfState {
    fn num_partitions(&self) -> usize {
        self.loads.len()
    }

    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        let p = self.loads.len();
        self.partial_degree[u as usize] += 1;
        self.partial_degree[v as usize] += 1;
        let du = f64::from(self.partial_degree[u as usize]);
        let dv = f64::from(self.partial_degree[v as usize]);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let max_load = self.loads.iter().copied().max().expect("p >= 1") as f64;
        let min_load = self.loads.iter().copied().min().expect("p >= 1") as f64;

        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for q in 0..p {
            let mut c_rep = 0.0;
            if self.replicas[u as usize].contains(q) {
                c_rep += 1.0 + (1.0 - theta_u);
            }
            if self.replicas[v as usize].contains(q) {
                c_rep += 1.0 + (1.0 - theta_v);
            }
            let c_bal = self.lambda * (max_load - self.loads[q] as f64)
                / (Self::EPSILON + max_load - min_load);
            let score = c_rep + c_bal;
            if score > best_score || (score == best_score && self.loads[q] < self.loads[best]) {
                best = q;
                best_score = score;
            }
        }
        self.loads[best] += 1;
        self.replicas[u as usize].insert(best);
        self.replicas[v as usize].insert(best);
        best as PartitionId
    }
}

/// PowerGraph-greedy placement state (see [`crate::GreedyPartitioner`]).
#[derive(Clone, Debug)]
pub struct GreedyState {
    replicas: Vec<PartitionSet>,
    loads: Vec<usize>,
}

impl GreedyState {
    /// Creates greedy state for `num_vertices` vertices.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroPartitions`].
    pub fn new(num_vertices: usize, num_partitions: usize) -> Result<Self, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        Ok(GreedyState {
            replicas: (0..num_vertices)
                .map(|_| PartitionSet::new(num_partitions))
                .collect(),
            loads: vec![0usize; num_partitions],
        })
    }

    /// Creates greedy state as if every edge of `graph` had already been
    /// placed with the outcomes in `partition` — the greedy analogue of
    /// [`HdrfState::seeded_from`], with the same continuation guarantee.
    ///
    /// # Errors
    ///
    /// [`GreedyState::new`] validation errors, plus
    /// [`PartitionError::InvalidAssignment`] if `partition` does not cover
    /// `graph`'s edges.
    pub fn seeded_from<'a>(
        graph: impl Into<GraphView<'a>>,
        partition: &EdgePartition,
    ) -> Result<Self, PartitionError> {
        let graph = graph.into();
        check_seeding_pair(graph, partition)?;
        let mut state = GreedyState::new(graph.num_vertices(), partition.num_partitions())?;
        for (eid, edge) in graph.edge_iter().enumerate() {
            let q = partition.partition_of(eid as u32) as usize;
            state.loads[q] += 1;
            state.replicas[edge.source() as usize].insert(q);
            state.replicas[edge.target() as usize].insert(q);
        }
        Ok(state)
    }
}

impl StreamingPlacer for GreedyState {
    fn num_partitions(&self) -> usize {
        self.loads.len()
    }

    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        let p = self.loads.len();
        let (au, av) = (&self.replicas[u as usize], &self.replicas[v as usize]);
        let pid = if let Some(pid) = least_loaded(&self.loads, au.intersection(av)) {
            pid
        } else {
            match (au.is_empty(), av.is_empty()) {
                (false, false) => {
                    least_loaded(&self.loads, au.iter().chain(av.iter())).expect("non-empty")
                }
                (false, true) => least_loaded(&self.loads, au.iter()).expect("non-empty"),
                (true, false) => least_loaded(&self.loads, av.iter()).expect("non-empty"),
                (true, true) => least_loaded(&self.loads, 0..p).expect("p >= 1"),
            }
        };
        self.loads[pid] += 1;
        self.replicas[u as usize].insert(pid);
        self.replicas[v as usize].insert(pid);
        pid as PartitionId
    }
}

/// DBH placement state (see [`crate::DbhPartitioner`]). Needs the *final*
/// vertex degrees up front, which sources provide via
/// [`EdgeSource::degrees_hint`](tlp_graph::EdgeSource::degrees_hint).
#[derive(Clone, Debug)]
pub struct DbhState {
    degrees: Vec<u32>,
    seed: u64,
    num_partitions: usize,
}

impl DbhState {
    /// Creates DBH state from final vertex degrees.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroPartitions`].
    pub fn new(
        degrees: Vec<u32>,
        num_partitions: usize,
        seed: u64,
    ) -> Result<Self, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        Ok(DbhState {
            degrees,
            seed,
            num_partitions,
        })
    }
}

impl StreamingPlacer for DbhState {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        let (du, dv) = (self.degrees[u as usize], self.degrees[v as usize]);
        let anchor = if du < dv || (du == dv && u <= v) {
            u
        } else {
            v
        };
        (splitmix64(u64::from(anchor) ^ self.seed) % self.num_partitions as u64) as PartitionId
    }
}

/// Random placement state (see [`crate::RandomPartitioner`]): a stateless
/// hash of the arrival index, which on a natural-order stream equals the
/// `EdgeId` the materialized path hashes.
#[derive(Clone, Debug)]
pub struct RandomState {
    seed: u64,
    num_partitions: usize,
    next_index: u64,
}

impl RandomState {
    /// Creates random placement state.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroPartitions`].
    pub fn new(num_partitions: usize, seed: u64) -> Result<Self, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        Ok(RandomState {
            seed,
            num_partitions,
            next_index: 0,
        })
    }
}

impl StreamingPlacer for RandomState {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn place(&mut self, _u: VertexId, _v: VertexId) -> PartitionId {
        let index = self.next_index;
        self.next_index += 1;
        (splitmix64(index ^ self.seed) % self.num_partitions as u64) as PartitionId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_partitions_rejected_everywhere() {
        assert!(HdrfState::new(4, 0, 1.1).is_err());
        assert!(GreedyState::new(4, 0).is_err());
        assert!(DbhState::new(vec![1, 1], 0, 0).is_err());
        assert!(RandomState::new(0, 0).is_err());
    }

    /// Streams the first `split` canonical edges of `g` through a fresh
    /// placer, seeds a new placer from the resulting (prefix graph,
    /// prefix partition) pair, and checks that placing the remaining
    /// edges continues bit-identically to the uninterrupted full stream.
    fn assert_seeded_continuation(
        g: &tlp_graph::CsrGraph,
        split: usize,
        p: usize,
        fresh: impl Fn(usize) -> Box<dyn StreamingPlacer>,
        seeded: impl Fn(&tlp_graph::CsrGraph, &EdgePartition) -> Box<dyn StreamingPlacer>,
    ) {
        let mut full = fresh(g.num_vertices());
        let full_assignments: Vec<PartitionId> = g
            .edges()
            .iter()
            .map(|e| full.place(e.source(), e.target()))
            .collect();

        let prefix_graph = tlp_graph::CsrGraph::from_sorted_canonical_edges(
            g.num_vertices(),
            g.edges()[..split].to_vec(),
        )
        .unwrap();
        let prefix_partition = EdgePartition::new(p, full_assignments[..split].to_vec()).unwrap();
        let mut resumed = seeded(&prefix_graph, &prefix_partition);
        for (i, e) in g.edges().iter().enumerate().skip(split) {
            assert_eq!(
                resumed.place(e.source(), e.target()),
                full_assignments[i],
                "seeded continuation diverged at edge {i}"
            );
        }
    }

    #[test]
    fn hdrf_seeded_state_continues_bit_identically() {
        let g = tlp_graph::generators::chung_lu(400, 1600, 2.2, 5);
        let split = g.num_edges() * 3 / 4;
        assert_seeded_continuation(
            &g,
            split,
            8,
            |n| Box::new(HdrfState::new(n, 8, 1.1).unwrap()),
            |pg, pp| Box::new(HdrfState::seeded_from(pg, pp, 1.1).unwrap()),
        );
    }

    #[test]
    fn greedy_seeded_state_continues_bit_identically() {
        let g = tlp_graph::generators::chung_lu(400, 1600, 2.2, 9);
        let split = g.num_edges() / 2;
        assert_seeded_continuation(
            &g,
            split,
            8,
            |n| Box::new(GreedyState::new(n, 8).unwrap()),
            |pg, pp| Box::new(GreedyState::seeded_from(pg, pp).unwrap()),
        );
    }

    #[test]
    fn seeding_rejects_mismatched_pairs() {
        let g = tlp_graph::generators::erdos_renyi(50, 120, 4);
        let short = EdgePartition::new(4, vec![0; g.num_edges() - 1]);
        // An assignment one edge short is rejected by EdgePartition or by
        // the seeding precondition, whichever fires first.
        if let Ok(part) = short {
            assert!(HdrfState::seeded_from(&g, &part, 1.1).is_err());
            assert!(GreedyState::seeded_from(&g, &part).is_err());
        }
        let empty_graph = tlp_graph::GraphBuilder::new().build();
        let part = EdgePartition::new(4, (0..g.num_edges()).map(|_| 0).collect()).unwrap();
        assert!(HdrfState::seeded_from(&empty_graph, &part, 1.1).is_err());
        assert!(GreedyState::seeded_from(&empty_graph, &part).is_err());
    }
}
