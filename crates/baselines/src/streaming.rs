//! The edge-streaming heuristics: Random, DBH, Greedy and HDRF.
//!
//! Each heuristic is a [`StreamingKind`], and [`StreamingKind::placer`]
//! builds its [`StreamingPlacer`] — the per-edge placement state machine —
//! so the same decision code runs in two harnesses:
//!
//! * [`StreamingPartitioner`], the materialized
//!   [`EdgePartitioner`], which calls [`StreamingPlacer::place`] while
//!   walking the requested arrival order over the in-memory graph, and
//! * [`run_streaming`](crate::run_streaming), which places the
//!   chunks of any [`EdgeSource`](tlp_graph::EdgeSource) pass — including a
//!   `.tlpg` file read chunk by chunk — holding at most `budget` edges in
//!   memory.
//!
//! Because both paths execute the identical placer over the identical
//! arrival sequence, a streamed run is bit-identical to the materialized
//! natural-order one at any buffer budget.

use crate::stream::{edge_order, EdgeOrder};
use crate::util::{degrees, least_loaded, splitmix64, PartitionSet};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError, PartitionId};
use tlp_graph::{GraphView, VertexId};

/// Which edge-streaming heuristic places the edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamingKind {
    /// Uniform random edge assignment (the paper's "Random" baseline).
    ///
    /// The paper treats Random's replication factor as the quality floor:
    /// it is fast and perfectly balanced in expectation but replicates
    /// aggressively. Each edge's partition is a seeded hash of its arrival
    /// index, so the placement of one edge never depends on the others; on
    /// a natural-order stream the index is the `EdgeId`.
    Random,
    /// Degree-based hashing (Xie et al., NIPS 2014): each edge is placed by
    /// hashing its *lower-degree* endpoint, perturbed by the seed.
    ///
    /// The intuition for power-law graphs: cutting (replicating) the few
    /// high-degree hubs is unavoidable, so DBH deliberately keeps the many
    /// low-degree vertices whole — an edge follows its low-degree
    /// endpoint, so that endpoint's edges all land in one partition. DBH
    /// needs the *final* vertex degrees up front, which sources provide via
    /// [`EdgeSource::degrees_hint`](tlp_graph::EdgeSource::degrees_hint).
    Dbh,
    /// The greedy heuristic of PowerGraph's "oblivious" edge placement
    /// (Gonzalez et al., OSDI 2012).
    ///
    /// For each arriving edge `(u, v)`, with `A(x)` the set of partitions
    /// where `x` already has edges:
    ///
    /// 1. if `A(u) ∩ A(v)` is non-empty, pick its least-loaded member;
    /// 2. else if both are non-empty, pick the least-loaded of `A(u) ∪ A(v)`;
    /// 3. else if one is non-empty, pick its least-loaded member;
    /// 4. else pick the globally least-loaded partition.
    ///
    /// Ties go to the lowest partition id, so an `EdgeId`-order stream
    /// keeps growing partition 0: on a connected Chung–Lu graph every edge
    /// ends there (RF 1.0, balance ≈ p). Greedy is balanced only on a
    /// shuffled order.
    Greedy,
    /// HDRF: High-Degree (are) Replicated First (Petroni et al., CIKM 2015).
    ///
    /// For an arriving edge `(u, v)` HDRF scores every partition `q` as
    /// `C_rep(q) + C_bal(q)` and picks the argmax:
    ///
    /// * `C_rep(q) = g(u, q) + g(v, q)` where `g(x, q) = 1 + (1 - θ(x))` if
    ///   `x` already has a replica in `q` and 0 otherwise, with
    ///   `θ(x) = δ(x) / (δ(u) + δ(v))` the endpoint's *partial-degree*
    ///   share — this prefers replicating the higher-degree endpoint;
    /// * `C_bal(q) = λ * (maxsize - load(q)) / (ε + maxsize - minsize)`,
    ///   with `λ = 1.1`, the paper's default.
    Hdrf,
}

impl StreamingKind {
    /// Display label, the partitioner's `name()`.
    pub fn label(self) -> &'static str {
        match self {
            StreamingKind::Random => "Random",
            StreamingKind::Dbh => "DBH",
            StreamingKind::Greedy => "Greedy",
            StreamingKind::Hdrf => "HDRF",
        }
    }

    /// Whether [`placer`](Self::placer) needs the final vertex degrees.
    pub fn needs_degrees(self) -> bool {
        self == StreamingKind::Dbh
    }

    /// Builds a fresh placer of this kind for `num_vertices` vertices and
    /// `num_partitions` partitions. `seed` feeds Random's and DBH's hashes;
    /// `degrees` are the final vertex degrees, read by DBH only.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroPartitions`].
    ///
    /// # Panics
    ///
    /// If [`needs_degrees`](Self::needs_degrees) holds and `degrees` is
    /// `None`.
    pub fn placer(
        self,
        num_vertices: usize,
        num_partitions: usize,
        seed: u64,
        degrees: Option<Vec<u32>>,
    ) -> Result<Box<dyn StreamingPlacer + Send + Sync>, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        Ok(match self {
            StreamingKind::Random => Box::new(RandomState {
                seed,
                num_partitions,
                next_index: 0,
            }),
            StreamingKind::Dbh => Box::new(DbhState {
                degrees: degrees.expect("DBH needs the final vertex degrees"),
                seed,
                num_partitions,
            }),
            StreamingKind::Greedy => Box::new(GreedyState {
                replicas: Replicas::new(num_vertices, num_partitions),
            }),
            StreamingKind::Hdrf => Box::new(HdrfState {
                replicas: Replicas::new(num_vertices, num_partitions),
                partial_degree: vec![0; num_vertices],
            }),
        })
    }

    /// Builds this kind's placer *as if* every edge of `graph` had already
    /// been streamed through [`StreamingPlacer::place`] with the outcomes
    /// recorded in `partition`: replica sets, loads and HDRF's partial
    /// degrees are folded from the assignment.
    ///
    /// When `partition` was itself produced by a stream of this kind over
    /// `graph`'s canonical edge order, the returned state is identical to
    /// the live state at the end of that stream, so placements continue
    /// bit-identically — this is how the serving layer resumes online
    /// placement against a stored partition. `Ok(None)` for Random and
    /// DBH, which keep no replica state to resume from.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidAssignment`] if `partition` does not cover
    /// `graph`'s edges.
    pub fn seeded_placer<'a>(
        self,
        graph: impl Into<GraphView<'a>>,
        partition: &EdgePartition,
    ) -> Result<Option<Box<dyn StreamingPlacer + Send + Sync>>, PartitionError> {
        let graph = graph.into();
        Ok(match self {
            StreamingKind::Random | StreamingKind::Dbh => None,
            StreamingKind::Greedy => Some(Box::new(GreedyState {
                replicas: Replicas::seeded_from(graph, partition, |_, _| {})?,
            })),
            StreamingKind::Hdrf => {
                let mut partial_degree = vec![0; graph.num_vertices()];
                let replicas = Replicas::seeded_from(graph, partition, |u, v| {
                    partial_degree[u as usize] += 1;
                    partial_degree[v as usize] += 1;
                })?;
                Some(Box::new(HdrfState {
                    replicas,
                    partial_degree,
                }))
            }
        })
    }
}

/// Per-edge placement state of a streaming heuristic.
///
/// `place` is called once per arriving edge, in arrival order, and must
/// fold the decision into its own state (loads, replica sets, …).
pub trait StreamingPlacer {
    /// Places the arriving edge `(u, v)` and returns its partition.
    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId;
}

/// An edge-streaming heuristic run over an arrival order of a materialized
/// graph. `seed` feeds Random's and DBH's hashes; `order` is the arrival
/// order, which Greedy needs shuffled to stay balanced.
///
/// # Example
///
/// ```
/// use tlp_baselines::{EdgeOrder, StreamingKind, StreamingPartitioner};
/// use tlp_core::{EdgePartitioner, PartitionMetrics};
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(500, 2_500, 2.1, 3);
/// let hdrf = StreamingPartitioner {
///     kind: StreamingKind::Hdrf,
///     order: EdgeOrder::Random(2),
///     seed: 0,
/// };
/// let part = hdrf.partition(&g, 8)?;
/// let m = PartitionMetrics::compute(&g, &part);
/// assert!(m.replication_factor >= 1.0);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StreamingPartitioner {
    /// The heuristic.
    pub kind: StreamingKind,
    /// The edge arrival order.
    pub order: EdgeOrder,
    /// Seed of the heuristic's hash (Random, DBH).
    pub seed: u64,
}

impl EdgePartitioner for StreamingPartitioner {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let StreamingPartitioner { kind, order, seed } = *self;
        let degrees = kind.needs_degrees().then(|| degrees(graph));
        let mut placer = kind.placer(graph.num_vertices(), num_partitions, seed, degrees)?;
        let mut assignment = vec![0 as PartitionId; graph.num_edges()];
        for eid in edge_order(graph, order) {
            let e = graph.edge(eid);
            assignment[eid as usize] = placer.place(e.source(), e.target());
        }
        EdgePartition::new(num_partitions, assignment)
    }
}

/// Replica sets `A(v)` and partition loads: the state Greedy and HDRF
/// keep. State is `O(n + p)`.
#[derive(Clone, Debug)]
struct Replicas {
    sets: Vec<PartitionSet>,
    loads: Vec<usize>,
}

impl Replicas {
    fn new(num_vertices: usize, num_partitions: usize) -> Self {
        Replicas {
            sets: (0..num_vertices)
                .map(|_| PartitionSet::new(num_partitions))
                .collect(),
            loads: vec![0; num_partitions],
        }
    }

    /// Records edge `(u, v)` in partition `q`: the step every Greedy and
    /// HDRF placement ends with, and the fold that seeds them.
    fn commit(&mut self, u: VertexId, v: VertexId, q: usize) -> PartitionId {
        self.loads[q] += 1;
        self.sets[u as usize].insert(q);
        self.sets[v as usize].insert(q);
        q as PartitionId
    }

    /// Folds every edge of `graph` into the partition `partition` gives it,
    /// handing the edge to `each` first.
    fn seeded_from(
        graph: GraphView<'_>,
        partition: &EdgePartition,
        mut each: impl FnMut(VertexId, VertexId),
    ) -> Result<Self, PartitionError> {
        if partition.num_edges() != graph.num_edges() {
            return Err(PartitionError::InvalidAssignment(format!(
                "partition covers {} edges but the seeding graph has {}",
                partition.num_edges(),
                graph.num_edges()
            )));
        }
        let mut replicas = Replicas::new(graph.num_vertices(), partition.num_partitions());
        for (eid, edge) in graph.edge_iter().enumerate() {
            let q = partition.partition_of(eid as u32) as usize;
            each(edge.source(), edge.target());
            replicas.commit(edge.source(), edge.target(), q);
        }
        Ok(replicas)
    }
}

/// HDRF placement state (see [`StreamingKind::Hdrf`] for the scoring rule).
#[derive(Clone, Debug)]
struct HdrfState {
    replicas: Replicas,
    partial_degree: Vec<u32>,
}

impl HdrfState {
    /// The balance weight `λ`.
    const LAMBDA: f64 = 1.1;
    const EPSILON: f64 = 1e-9;
}

impl StreamingPlacer for HdrfState {
    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        self.partial_degree[u as usize] += 1;
        self.partial_degree[v as usize] += 1;
        let du = f64::from(self.partial_degree[u as usize]);
        let dv = f64::from(self.partial_degree[v as usize]);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let Replicas { sets, loads } = &self.replicas;
        let max_load = loads.iter().copied().max().expect("p >= 1") as f64;
        let min_load = loads.iter().copied().min().expect("p >= 1") as f64;

        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (q, &load) in loads.iter().enumerate() {
            let mut c_rep = 0.0;
            if sets[u as usize].contains(q) {
                c_rep += 1.0 + (1.0 - theta_u);
            }
            if sets[v as usize].contains(q) {
                c_rep += 1.0 + (1.0 - theta_v);
            }
            let c_bal =
                Self::LAMBDA * (max_load - load as f64) / (Self::EPSILON + max_load - min_load);
            let score = c_rep + c_bal;
            if score > best_score || (score == best_score && load < loads[best]) {
                best = q;
                best_score = score;
            }
        }
        self.replicas.commit(u, v, best)
    }
}

/// Greedy placement state (see [`StreamingKind::Greedy`] for the rules).
#[derive(Clone, Debug)]
struct GreedyState {
    replicas: Replicas,
}

impl StreamingPlacer for GreedyState {
    fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        let Replicas { sets, loads } = &self.replicas;
        let (au, av) = (&sets[u as usize], &sets[v as usize]);
        let pid = if let Some(pid) = least_loaded(loads, au.intersection(av)) {
            pid
        } else {
            match (au.is_empty(), av.is_empty()) {
                (false, false) => {
                    least_loaded(loads, au.iter().chain(av.iter())).expect("non-empty")
                }
                (false, true) => least_loaded(loads, au.iter()).expect("non-empty"),
                (true, false) => least_loaded(loads, av.iter()).expect("non-empty"),
                (true, true) => least_loaded(loads, 0..loads.len()).expect("p >= 1"),
            }
        };
        self.replicas.commit(u, v, pid)
    }
}

/// DBH placement state (see [`StreamingKind::Dbh`]).
#[derive(Clone, Debug)]
struct DbhState {
    degrees: Vec<u32>,
    seed: u64,
    num_partitions: usize,
}

impl StreamingPlacer for DbhState {
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

/// Random placement state (see [`StreamingKind::Random`]).
#[derive(Clone, Debug)]
struct RandomState {
    seed: u64,
    num_partitions: usize,
    next_index: u64,
}

impl StreamingPlacer for RandomState {
    fn place(&mut self, _u: VertexId, _v: VertexId) -> PartitionId {
        let index = self.next_index;
        self.next_index += 1;
        (splitmix64(index ^ self.seed) % self.num_partitions as u64) as PartitionId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::PartitionMetrics;
    use tlp_graph::generators::{chung_lu, erdos_renyi};
    use tlp_graph::{CsrGraph, GraphBuilder};

    const KINDS: [StreamingKind; 4] = [
        StreamingKind::Random,
        StreamingKind::Dbh,
        StreamingKind::Greedy,
        StreamingKind::Hdrf,
    ];

    fn streaming(kind: StreamingKind, order: EdgeOrder, seed: u64) -> StreamingPartitioner {
        StreamingPartitioner { kind, order, seed }
    }

    fn rf(g: &CsrGraph, part: &EdgePartition) -> f64 {
        PartitionMetrics::compute(g, part).replication_factor
    }

    #[test]
    fn zero_partitions_rejected_everywhere() {
        let g = erdos_renyi(10, 20, 1);
        for kind in KINDS {
            assert!(kind.placer(4, 0, 0, Some(vec![1; 4])).is_err(), "{kind:?}");
            let part = streaming(kind, EdgeOrder::Random(0), 0).partition(&g, 0);
            assert!(part.is_err(), "{kind:?}");
        }
    }

    #[test]
    fn greedy_reuses_shared_replica_partitions() {
        // Triangle: after two edges, the third must join an existing
        // replica partition rather than opening a new one.
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .build();
        let part = streaming(StreamingKind::Greedy, EdgeOrder::Natural, 0)
            .partition(&g, 3)
            .unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        // Greedy keeps a triangle within at most two partitions.
        let used = m.edge_counts.iter().filter(|&&c| c > 0).count();
        assert!(used <= 2, "triangle scattered over {used} partitions");
    }

    #[test]
    fn greedy_beats_random_on_power_law() {
        let g = chung_lu(800, 4000, 2.1, 6);
        let greedy = streaming(StreamingKind::Greedy, EdgeOrder::Random(1), 0)
            .partition(&g, 10)
            .unwrap();
        let rnd = streaming(StreamingKind::Random, EdgeOrder::Natural, 1)
            .partition(&g, 10)
            .unwrap();
        let (rf_g, rf_r) = (rf(&g, &greedy), rf(&g, &rnd));
        assert!(rf_g < rf_r, "Greedy {rf_g} vs Random {rf_r}");
    }

    #[test]
    fn greedy_loads_stay_reasonably_balanced() {
        let g = chung_lu(500, 2500, 2.2, 8);
        let part = streaming(StreamingKind::Greedy, EdgeOrder::Random(2), 0)
            .partition(&g, 5)
            .unwrap();
        let counts = part.edge_counts();
        let max = *counts.iter().max().unwrap();
        let ideal = 2500 / 5;
        assert!(max <= 2 * ideal, "max load {max} vs ideal {ideal}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = chung_lu(100, 400, 2.2, 3);
        let greedy = streaming(StreamingKind::Greedy, EdgeOrder::Random(0), 0);
        assert_eq!(
            greedy.partition(&g, 4).unwrap(),
            greedy.partition(&g, 4).unwrap()
        );
    }

    #[test]
    fn hdrf_beats_random_on_power_law() {
        let g = chung_lu(800, 4000, 2.0, 4);
        let hdrf = streaming(StreamingKind::Hdrf, EdgeOrder::Random(0), 0)
            .partition(&g, 10)
            .unwrap();
        let rnd = streaming(StreamingKind::Random, EdgeOrder::Natural, 0)
            .partition(&g, 10)
            .unwrap();
        let (rf_h, rf_r) = (rf(&g, &hdrf), rf(&g, &rnd));
        assert!(rf_h < rf_r, "HDRF {rf_h} vs Random {rf_r}");
    }

    #[test]
    fn hdrf_total_and_deterministic() {
        let g = chung_lu(200, 800, 2.2, 5);
        let hdrf = streaming(StreamingKind::Hdrf, EdgeOrder::Random(0), 0);
        let a = hdrf.partition(&g, 4).unwrap();
        assert_eq!(a, hdrf.partition(&g, 4).unwrap());
        assert_eq!(a.edge_counts().iter().sum::<usize>(), 800);
    }

    #[test]
    fn dbh_low_degree_vertices_are_never_replicated() {
        // In a star, every leaf has degree 1 < center degree, so each edge
        // hashes by its leaf: leaves are whole, only the center replicates.
        let g = GraphBuilder::new()
            .add_edges((1..=20).map(|v| (0, v)))
            .build();
        let part = streaming(StreamingKind::Dbh, EdgeOrder::Natural, 3)
            .partition(&g, 4)
            .unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        assert_eq!(m.spanned_vertices, 1); // only the hub
    }

    #[test]
    fn dbh_beats_random_on_power_law_graphs() {
        let g = chung_lu(1000, 5000, 2.0, 9);
        let p = 10;
        let dbh = streaming(StreamingKind::Dbh, EdgeOrder::Natural, 1)
            .partition(&g, p)
            .unwrap();
        let rnd = streaming(StreamingKind::Random, EdgeOrder::Natural, 1)
            .partition(&g, p)
            .unwrap();
        let (rf_dbh, rf_rnd) = (rf(&g, &dbh), rf(&g, &rnd));
        assert!(rf_dbh < rf_rnd, "DBH {rf_dbh} vs Random {rf_rnd}");
    }

    #[test]
    fn dbh_deterministic_and_total() {
        let g = chung_lu(200, 800, 2.2, 4);
        let dbh = streaming(StreamingKind::Dbh, EdgeOrder::Natural, 7);
        let a = dbh.partition(&g, 5).unwrap();
        assert_eq!(a, dbh.partition(&g, 5).unwrap());
        assert_eq!(a.edge_counts().iter().sum::<usize>(), 800);
    }

    #[test]
    fn random_covers_all_edges_roughly_evenly() {
        let g = erdos_renyi(100, 2000, 3);
        let part = streaming(StreamingKind::Random, EdgeOrder::Natural, 1)
            .partition(&g, 10)
            .unwrap();
        let counts = part.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        // Expect every partition within 3 sigma of 200.
        for &c in &counts {
            assert!((100..=300).contains(&c), "unbalanced count {c}");
        }
    }

    #[test]
    fn random_deterministic_per_seed() {
        let g = erdos_renyi(40, 100, 2);
        let random = |seed| {
            streaming(StreamingKind::Random, EdgeOrder::Natural, seed)
                .partition(&g, 3)
                .unwrap()
        };
        assert_eq!(random(5), random(5));
        assert_ne!(random(5), random(6));
    }

    /// Streams the first `split` canonical edges of `g` through a fresh
    /// placer, seeds a new placer from the resulting (prefix graph,
    /// prefix partition) pair, and checks that placing the remaining
    /// edges continues bit-identically to the uninterrupted full stream.
    fn assert_seeded_continuation(g: &CsrGraph, split: usize, p: usize, kind: StreamingKind) {
        let mut full = kind.placer(g.num_vertices(), p, 0, None).unwrap();
        let full_assignments: Vec<PartitionId> = g
            .edges()
            .iter()
            .map(|e| full.place(e.source(), e.target()))
            .collect();

        let prefix_graph =
            CsrGraph::from_sorted_canonical_edges(g.num_vertices(), g.edges()[..split].to_vec())
                .unwrap();
        let prefix_partition = EdgePartition::new(p, full_assignments[..split].to_vec()).unwrap();
        let mut resumed = kind
            .seeded_placer(&prefix_graph, &prefix_partition)
            .unwrap()
            .expect("resumable kind");
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
        let g = chung_lu(400, 1600, 2.2, 5);
        let split = g.num_edges() * 3 / 4;
        assert_seeded_continuation(&g, split, 8, StreamingKind::Hdrf);
    }

    #[test]
    fn greedy_seeded_state_continues_bit_identically() {
        let g = chung_lu(400, 1600, 2.2, 9);
        let split = g.num_edges() / 2;
        assert_seeded_continuation(&g, split, 8, StreamingKind::Greedy);
    }

    #[test]
    fn seeding_rejects_mismatched_pairs() {
        let g = erdos_renyi(50, 120, 4);
        let short = EdgePartition::new(4, vec![0; g.num_edges() - 1]).unwrap();
        let empty_graph = GraphBuilder::new().build();
        let part = EdgePartition::new(4, vec![0; g.num_edges()]).unwrap();
        for kind in [StreamingKind::Hdrf, StreamingKind::Greedy] {
            assert!(kind.seeded_placer(&g, &short).is_err(), "{kind:?}");
            assert!(kind.seeded_placer(&empty_graph, &part).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn only_greedy_and_hdrf_resume() {
        let g = erdos_renyi(50, 120, 4);
        let part = EdgePartition::new(4, vec![0; g.num_edges()]).unwrap();
        for kind in KINDS {
            let resumes = kind.seeded_placer(&g, &part).unwrap().is_some();
            assert_eq!(
                resumes,
                !matches!(kind, StreamingKind::Random | StreamingKind::Dbh)
            );
        }
    }
}
