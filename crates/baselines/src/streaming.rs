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
//!
//! Every placer folds its decisions into one [`StreamedMetrics`]: the
//! replica sets, partial degrees and loads Greedy and HDRF decide by are
//! the same state the run's metrics are read off.

use crate::stream::{edge_order, EdgeOrder};
use crate::util::{degrees, least_loaded, splitmix64};
use tlp_core::{
    EdgePartition, EdgePartitioner, PartitionError, PartitionId, PartitionMetrics, StreamedMetrics,
};
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
    ///
    /// Ties go to the lower load, then to the lower id. Partitions with
    /// equal `C_rep` differ only in `C_bal`, which never rises with the
    /// load, so each edge scores at most four partitions, not all p: the
    /// lowest-id least-loaded one of `A(u) ∩ A(v)`, of `A(u) \ A(v)`, of
    /// `A(v) \ A(u)` and overall. Finding them costs
    /// `O(|A(u) ∪ A(v)| + p / 64)` integer work per edge; debug builds
    /// check every pick against the literal scan over all p.
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
    ) -> Result<StreamingPlacer, PartitionError> {
        if num_partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        let degrees = match self {
            StreamingKind::Dbh => degrees.expect("DBH needs the final vertex degrees"),
            _ => Vec::new(),
        };
        Ok(StreamingPlacer {
            kind: self,
            seed,
            degrees,
            next_index: 0,
            fold: StreamedMetrics::new(num_vertices, num_partitions),
        })
    }

    /// Builds this kind's placer *as if* every edge of `graph` had already
    /// been streamed through [`StreamingPlacer::place`] with the outcomes
    /// recorded in `partition`: its fold is
    /// [`StreamedMetrics::from_partition`].
    ///
    /// When `partition` was itself produced by a stream of this kind over
    /// `graph`'s canonical edge order, the returned state is identical to
    /// the live state at the end of that stream, so placements continue
    /// bit-identically — this is how the serving layer resumes online
    /// placement against a stored partition. `Ok(None)` for Random and
    /// DBH, which decide by no replica state to resume from.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidAssignment`] if `partition` does not cover
    /// `graph`'s edges.
    pub fn seeded_placer<'a>(
        self,
        graph: impl Into<GraphView<'a>>,
        partition: &EdgePartition,
    ) -> Result<Option<StreamingPlacer>, PartitionError> {
        if matches!(self, StreamingKind::Random | StreamingKind::Dbh) {
            return Ok(None);
        }
        Ok(Some(StreamingPlacer {
            kind: self,
            seed: 0,
            degrees: Vec::new(),
            next_index: 0,
            fold: StreamedMetrics::from_partition(graph, partition)?,
        }))
    }
}

/// The per-edge placement state of a streaming heuristic.
///
/// [`place`](Self::place) is called once per arriving edge, in arrival
/// order; it decides the edge's partition by the placer's
/// [`StreamingKind`] and folds the decision into the placer's
/// [`StreamedMetrics`], whose replica sets, partial degrees and loads are
/// what Greedy and HDRF decide by.
#[derive(Clone, Debug)]
pub struct StreamingPlacer {
    kind: StreamingKind,
    /// Seed of Random's and DBH's hashes.
    seed: u64,
    /// The final vertex degrees DBH hashes by; empty for the other kinds.
    degrees: Vec<u32>,
    /// Random's arrival index: the number of edges placed so far.
    next_index: u64,
    fold: StreamedMetrics,
}

impl StreamingPlacer {
    /// Places the arriving edge `(u, v)` and returns its partition.
    pub fn place(&mut self, u: VertexId, v: VertexId) -> PartitionId {
        let num_partitions = self.fold.loads().len() as u64;
        let q = match self.kind {
            StreamingKind::Random => {
                let index = self.next_index;
                self.next_index += 1;
                (splitmix64(index ^ self.seed) % num_partitions) as PartitionId
            }
            StreamingKind::Dbh => {
                let (du, dv) = (self.degrees[u as usize], self.degrees[v as usize]);
                let anchor = if du < dv || (du == dv && u <= v) {
                    u
                } else {
                    v
                };
                (splitmix64(u64::from(anchor) ^ self.seed) % num_partitions) as PartitionId
            }
            StreamingKind::Greedy => greedy_pick(&self.fold, u, v) as PartitionId,
            StreamingKind::Hdrf => {
                hdrf_checked_pick(&self.fold, u, v, self.fold.lightest()) as PartitionId
            }
        };
        self.fold.observe_assignment(u, v, q);
        q
    }

    /// The metrics of every assignment placed (and, for a seeded placer,
    /// seeded) so far.
    pub fn finish(self) -> PartitionMetrics {
        self.fold.finish()
    }
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

/// HDRF's balance weight `λ`.
const HDRF_LAMBDA: f64 = 1.1;
const HDRF_EPSILON: f64 = 1e-9;

/// `(θ(u), θ(v))` of the arriving edge `(u, v)`: each endpoint's share of
/// the two partial degrees, counting the arriving edge, which `fold` has
/// not observed yet.
fn hdrf_theta(fold: &StreamedMetrics, u: VertexId, v: VertexId) -> (f64, f64) {
    let du = f64::from(fold.incidences(u) + 1);
    let dv = f64::from(fold.incidences(v) + 1);
    let theta_u = du / (du + dv);
    (theta_u, 1.0 - theta_u)
}

/// `C_rep(q) + C_bal(q)` of edge `(u, v)` for partition `q` (see
/// [`StreamingKind::Hdrf`] for the scoring rule).
fn hdrf_score(
    fold: &StreamedMetrics,
    u: VertexId,
    v: VertexId,
    theta: (f64, f64),
    q: usize,
    max_min: (f64, f64),
) -> f64 {
    let (max_load, min_load) = max_min;
    let mut c_rep = 0.0;
    if fold.has_replica(u, q) {
        c_rep += 1.0 + (1.0 - theta.0);
    }
    if fold.has_replica(v, q) {
        c_rep += 1.0 + (1.0 - theta.1);
    }
    let c_bal =
        HDRF_LAMBDA * (max_load - fold.loads()[q] as f64) / (HDRF_EPSILON + max_load - min_load);
    c_rep + c_bal
}

/// HDRF's placement of edge `(u, v)`: [`hdrf_pick`], which debug builds
/// check against [`hdrf_scan`]. `lightest` is `fold`'s lowest-id
/// least-loaded partition.
fn hdrf_checked_pick(fold: &StreamedMetrics, u: VertexId, v: VertexId, lightest: usize) -> usize {
    let theta = hdrf_theta(fold, u, v);
    let best = hdrf_pick(fold, u, v, theta, lightest);
    debug_assert_eq!(
        best,
        hdrf_scan(fold, u, v, theta),
        "HDRF pick left the literal scan"
    );
    best
}

/// The partition [`hdrf_scan`] picks, scoring at most four.
///
/// Partitions split into four groups of equal `C_rep`: those in both
/// replica sets, in `A(u)` only, in `A(v)` only, and in neither.
/// Within a group the score differs only by `C_bal`, which never rises
/// with the load, even rounded: the load subtraction is exact, and the
/// multiply, the divide by one positive denominator and the add of
/// `C_rep` all round monotonically. So the scan's winner in a group, on
/// score, then load, then id, is the group's lowest-id least-loaded
/// member, and the lowest-id least-loaded partition overall, `lightest`,
/// stands in for the last group: it scores at least as high as any
/// member.
fn hdrf_pick(
    fold: &StreamedMetrics,
    u: VertexId,
    v: VertexId,
    theta: (f64, f64),
    lightest: usize,
) -> usize {
    let (au, av) = (fold.replicas(u), fold.replicas(v));
    let loads = fold.loads();
    let lightest_of = |group: fn(u64, u64) -> u64| {
        let words = au.iter().zip(av).map(|(&a, &b)| group(a, b));
        least_loaded(loads, StreamedMetrics::partitions_in(words))
    };
    let group_best = [
        lightest_of(|a, b| a & b),
        lightest_of(|a, b| a & !b),
        lightest_of(|a, b| !a & b),
    ];
    let (min_load, max_load) = fold.load_range();
    let max_min = (max_load as f64, min_load as f64);
    group_best
        .into_iter()
        .flatten()
        .chain([lightest])
        .map(|q| (hdrf_score(fold, u, v, theta, q, max_min), q))
        .reduce(|best, (score, q)| {
            let wins =
                score > best.0 || (score == best.0 && (loads[q], q) < (loads[best.1], best.1));
            if wins {
                (score, q)
            } else {
                best
            }
        })
        .expect("the lightest partition is a candidate")
        .1
}

/// HDRF's literal `O(p)` pick: every partition scored, the highest score
/// wins, ties go to the lower load, then to the lower id. The reference
/// [`hdrf_pick`] is checked against.
fn hdrf_scan(fold: &StreamedMetrics, u: VertexId, v: VertexId, theta: (f64, f64)) -> usize {
    let loads = fold.loads();
    let max_load = loads.iter().copied().max().expect("p >= 1") as f64;
    let min_load = loads.iter().copied().min().expect("p >= 1") as f64;
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (q, &load) in loads.iter().enumerate() {
        let score = hdrf_score(fold, u, v, theta, q, (max_load, min_load));
        if score > best_score || (score == best_score && load < loads[best]) {
            best = q;
            best_score = score;
        }
    }
    best
}

/// Greedy's pick for edge `(u, v)` (see [`StreamingKind::Greedy`] for the
/// rules).
fn greedy_pick(fold: &StreamedMetrics, u: VertexId, v: VertexId) -> usize {
    let (au, av) = (fold.replicas(u), fold.replicas(v));
    let loads = fold.loads();
    let both = au.iter().zip(av).map(|(a, b)| a & b);
    let either = au.iter().zip(av).map(|(a, b)| a | b);
    // Rules 2 and 3 are one: when one set is empty, the union is the
    // other.
    least_loaded(loads, StreamedMetrics::partitions_in(both))
        .or_else(|| least_loaded(loads, StreamedMetrics::partitions_in(either)))
        .unwrap_or(fold.lightest())
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
            .view()
            .edge_iter()
            .map(|e| full.place(e.source(), e.target()))
            .collect();

        let prefix = g.view().edge_iter().take(split).collect();
        let prefix_graph = CsrGraph::from_sorted_canonical_edges(g.num_vertices(), prefix).unwrap();
        let prefix_partition = EdgePartition::new(p, full_assignments[..split].to_vec()).unwrap();
        let mut resumed = kind
            .seeded_placer(&prefix_graph, &prefix_partition)
            .unwrap()
            .expect("resumable kind");
        for (i, e) in g.view().edge_iter().enumerate().skip(split) {
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
        // 65 and 130 put the folded loads and replica sets across words.
        for p in [8, 65, 130] {
            assert_seeded_continuation(&g, split, p, StreamingKind::Hdrf);
        }
    }

    /// HDRF's candidate pick equals the literal scan at every step, in
    /// release builds too, for `p` on both sides of the 64-bit word.
    #[test]
    fn hdrf_pick_equals_the_scan_across_word_boundaries() {
        let g = chung_lu(600, 3000, 2.1, 13);
        for p in [1, 2, 63, 64, 65, 130] {
            for order in [EdgeOrder::Natural, EdgeOrder::Random(3)] {
                let mut fold = StreamedMetrics::new(g.num_vertices(), p);
                for eid in edge_order(g.view(), order) {
                    let (u, v) = g.edge(eid).endpoints();
                    let theta = hdrf_theta(&fold, u, v);
                    let best = hdrf_pick(&fold, u, v, theta, fold.lightest());
                    assert_eq!(
                        best,
                        hdrf_scan(&fold, u, v, theta),
                        "p={p} {order:?} edge {eid}"
                    );
                    fold.observe_assignment(u, v, best as PartitionId);
                }
                let loads = fold.loads();
                assert_eq!(loads.iter().sum::<usize>(), g.num_edges());
                let range = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
                assert_eq!(fold.load_range(), range);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "HDRF pick left the literal scan")]
    fn a_stale_lightest_partition_fails_the_cross_check() {
        let mut hdrf = StreamingKind::Hdrf.placer(4, 3, 0, None).unwrap();
        assert_eq!(hdrf.place(0, 1), 0);
        // Partition 1 is the lowest-id least-loaded one; claim 2 instead.
        hdrf_checked_pick(&hdrf.fold, 2, 3, 2);
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
