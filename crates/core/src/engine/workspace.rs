//! Per-run scratch state shared by every selection policy: round-stamped
//! membership, the frontier dense list, per-candidate scores, and the
//! staged priority structures (heaps) used by the indexed policy.
//!
//! Stage I scores are folded by [`Workspace::refresh_mu1`] from numerators
//! the caller reads in the run's triangle table, so the workspace itself
//! holds no graph-derived state beyond per-vertex arrays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tlp_graph::{EdgeId, ResidualGraph, VertexId};

/// Per-graph scratch reused across rounds (one allocation per run).
///
/// The workspace tracks *who* is a member and *who* is a candidate; *how*
/// candidates are ranked lives in the
/// [`SelectionPolicy`](super::SelectionPolicy) driving the run. Vertex
/// membership is stamped with the round index, so it never needs clearing
/// between rounds.
pub struct Workspace {
    /// Round id if the vertex is a member of the partition currently being
    /// grown; `u32::MAX` when never selected in the current round.
    pub(crate) member_round: Vec<u32>,
    /// Whether the vertex is currently in the frontier.
    pub(crate) in_frontier: Vec<bool>,
    /// Residual edges from the vertex into the current partition (Stage II
    /// input).
    pub(crate) e_in: Vec<u32>,
    /// Running maximum of the Stage I closeness term (Eq. 7).
    pub(crate) mu1: Vec<f64>,
    /// The frontier as a dense list (deterministic iteration order).
    pub(crate) frontier: Vec<VertexId>,
    /// Position of each frontier vertex in `frontier` (for swap-removal).
    pub(crate) frontier_pos: Vec<u32>,
    /// Scratch for collecting a vertex's residual incidence.
    pub(crate) incident_scratch: Vec<(VertexId, EdgeId)>,
    /// Stage I closeness terms folded in the current round, flushed as the
    /// `scoring.terms` obs counter.
    pub(crate) scoring_terms: u64,
}

impl Workspace {
    /// Allocates a workspace for an `n`-vertex graph.
    pub(crate) fn new(n: usize) -> Self {
        Workspace {
            member_round: vec![u32::MAX; n],
            in_frontier: vec![false; n],
            e_in: vec![0; n],
            mu1: vec![0.0; n],
            frontier: Vec::new(),
            frontier_pos: vec![0; n],
            incident_scratch: Vec::new(),
            scoring_terms: 0,
        }
    }

    /// Folds the closeness term of candidate `u` against an adjacent member
    /// `w` into `mu1[u]`, returning whether the running maximum improved.
    ///
    /// This is the engine's single entry point for Stage I scoring work.
    /// `common` is the triangle-table entry of the edge `(u, w)`, which is
    /// `|N(u) ∩ N(w)|` over static adjacency, and `deg_w` is `|N(w)|`; the
    /// term is their quotient.
    pub(crate) fn refresh_mu1(&mut self, u: VertexId, common: u32, deg_w: usize) -> bool {
        self.scoring_terms += 1;
        let term = common as f64 / deg_w as f64;
        let ui = u as usize;
        if term > self.mu1[ui] {
            self.mu1[ui] = term;
            true
        } else {
            false
        }
    }

    /// Removes `v` from the frontier, resetting its candidate state.
    pub(crate) fn frontier_remove(&mut self, v: VertexId) {
        debug_assert!(self.in_frontier[v as usize]);
        let pos = self.frontier_pos[v as usize] as usize;
        let last = *self.frontier.last().expect("non-empty frontier");
        self.frontier.swap_remove(pos);
        if last != v {
            self.frontier_pos[last as usize] = pos as u32;
        }
        self.in_frontier[v as usize] = false;
        self.e_in[v as usize] = 0;
        self.mu1[v as usize] = 0.0;
    }

    /// Clears the frontier at the end of a round.
    pub(crate) fn frontier_clear(&mut self) {
        for i in 0..self.frontier.len() {
            let v = self.frontier[i] as usize;
            self.in_frontier[v] = false;
            self.e_in[v] = 0;
            self.mu1[v] = 0.0;
        }
        self.frontier.clear();
    }
}

/// Heap entry for Stage I: ordered by `(mu1, e_in, residual_degree, -id)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Stage1Entry {
    pub(crate) mu1: f64,
    pub(crate) e_in: u32,
    pub(crate) res_deg: u32,
    pub(crate) vertex: VertexId,
}

impl Eq for Stage1Entry {}

impl Ord for Stage1Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mu1
            .total_cmp(&other.mu1)
            .then(self.e_in.cmp(&other.e_in))
            .then(self.res_deg.cmp(&other.res_deg))
            .then(other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for Stage1Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The staged policy's priority structures: a lazy max-heap over the
/// Stage I key plus per-`e_in` lazy min-heap buckets on `e_ext` for
/// Stage II. Owned by [`StagedPolicy`](super::StagedPolicy), not the
/// workspace, so the reference scan pays nothing for it.
#[derive(Default)]
pub(crate) struct StagedIndex {
    /// Stage I priority queue (lazy; entries validated against `mu1`/`e_in`).
    pub(crate) stage1_heap: BinaryHeap<Stage1Entry>,
    /// Stage II buckets: `stage2_buckets[e_in]` is a lazy min-heap of
    /// `(e_ext, vertex)`.
    pub(crate) stage2_buckets: Vec<BinaryHeap<Reverse<(u32, VertexId)>>>,
    /// Bucket indices touched in the current round (for iteration/clearing).
    pub(crate) active_buckets: Vec<u32>,
    /// Round stamp marking a bucket as listed in `active_buckets`.
    pub(crate) bucket_stamp: Vec<u32>,
}

impl StagedIndex {
    /// Pushes the candidate's current state into both priority structures.
    pub(crate) fn push_candidate_state(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        round: u32,
    ) {
        let vi = v as usize;
        let e_in = ws.e_in[vi];
        let res_deg = residual.residual_degree(v) as u32;
        self.stage1_heap.push(Stage1Entry {
            mu1: ws.mu1[vi],
            e_in,
            res_deg,
            vertex: v,
        });
        let bucket = e_in as usize;
        if bucket >= self.stage2_buckets.len() {
            self.stage2_buckets.resize_with(bucket + 1, BinaryHeap::new);
            self.bucket_stamp.resize(bucket + 1, u32::MAX);
        }
        if self.bucket_stamp[bucket] != round {
            self.bucket_stamp[bucket] = round;
            self.active_buckets.push(bucket as u32);
        }
        self.stage2_buckets[bucket].push(Reverse((res_deg - e_in, v)));
    }

    /// Clears all per-round entries (bucket stamps persist; they are
    /// compared against the round index, which never repeats in a run).
    pub(crate) fn clear(&mut self) {
        self.stage1_heap.clear();
        for &b in &self.active_buckets {
            self.stage2_buckets[b as usize].clear();
        }
        self.active_buckets.clear();
    }
}
