//! Per-run scratch state: round-stamped membership, the frontier dense
//! list, per-candidate scores, and the staged index the engine selects
//! through.
//!
//! Stage I scores are folded by [`Workspace::refresh_mu1`] from numerators
//! the caller reads in the run's triangle table, so the workspace itself
//! holds no graph-derived state beyond per-vertex arrays.

use crate::trace::Stage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tlp_graph::{ResidualGraph, VertexId};

/// Per-graph scratch reused across rounds (one allocation per run).
///
/// The workspace tracks *who* is a member and *who* is a candidate; *how*
/// candidates are ranked lives in the [`StagedIndex`] beside it. Vertex
/// membership and Stage I scores are stamped with the round index, so they
/// never need clearing between rounds.
pub(crate) struct Workspace {
    /// Round id if the vertex is a member of the partition currently being
    /// grown; `u32::MAX` when never selected in the current round.
    pub(crate) member_round: Vec<u32>,
    /// Whether the vertex is currently in the frontier.
    pub(crate) in_frontier: Vec<bool>,
    /// Residual edges from the vertex into the current partition (Stage II
    /// input); meaningful only for frontier vertices.
    pub(crate) e_in: Vec<u32>,
    /// Running maximum of the Stage I closeness term (Eq. 7) against the
    /// current partition's members; meaningful only where `mu1_round`
    /// holds the current round (otherwise it reads as 0).
    pub(crate) mu1: Vec<f64>,
    /// Round in which `mu1` was last folded into.
    pub(crate) mu1_round: Vec<u32>,
    /// The frontier as a dense list (deterministic iteration order).
    pub(crate) frontier: Vec<VertexId>,
    /// Position of each frontier vertex in `frontier` (for swap-removal).
    pub(crate) frontier_pos: Vec<u32>,
    /// Stage I closeness terms folded in the current round, flushed as the
    /// `scoring.terms` obs counter.
    pub(crate) scoring_terms: u64,
    /// Static-adjacency entries admission walked in the current round,
    /// flushed as the `admit.adjacency` obs counter.
    pub(crate) adjacency_steps: u64,
}

impl Workspace {
    /// Allocates a workspace for an `n`-vertex graph.
    pub(crate) fn new(n: usize) -> Self {
        Workspace {
            member_round: vec![u32::MAX; n],
            in_frontier: vec![false; n],
            e_in: vec![0; n],
            mu1: vec![0.0; n],
            mu1_round: vec![u32::MAX; n],
            frontier: Vec::new(),
            frontier_pos: vec![0; n],
            scoring_terms: 0,
            adjacency_steps: 0,
        }
    }

    /// Folds the closeness term of non-member `u` against an adjacent
    /// member `w` of round `k`'s partition into `mu1[u]`, returning
    /// whether the running maximum improved.
    ///
    /// This is the engine's single entry point for Stage I scoring work.
    /// `common` is the triangle-table entry of the edge `(u, w)`, which is
    /// `|N(u) ∩ N(w)|` over static adjacency, and `deg_w` is `|N(w)|`; the
    /// term is their quotient. A `mu1` last folded in an earlier round
    /// counts as 0.
    pub(crate) fn refresh_mu1(&mut self, u: VertexId, common: u32, deg_w: usize, k: u32) -> bool {
        self.scoring_terms += 1;
        let term = common as f64 / deg_w as f64;
        let ui = u as usize;
        if self.mu1_round[ui] != k {
            self.mu1_round[ui] = k;
            self.mu1[ui] = term;
            term > 0.0
        } else if term > self.mu1[ui] {
            self.mu1[ui] = term;
            true
        } else {
            false
        }
    }

    /// Registers one new residual edge from non-member `u` into the
    /// partition: bumps `e_in`, inserting `u` into the frontier first if it
    /// was not yet a candidate. Walks no adjacency: `u`'s Stage I score was
    /// already folded by the admission that found the edge.
    pub(crate) fn enroll_frontier_edge(&mut self, u: VertexId) {
        let ui = u as usize;
        if self.in_frontier[ui] {
            self.e_in[ui] += 1;
        } else {
            self.in_frontier[ui] = true;
            self.frontier_pos[ui] = self.frontier.len() as u32;
            self.frontier.push(u);
            self.e_in[ui] = 1;
        }
    }

    /// Removes `v` from the frontier.
    pub(crate) fn frontier_remove(&mut self, v: VertexId) {
        debug_assert!(self.in_frontier[v as usize]);
        let pos = self.frontier_pos[v as usize] as usize;
        let last = *self.frontier.last().expect("non-empty frontier");
        self.frontier.swap_remove(pos);
        if last != v {
            self.frontier_pos[last as usize] = pos as u32;
        }
        self.in_frontier[v as usize] = false;
    }

    /// Clears the frontier at the end of a round.
    pub(crate) fn frontier_clear(&mut self) {
        for &v in &self.frontier {
            self.in_frontier[v as usize] = false;
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

impl Stage1Entry {
    /// The entry of candidate `v` in its current state.
    fn of(ws: &Workspace, residual: &ResidualGraph<'_>, v: VertexId) -> Self {
        Stage1Entry {
            mu1: ws.mu1[v as usize],
            e_in: ws.e_in[v as usize],
            res_deg: residual.residual_degree(v) as u32,
            vertex: v,
        }
    }
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

/// Position marking a vertex absent from [`Stage1Heap`].
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap of [`Stage1Entry`]s, at most one per vertex.
///
/// Within a round a candidate's `mu1` and `e_in` only rise and its
/// residual degree is fixed, so its key only rises: an update sifts the
/// entry up in place, and the heap never holds a stale entry.
#[derive(Default)]
pub(crate) struct Stage1Heap {
    entries: Vec<Stage1Entry>,
    /// `pos[v]` is `v`'s index in `entries`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl Stage1Heap {
    /// Inserts `entry`, or raises its vertex's entry to it.
    ///
    /// A key may not fall (checked in debug builds).
    fn upsert(&mut self, entry: Stage1Entry) {
        let vi = entry.vertex as usize;
        if vi >= self.pos.len() {
            self.pos.resize(vi + 1, ABSENT);
        }
        let at = match self.pos[vi] {
            ABSENT => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
            at => {
                let at = at as usize;
                debug_assert!(entry >= self.entries[at], "stage-1 key fell");
                self.entries[at] = entry;
                at
            }
        };
        self.sift_up(at);
    }

    /// Removes and returns the maximum entry.
    pub(crate) fn pop(&mut self) -> Option<Stage1Entry> {
        let top = *self.entries.first()?;
        let last = self.entries.pop().expect("non-empty heap");
        self.pos[top.vertex as usize] = ABSENT;
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.pos[last.vertex as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Replaces the contents with `entries` (one per vertex) in `O(len)`.
    fn rebuild(&mut self, entries: impl IntoIterator<Item = Stage1Entry>) {
        self.clear();
        self.entries.extend(entries);
        for (i, entry) in self.entries.iter().enumerate() {
            let vi = entry.vertex as usize;
            if vi >= self.pos.len() {
                self.pos.resize(vi + 1, ABSENT);
            }
            debug_assert_eq!(self.pos[vi], ABSENT, "vertex {vi} entered twice");
            self.pos[vi] = i as u32;
        }
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Empties the heap.
    fn clear(&mut self) {
        for entry in self.entries.drain(..) {
            self.pos[entry.vertex as usize] = ABSENT;
        }
    }

    fn sift_up(&mut self, mut at: usize) {
        let entry = self.entries[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.entries[parent] >= entry {
                break;
            }
            self.place(at, self.entries[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    fn sift_down(&mut self, mut at: usize) {
        let entry = self.entries[at];
        let len = self.entries.len();
        loop {
            let left = 2 * at + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.entries[right] > self.entries[left] {
                right
            } else {
                left
            };
            if self.entries[child] <= entry {
                break;
            }
            self.place(at, self.entries[child]);
            at = child;
        }
        self.place(at, entry);
    }

    fn place(&mut self, at: usize, entry: Stage1Entry) {
        self.pos[entry.vertex as usize] = at as u32;
        self.entries[at] = entry;
    }
}

/// The engine's priority structure for the live stage only: the indexed
/// [`Stage1Heap`] while Stage I picks, or per-`e_in` lazy min-heap buckets
/// on `e_ext` while Stage II picks. Rebuilt from the frontier on a round's
/// first selection and whenever the stage changes. The engine keeps one
/// beside the [`Workspace`] for the whole run.
#[derive(Default)]
pub(crate) struct StagedIndex {
    /// The stage whose structure is maintained; `None` until a round's
    /// first selection.
    live: Option<Stage>,
    /// Stage I priority queue (exact; one entry per candidate).
    pub(crate) stage1_heap: Stage1Heap,
    /// Stage II buckets: `stage2_buckets[e_in]` is a lazy min-heap of
    /// `(e_ext, vertex)`.
    pub(crate) stage2_buckets: Vec<BinaryHeap<Reverse<(u32, VertexId)>>>,
    /// Bucket indices holding entries (for iteration/clearing).
    pub(crate) active_buckets: Vec<u32>,
    /// Whether a bucket is listed in `active_buckets`; reset by `clear`,
    /// so a rebuild later in the same round relists every bucket it fills.
    bucket_listed: Vec<bool>,
    /// Stage I upserts plus Stage II pushes in the current round.
    updates: u64,
    /// Stale Stage II entries dropped in the current round.
    pub(crate) stale: u64,
    /// Rebuilds of the live structure in the current round.
    rebuilds: u64,
}

impl StagedIndex {
    /// Records that candidate `v`'s state rose (`e_in_rose`: its `e_in`,
    /// otherwise only its `mu1`) in the live stage's structure.
    pub(crate) fn on_candidate(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        e_in_rose: bool,
    ) {
        match self.live {
            Some(Stage::One) => self.stage1_heap.upsert(Stage1Entry::of(ws, residual, v)),
            // A Stage II entry depends on `e_in` alone.
            Some(Stage::Two) if e_in_rose => self.push_stage2(ws, residual, v),
            _ => return,
        }
        self.updates += 1;
    }

    /// Makes `stage` the live stage, rebuilding its structure from the
    /// frontier unless it is live already.
    pub(crate) fn make_live(&mut self, ws: &Workspace, residual: &ResidualGraph<'_>, stage: Stage) {
        if self.live == Some(stage) {
            return;
        }
        self.clear();
        self.live = Some(stage);
        self.rebuilds += 1;
        self.updates += ws.frontier.len() as u64;
        match stage {
            Stage::One => self.stage1_heap.rebuild(
                ws.frontier
                    .iter()
                    .map(|&v| Stage1Entry::of(ws, residual, v)),
            ),
            Stage::Two => {
                for &v in &ws.frontier {
                    self.push_stage2(ws, residual, v);
                }
            }
        }
    }

    fn push_stage2(&mut self, ws: &Workspace, residual: &ResidualGraph<'_>, v: VertexId) {
        let e_in = ws.e_in[v as usize];
        let res_deg = residual.residual_degree(v) as u32;
        let bucket = e_in as usize;
        if bucket >= self.stage2_buckets.len() {
            self.stage2_buckets.resize_with(bucket + 1, BinaryHeap::new);
            self.bucket_listed.resize(bucket + 1, false);
        }
        if !self.bucket_listed[bucket] {
            self.bucket_listed[bucket] = true;
            self.active_buckets.push(bucket as u32);
        }
        self.stage2_buckets[bucket].push(Reverse((res_deg - e_in, v)));
    }

    /// Drops every entry of both structures; nothing is live afterwards.
    fn clear(&mut self) {
        self.live = None;
        self.stage1_heap.clear();
        for &b in &self.active_buckets {
            self.stage2_buckets[b as usize].clear();
            self.bucket_listed[b as usize] = false;
        }
        self.active_buckets.clear();
    }

    /// Ends a round: drops its entries and flushes its work counters as the
    /// `index.updates`, `index.stale` and `index.rebuilds` obs counters.
    pub(crate) fn end_round(&mut self) {
        self.clear();
        if tlp_obs::is_enabled() {
            tlp_obs::counter("index.updates", self.updates);
            tlp_obs::counter("index.stale", self.stale);
            tlp_obs::counter("index.rebuilds", self.rebuilds);
        }
        self.updates = 0;
        self.stale = 0;
        self.rebuilds = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(vertex: VertexId, mu1: f64, e_in: u32) -> Stage1Entry {
        Stage1Entry {
            mu1,
            e_in,
            res_deg: 7,
            vertex,
        }
    }

    #[test]
    fn upsert_raises_an_entry_in_place() {
        let mut heap = Stage1Heap::default();
        heap.rebuild([entry(0, 0.5, 1), entry(1, 0.25, 1), entry(2, 0.0, 2)]);
        heap.upsert(entry(2, 0.75, 2));
        heap.upsert(entry(3, 0.25, 1));
        let order: Vec<VertexId> = std::iter::from_fn(|| heap.pop())
            .map(|e| e.vertex)
            .collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    proptest! {
        /// Random rising upserts interleaved with pops and rebuilds: every
        /// pop returns the maximum of a plain map holding each vertex's
        /// latest entry.
        #[test]
        fn indexed_heap_matches_a_sorted_reference(
            ops in prop::collection::vec((0u32..24, 0u32..4, 0u32..3, 0u8..8), 1..200)
        ) {
            let mut heap = Stage1Heap::default();
            let mut reference: std::collections::BTreeMap<VertexId, Stage1Entry> =
                std::collections::BTreeMap::new();
            for (vertex, mu1_step, e_in_step, op) in ops {
                match op {
                    0 => heap.rebuild(reference.values().copied()),
                    1..=3 => {
                        let want = reference.values().max().copied();
                        if let Some(want) = want {
                            reference.remove(&want.vertex);
                        }
                        prop_assert_eq!(heap.pop(), want);
                    }
                    _ => {
                        let old = reference
                            .get(&vertex)
                            .copied()
                            .unwrap_or(entry(vertex, 0.0, 0));
                        let new = entry(
                            vertex,
                            old.mu1 + f64::from(mu1_step) / 4.0,
                            old.e_in + e_in_step,
                        );
                        reference.insert(vertex, new);
                        heap.upsert(new);
                    }
                }
            }
            let mut rest: Vec<Stage1Entry> = reference.into_values().collect();
            rest.sort_by(|a, b| b.cmp(a));
            let drained: Vec<Stage1Entry> = std::iter::from_fn(|| heap.pop()).collect();
            prop_assert_eq!(drained, rest);
        }
    }
}
