//! The local-expansion engine behind TLP, TLP_R and the single-stage
//! ablations (Algorithm 1 of the paper).
//!
//! One partition is grown per round. The engine maintains:
//!
//! * a [`ResidualGraph`](tlp_graph::ResidualGraph) of not-yet-allocated
//!   edges (rounds consume edges);
//! * the member set of the current partition (stamped per round);
//! * the frontier `N(P_k)`: non-members with at least one residual edge
//!   into the partition, each carrying
//!   - `e_in`: residual edges into the partition (Stage II input), and
//!   - `mu1`: the running maximum of Eq. 7's closeness term (Stage I
//!     input), folded in as members join;
//! * exact integer counts of internal and external edges (the modularity).
//!
//! Admission is lazy: an edge is allocated when its second endpoint joins
//! the partition. What distinguishes the algorithms built on top is only
//! *which stage picks the next frontier vertex*: the engine asks the
//! config's [`StageSwitch`](crate::StageSwitch) for the stage of every
//! selection, and its staged index finds that stage's argmax. The NE
//! baseline (`tlp-baselines`) grows partitions too, but by eager
//! admission, in its own loop.
//!
//! # Admission
//!
//! Admitting `v` is one walk over its static neighbours. A member
//! neighbour's free edge is allocated. Every non-member neighbour `u`,
//! candidate or not, folds `v`'s closeness term into `mu1[u]`, and if the
//! edge is free, `u` enrolls (its `e_in` rises, or it joins the
//! frontier). Eq. 7 scores a candidate `u` by `max |N(u) ∩ N(w)| / |N(w)|`
//! over its member neighbours `w`; each numerator is the triangle count
//! of the edge `(u, w)`, which depends on the input graph alone, so the
//! run reads it from a per-edge triangle table built once per graph (and
//! shared by every trial of a
//! [`ParallelTrialRunner`](crate::ParallelTrialRunner)) instead of
//! intersecting adjacency lists. `mu1` is stamped with the round, so a
//! vertex joining the frontier already holds the maximum over every member
//! adjacent to it and enrollment walks nothing; a maximum does not depend
//! on the order of its terms, so the scores are Eq. 7's exact values.
//!
//! # Frontier selection
//!
//! The engine keeps one [`StagedIndex`](workspace::StagedIndex) beside
//! its [`Workspace`](workspace::Workspace), holding the live stage only
//! (the stage of the latest selection), and rebuilds it from the frontier
//! on a round's first selection and whenever the stage changes. Stage I's
//! index is an indexed max-heap with one entry per candidate: a
//! candidate's residual degree never changes while it waits (its edges are
//! only consumed when it joins), and within a round its `mu1` and `e_in`
//! only rise, so its key only rises and is raised in place. Stage II's
//! index is one lazy min-heap on `e_ext` per `e_in` value: `e_ext =
//! residual_degree - e_in` shrinks monotonically and the Stage II
//! objective is increasing in `e_in` / decreasing in `e_ext`, so the
//! bucket minimum is the only candidate of its `e_in` class that can win.
//! A bucket's stale entries are dropped when they reach its top.
//!
//! The index returns the argmax of Algorithm 1's literal per-step frontier
//! scan (`O(|N(P_k)|)` per step), ties included, so partitions are the
//! scan's. Debug builds check that on every selection: the scan runs
//! beside the index before admission changes the frontier, and a
//! difference panics. Release builds compile the check out.
//!
//! All ties are broken by explicit deterministic keys, so results are
//! reproducible across runs and platforms.

mod frontier;
mod round;
mod workspace;

pub use round::CheckpointSink;
pub(crate) use round::{run_engine, RunExtras};

use tlp_graph::GraphView;

/// Builds the per-edge triangle table Stage I reads, under one `tri.build`
/// span carrying the graph's triangle total as `tri.triangles`.
pub(crate) fn triangle_table(graph: GraphView<'_>) -> Vec<u32> {
    let _build = tlp_obs::span("tri.build");
    let table = tlp_graph::intersect::edge_triangles(graph);
    if tlp_obs::is_enabled() {
        let credits: u64 = table.iter().map(|&t| u64::from(t)).sum();
        tlp_obs::counter("tri.triangles", credits / 3);
    }
    table
}
