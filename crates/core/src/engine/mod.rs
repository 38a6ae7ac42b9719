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
//!     input), updated incrementally as members join;
//! * exact integer counts of internal and external edges (the modularity).
//!
//! Admission is lazy: an edge is allocated when its second endpoint joins
//! the partition. What distinguishes the algorithms built on top is only
//! *which stage picks the next frontier vertex*: the engine asks the
//! config's [`StageSwitch`](crate::StageSwitch) for the stage of every
//! selection, and the sealed [`SelectionPolicy`] passed to [`run`] finds
//! that stage's argmax. The NE baseline (`tlp-baselines`) grows partitions
//! too, but by eager admission, in its own loop.
//!
//! # Frontier selection
//!
//! [`StagedPolicy`] locates the stage's argmax with lazy heaps: a max-heap
//! over the Stage I key, plus one min-heap on `e_ext` per `e_in` value for
//! Stage II. The latter is sound because a frontier candidate's residual
//! degree never changes while it waits (its edges are only consumed when
//! it joins), so `e_in` grows monotonically, `e_ext = residual_degree -
//! e_in` shrinks monotonically, and the Stage II objective is increasing
//! in `e_in` / decreasing in `e_ext` — the bucket minimum is the only
//! candidate of its `e_in` class that can win. Stale entries are dropped
//! when they reach the top.
//!
//! [`ScanPolicy`] is the reference: it scans the whole frontier per step,
//! exactly as Algorithm 1 is written (`O(|N(P_k)|)` per step). The two
//! compute the identical argmax, ties included, and therefore identical
//! partitions; tests pin that by running both through [`run`].
//!
//! Under either policy, Stage I scores (`mu1`) are maintained
//! incrementally by `Workspace::refresh_mu1`: when a member is admitted,
//! only frontier vertices adjacent to it are rescored. Eq. 7 scores a
//! candidate `u` by `max |N(u) ∩ N(w)| / |N(w)|` over its member
//! neighbors `w`; each numerator is the triangle count of the edge
//! `(u, w)`, which depends on the input graph alone, so the run reads it
//! from a per-edge triangle table built once per graph (and shared by
//! every trial of a [`ParallelTrialRunner`](crate::ParallelTrialRunner))
//! instead of intersecting adjacency lists. Both policies see the exact
//! Eq. 7 scores.
//!
//! All ties are broken by explicit deterministic keys, so results are
//! reproducible across runs and platforms.

mod frontier;
mod policy;
mod round;
mod workspace;

pub use policy::{ScanPolicy, SelectionPolicy, StagedPolicy};
pub use round::{run, CheckpointSink};
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
