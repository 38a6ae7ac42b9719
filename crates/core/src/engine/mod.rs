//! The reusable local-expansion engine behind TLP, TLP_R, the single-stage
//! ablations, and the NE baseline (Algorithm 1 of the paper, generalized
//! over the vertex-selection policy).
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
//! What distinguishes the algorithms built on top is only *which frontier
//! vertex joins next* and *when edges are allocated*; both live in the
//! [`SelectionPolicy`] a caller passes to [`run`]:
//!
//! * [`StagedPolicy`] over a [`StageSwitch`] gives the TLP family
//!   (two-stage, TLP_R, single-stage ablations) with lazy admission;
//! * an eager-admission policy keyed on residual degree gives NE
//!   (implemented as `NePolicy` in the `tlp-baselines` crate).
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
//! only frontier vertices adjacent to it are rescored. Each term's
//! numerator `|N(u) ∩ N(w)|` is the triangle count of the edge `(u, w)`,
//! which depends on the input graph alone, so a lazy-admission run reads
//! it from a [`triangle_table`] built once per graph (and shared by every
//! trial of a [`ParallelTrialRunner`](crate::ParallelTrialRunner)) instead
//! of intersecting adjacency lists. Both policies see the exact Eq. 7
//! scores.
//!
//! All ties are broken by explicit deterministic keys, so results are
//! reproducible across runs and platforms.

mod frontier;
mod policy;
mod round;
mod workspace;

pub use policy::{
    AdmissionMode, EdgeRatioSwitch, GrowthState, ModularitySwitch, ScanPolicy, Selection,
    SelectionPolicy, StageSwitch, StagedPolicy,
};
pub(crate) use round::run_engine;
pub use round::{run, run_with_checkpoints, CheckpointSink};
pub use workspace::Workspace;

use crate::checkpoint::EngineCheckpoint;
use crate::config::TlpConfig;
use crate::partition::EdgePartition;
use crate::trace::Trace;
use crate::PartitionError;
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

/// Convenience: runs the staged (TLP-family) policy under `switch`.
pub(crate) fn run_staged<'g, S: StageSwitch>(
    graph: impl Into<GraphView<'g>>,
    num_partitions: usize,
    config: &TlpConfig,
    switch: S,
) -> Result<(EdgePartition, Option<Trace>), PartitionError> {
    let mut policy = StagedPolicy::new(switch);
    run(graph, num_partitions, config, &mut policy)
}

/// [`run_staged`] with kill-and-resume support (see
/// [`run_with_checkpoints`]).
pub(crate) fn run_staged_with_checkpoints<'g, S: StageSwitch>(
    graph: impl Into<GraphView<'g>>,
    num_partitions: usize,
    config: &TlpConfig,
    switch: S,
    resume: Option<&EngineCheckpoint>,
    sink: Option<CheckpointSink<'_>>,
) -> Result<(EdgePartition, Option<Trace>), PartitionError> {
    let mut policy = StagedPolicy::new(switch);
    run_with_checkpoints(graph, num_partitions, config, &mut policy, resume, sink)
}
