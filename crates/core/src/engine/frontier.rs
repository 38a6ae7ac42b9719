//! The staged selection functions for both stages: the indexed versions
//! over [`StagedIndex`] the engine selects with, and the linear scans of
//! Algorithm 1 that debug builds check every indexed pick against.

use super::workspace::{StagedIndex, Workspace};
use crate::stage2::GainRatio;
use std::cmp::Reverse;
use tlp_graph::{ResidualGraph, VertexId};

type StageOneKey = (f64, u32, usize);

fn stage_one_key(ws: &Workspace, residual: &ResidualGraph<'_>, v: VertexId) -> StageOneKey {
    (
        ws.mu1[v as usize],
        ws.e_in[v as usize],
        residual.residual_degree(v),
    )
}

/// Stage I selection, reference implementation: scan the whole frontier.
/// Argmax `mu_s1`, ties broken by attachment (`e_in`), then residual degree,
/// then lowest vertex id. The tie-break chain also serves as the fallback
/// when every candidate scores 0 (no shared neighbors — e.g. in trees).
pub(super) fn select_stage_one_scan(ws: &Workspace, residual: &ResidualGraph<'_>) -> VertexId {
    let mut best = ws.frontier[0];
    let mut best_key = stage_one_key(ws, residual, best);
    for &v in &ws.frontier[1..] {
        let key = stage_one_key(ws, residual, v);
        if key > best_key || (key == best_key && v < best) {
            best = v;
            best_key = key;
        }
    }
    best
}

/// Stage I selection via the indexed max-heap: its top is the argmax, as
/// every candidate's entry is kept current.
pub(super) fn select_stage_one_heap(
    index: &mut StagedIndex,
    ws: &Workspace,
    residual: &ResidualGraph<'_>,
) -> VertexId {
    let entry = index
        .stage1_heap
        .pop()
        .expect("frontier non-empty but stage-1 heap exhausted");
    let vi = entry.vertex as usize;
    debug_assert!(ws.in_frontier[vi] && ws.e_in[vi] == entry.e_in);
    debug_assert!(ws.mu1[vi].total_cmp(&entry.mu1).is_eq());
    debug_assert_eq!(residual.residual_degree(entry.vertex) as u32, entry.res_deg);
    entry.vertex
}

type StageTwoKey = (GainRatio, u32, Reverse<usize>);

fn stage_two_key(
    ws: &Workspace,
    residual: &ResidualGraph<'_>,
    internal: usize,
    external: usize,
    v: VertexId,
) -> StageTwoKey {
    let e_in = ws.e_in[v as usize] as usize;
    let e_ext = residual.residual_degree(v) - e_in;
    (
        GainRatio::new(internal, external, e_in, e_ext),
        e_in as u32,
        Reverse(e_ext),
    )
}

/// Stage II selection, reference implementation: scan the whole frontier.
/// Argmax post-admission modularity (exact fraction), ties broken by
/// attachment, then fewest new external edges, then lowest vertex id.
pub(super) fn select_stage_two_scan(
    ws: &Workspace,
    residual: &ResidualGraph<'_>,
    internal: usize,
    external: usize,
) -> VertexId {
    let mut best = ws.frontier[0];
    let mut best_key = stage_two_key(ws, residual, internal, external, best);
    for &v in &ws.frontier[1..] {
        let key = stage_two_key(ws, residual, internal, external, v);
        if key > best_key || (key == best_key && v < best) {
            best = v;
            best_key = key;
        }
    }
    best
}

/// Stage II selection via the `e_in` buckets: only each bucket's minimum
/// `(e_ext, id)` candidate can be the argmax within its `e_in` class, so it
/// suffices to compare one representative per active bucket.
pub(super) fn select_stage_two_heap(
    index: &mut StagedIndex,
    ws: &Workspace,
    residual: &ResidualGraph<'_>,
    internal: usize,
    external: usize,
) -> VertexId {
    let mut best: Option<(StageTwoKey, VertexId, usize)> = None;
    for bi in 0..index.active_buckets.len() {
        let bucket = index.active_buckets[bi] as usize;
        // Drop stale tops: an entry is valid iff the vertex is still a
        // candidate with exactly this e_in (then its e_ext is implied by its
        // constant residual degree).
        let rep = loop {
            match index.stage2_buckets[bucket].peek() {
                None => break None,
                Some(&Reverse((_, v))) => {
                    let vi = v as usize;
                    if ws.in_frontier[vi] && ws.e_in[vi] as usize == bucket {
                        break Some(v);
                    }
                    index.stage2_buckets[bucket].pop();
                    index.stale += 1;
                }
            }
        };
        let Some(v) = rep else { continue };
        let key = stage_two_key(ws, residual, internal, external, v);
        let better = match &best {
            None => true,
            Some((bk, bv, _)) => key > *bk || (key == *bk && v < *bv),
        };
        if better {
            best = Some((key, v, bucket));
        }
    }
    let (_, v, bucket) = best.expect("frontier non-empty but no stage-2 candidate");
    // The winner leaves the frontier: drop its entry now rather than as a
    // stale top later.
    index.stage2_buckets[bucket].pop();
    v
}
