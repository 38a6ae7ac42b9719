//! The seed -> grow -> allocate loop (Algorithm 1 of the paper), selecting
//! frontier vertices through the staged index.

use super::frontier;
use super::triangle_table;
use super::workspace::{StagedIndex, Workspace};
use crate::checkpoint::{graph_fingerprint, EngineCheckpoint};
use crate::config::{capacity, ReseedPolicy, TlpConfig};
use crate::partition::{EdgePartition, PartitionId};
use crate::trace::{SelectionRecord, Stage, Trace};
use crate::PartitionError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_graph::{GraphView, ResidualGraph, VertexId};

/// Callback invoked with the engine snapshot after each completed round.
/// Returning an error aborts the run (persisting a checkpoint failed).
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&EngineCheckpoint) -> Result<(), PartitionError>;

/// What a run may add to a plain partitioning.
#[derive(Default)]
pub(crate) struct RunExtras<'a> {
    /// Start from this round-boundary snapshot instead of round 0: the
    /// assignment and residual graph are restored from its arrays and the
    /// RNG continues from its saved state, so the final partition is
    /// bit-identical to the uninterrupted run's.
    pub(crate) resume: Option<&'a EngineCheckpoint>,
    /// Receives a consistent [`EngineCheckpoint`] after each completed
    /// round. Sound because the staged index carries no cross-round state
    /// (`StagedIndex::end_round` clears it).
    pub(crate) sink: Option<CheckpointSink<'a>>,
    /// The [`triangle_table`] of the graph, so several runs over one graph
    /// share a single build; without it, the run builds its own.
    pub(crate) triangles: Option<&'a [u32]>,
    /// Receives one record per selection of the rounds the run executes.
    pub(crate) trace: Option<&'a mut Trace>,
}

/// Runs the full local partitioning (all `p` rounds), with the stage of
/// every selection chosen by `config`'s [`StageSwitch`](crate::StageSwitch)
/// and the [`RunExtras`] applied.
///
/// The RNG is seeded once from `config.seed()` and consumed only by
/// seed/reseed draws, so the stream a run observes is a function of the
/// seed alone.
///
/// # Errors
///
/// [`PartitionError::ZeroPartitions`] for `num_partitions == 0`,
/// [`PartitionError::InvalidParameter`] for a config out of range, and
/// [`PartitionError::Checkpoint`] if `extras.resume` does not match this
/// graph/config or the sink fails.
pub(crate) fn run_engine<'g>(
    graph: impl Into<GraphView<'g>>,
    num_partitions: usize,
    config: &TlpConfig,
    extras: RunExtras<'_>,
) -> Result<EdgePartition, PartitionError> {
    let RunExtras {
        resume,
        mut sink,
        triangles,
        mut trace,
    } = extras;
    let graph = graph.into();
    if num_partitions == 0 {
        return Err(PartitionError::ZeroPartitions);
    }
    config.validate()?;

    let m = graph.num_edges();
    let n = graph.num_vertices();
    if m == 0 {
        return EdgePartition::new(num_partitions, vec![]);
    }

    let capacity = capacity(m, num_partitions);
    let mut residual = ResidualGraph::new(graph);
    let mut ws = Workspace::new(n);
    let mut index = StagedIndex::default();

    let (mut assignment, mut rng, start_round) = match resume {
        None => {
            let assignment: Vec<PartitionId> = vec![0; m];
            (assignment, StdRng::seed_from_u64(config.seed_value()), 0u32)
        }
        Some(ckpt) => {
            ckpt.validate_for(graph, num_partitions, config)?;
            for (e, &alloc) in ckpt.allocated.iter().enumerate() {
                if alloc {
                    residual.allocate(e as tlp_graph::EdgeId);
                }
            }
            (
                ckpt.assignment.clone(),
                StdRng::from_state(ckpt.rng_state),
                ckpt.next_round,
            )
        }
    };

    let built;
    let triangles: &[u32] = match triangles {
        Some(table) => table,
        None => {
            built = triangle_table(graph);
            &built
        }
    };
    debug_assert_eq!(triangles.len(), m);
    // Bound into every snapshot; a plain run never computes it.
    let fingerprint = sink.is_some().then(|| graph_fingerprint(graph));

    for k in start_round..num_partitions as u32 {
        if residual.is_exhausted() {
            break;
        }
        run_round(
            graph,
            triangles,
            &mut residual,
            &mut ws,
            &mut index,
            &mut assignment,
            &mut rng,
            k,
            capacity,
            config,
            trace.as_deref_mut(),
        );
        if let Some(sink) = sink.as_mut() {
            let _checkpoint_span = tlp_obs::span("checkpoint");
            let snapshot = EngineCheckpoint {
                seed: config.seed_value(),
                stage_switch: config.stage_switch_value(),
                reseed_policy: config.reseed_policy_value(),
                num_partitions,
                next_round: k + 1,
                rng_state: rng.state(),
                assignment: assignment.clone(),
                allocated: (0..m as tlp_graph::EdgeId)
                    .map(|e| !residual.is_free(e))
                    .collect(),
                num_vertices: n,
                num_edges: m,
                graph_fingerprint: fingerprint.expect("computed when a sink is set"),
            };
            sink(&snapshot)?;
        }
    }

    // Sweep any leftovers (possible only under `ReseedPolicy::Break`):
    // distribute remaining edges to the least-loaded partitions so the
    // partition is total. Loads count allocated edges only; a free edge's
    // assignment slot is a placeholder 0.
    if !residual.is_exhausted() {
        let mut counts = vec![0usize; num_partitions];
        for (e, &pid) in assignment.iter().enumerate() {
            if !residual.is_free(e as tlp_graph::EdgeId) {
                counts[pid as usize] += 1;
            }
        }
        for e in 0..m as tlp_graph::EdgeId {
            if residual.is_free(e) {
                let (target, _) = counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &c)| (c, i))
                    .expect("at least one partition");
                assignment[e as usize] = target as PartitionId;
                counts[target] += 1;
                residual.allocate(e);
            }
        }
    }

    EdgePartition::new(num_partitions, assignment)
}

/// Grows partition `k` until capacity is exceeded or edges run out
/// (Algorithm 1).
#[allow(clippy::too_many_arguments)]
fn run_round(
    graph: GraphView<'_>,
    triangles: &[u32],
    residual: &mut ResidualGraph<'_>,
    ws: &mut Workspace,
    index: &mut StagedIndex,
    assignment: &mut [PartitionId],
    rng: &mut StdRng,
    k: u32,
    capacity: usize,
    config: &TlpConfig,
    mut trace: Option<&mut Trace>,
) {
    let _round_span = tlp_obs::span_with(
        "round",
        vec![("k".to_string(), tlp_obs::Field::U64(u64::from(k)))],
    );
    let mut internal = 0usize;
    let mut external = 0usize;
    let mut step = 0u32;
    ws.scoring_terms = 0;
    ws.adjacency_steps = 0;

    // Line 1-3: random seed vertex; its neighbors form the frontier.
    seed_vertex(
        graph,
        triangles,
        residual,
        ws,
        index,
        rng,
        assignment,
        k,
        &mut internal,
        &mut external,
    );

    // Line 4: while |E(P_k)| <= C.
    while internal <= capacity {
        if ws.frontier.is_empty() {
            // Line 11-13: frontier exhausted.
            if residual.is_exhausted() || config.reseed_policy_value() == ReseedPolicy::Break {
                break;
            }
            seed_vertex(
                graph,
                triangles,
                residual,
                ws,
                index,
                rng,
                assignment,
                k,
                &mut internal,
                &mut external,
            );
            continue;
        }

        // Lines 5-9: the switch picks the stage, the index its optimal
        // vertex.
        let stage = config
            .stage_switch_value()
            .stage(internal, external, capacity);
        let v = select_vertex(index, ws, residual, stage, internal, external);

        // Line 10: allocate the edges between v and P_k.
        admit_vertex(
            graph,
            triangles,
            residual,
            ws,
            index,
            assignment,
            k,
            v,
            &mut internal,
            &mut external,
        );

        if let Some(t) = trace.as_deref_mut() {
            t.push(SelectionRecord {
                partition: k,
                step,
                vertex: v,
                degree: graph.degree(v) as u32,
                stage,
            });
        }
        step += 1;

        if residual.is_exhausted() {
            break;
        }
    }

    if tlp_obs::is_enabled() {
        // Round-granularity flush: the per-selection hot path never emits.
        tlp_obs::counter("round.select", u64::from(step));
        tlp_obs::counter("round.edges", internal as u64);
        tlp_obs::counter("scoring.terms", ws.scoring_terms);
        tlp_obs::counter("admit.adjacency", ws.adjacency_steps);
    }
    ws.frontier_clear();
    index.end_round();
}

/// Picks `stage`'s optimal vertex from the non-empty frontier of a
/// partition holding `internal` edges with `external` boundary edges, by
/// the staged index, after making `stage` its live stage.
///
/// Debug builds check every pick against Algorithm 1's literal frontier
/// scan, run before admission changes the frontier, and panic if the index
/// disagrees with it; release builds compile the scan out.
fn select_vertex(
    index: &mut StagedIndex,
    ws: &Workspace,
    residual: &ResidualGraph<'_>,
    stage: Stage,
    internal: usize,
    external: usize,
) -> VertexId {
    index.make_live(ws, residual, stage);
    let v = match stage {
        Stage::One => frontier::select_stage_one_heap(index, ws, residual),
        Stage::Two => frontier::select_stage_two_heap(index, ws, residual, internal, external),
    };
    debug_assert_eq!(
        v,
        match stage {
            Stage::One => frontier::select_stage_one_scan(ws, residual),
            Stage::Two => frontier::select_stage_two_scan(ws, residual, internal, external),
        },
        "{stage:?}: the staged index (left) and the frontier scan (right) disagree"
    );
    v
}

/// Admits a fresh random seed vertex as a member.
#[allow(clippy::too_many_arguments)]
fn seed_vertex(
    graph: GraphView<'_>,
    triangles: &[u32],
    residual: &mut ResidualGraph<'_>,
    ws: &mut Workspace,
    index: &mut StagedIndex,
    rng: &mut StdRng,
    assignment: &mut [PartitionId],
    k: u32,
    internal: &mut usize,
    external: &mut usize,
) {
    let n = graph.num_vertices() as u32;
    let hint: VertexId = rng.gen_range(0..n);
    if let Some(seed) = residual.any_active_vertex_from(hint) {
        admit_vertex(
            graph, triangles, residual, ws, index, assignment, k, seed, internal, external,
        );
    }
}

/// Moves `v` from the frontier into the partition in one walk of its
/// static neighbours: allocates the residual edges between `v` and members,
/// folds `v`'s Stage I term into every non-member neighbour, enrolls the
/// far endpoints of `v`'s remaining residual edges, and keeps the
/// modularity counters.
///
/// Folding into every non-member (candidate or not) is what lets
/// enrollment walk nothing: when a vertex later joins the frontier, its
/// `mu1` already holds the maximum over all members adjacent to it, the
/// same value whatever order the members were admitted in.
#[allow(clippy::too_many_arguments)]
fn admit_vertex(
    graph: GraphView<'_>,
    triangles: &[u32],
    residual: &mut ResidualGraph<'_>,
    ws: &mut Workspace,
    index: &mut StagedIndex,
    assignment: &mut [PartitionId],
    k: u32,
    v: VertexId,
    internal: &mut usize,
    external: &mut usize,
) {
    // Seed vertices are admitted without having been candidates.
    if ws.in_frontier[v as usize] {
        ws.frontier_remove(v);
    }
    ws.member_round[v as usize] = k;

    let dv = graph.degree(v);
    ws.adjacency_steps += dv as u64;
    let mut absorbed = 0usize;
    for (u, e) in graph.incident(v) {
        let free = residual.is_free(e);
        if ws.member_round[u as usize] == k {
            // An edge to a member: it was external, now it is internal.
            if free {
                residual.allocate(e);
                assignment[e as usize] = k;
                absorbed += 1;
            }
            continue;
        }
        let rose = ws.refresh_mu1(u, triangles[e as usize], dv, k);
        if free {
            // A residual edge to a non-member becomes external; its far
            // endpoint joins (or strengthens) the frontier.
            *external += 1;
            ws.enroll_frontier_edge(u);
            index.on_candidate(ws, residual, u, true);
        } else if rose && ws.in_frontier[u as usize] {
            index.on_candidate(ws, residual, u, false);
        }
    }
    *internal += absorbed;
    *external -= absorbed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageSwitch;
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn small_graph() -> CsrGraph {
        // Two triangles joined by a bridge.
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build()
    }

    fn run(
        graph: &CsrGraph,
        p: usize,
        config: &TlpConfig,
    ) -> Result<EdgePartition, PartitionError> {
        run_engine(graph, p, config, RunExtras::default())
    }

    fn run_tlp(graph: &CsrGraph, p: usize, seed: u64) -> EdgePartition {
        run(graph, p, &TlpConfig::new().seed(seed)).unwrap()
    }

    #[test]
    fn every_edge_is_assigned_exactly_once() {
        let g = small_graph();
        for p in 1..=4 {
            let part = run_tlp(&g, p, 1);
            assert_eq!(part.num_edges(), g.num_edges());
            assert_eq!(part.edge_counts().iter().sum::<usize>(), g.num_edges());
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        let g = small_graph();
        let part = run_tlp(&g, 1, 3);
        assert_eq!(part.edge_counts(), vec![g.num_edges()]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = small_graph();
        assert_eq!(run_tlp(&g, 3, 7), run_tlp(&g, 3, 7));
    }

    #[test]
    fn zero_partitions_rejected() {
        let g = small_graph();
        assert_eq!(
            run(&g, 0, &TlpConfig::new()).unwrap_err(),
            PartitionError::ZeroPartitions
        );
    }

    #[test]
    fn empty_graph_produces_empty_partition() {
        let g = GraphBuilder::new().build();
        let part = run(&g, 4, &TlpConfig::new()).unwrap();
        assert_eq!(part.num_edges(), 0);
        assert_eq!(part.edge_counts(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn disconnected_graph_is_fully_covered_with_reseed() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)])
            .build();
        let part = run_tlp(&g, 2, 5);
        assert_eq!(part.edge_counts().iter().sum::<usize>(), 5);
    }

    #[test]
    fn break_policy_sweeps_leftovers() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
            .build();
        let config = TlpConfig::new().reseed_policy(ReseedPolicy::Break).seed(2);
        let part = run(&g, 2, &config).unwrap();
        // All 5 edges must still be assigned even though each round's
        // frontier dies immediately in this perfect matching.
        assert_eq!(part.edge_counts().iter().sum::<usize>(), 5);
    }

    #[test]
    fn capacity_overshoot_is_bounded_by_last_vertex_degree() {
        let g = tlp_graph::generators::erdos_renyi(60, 240, 9);
        let p = 4;
        let part = run_tlp(&g, p, 11);
        let capacity = capacity(g.num_edges(), p);
        let max_degree = (0..60).map(|v| g.degree(v)).max().unwrap();
        for (pid, &count) in part.edge_counts().iter().enumerate() {
            assert!(
                count <= capacity + max_degree,
                "partition {pid} holds {count} edges, capacity {capacity}"
            );
        }
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let g = small_graph();
        let config = TlpConfig::new().seed(1);
        let mut trace = Trace::new();
        let extras = RunExtras {
            trace: Some(&mut trace),
            ..RunExtras::default()
        };
        run_engine(&g, 2, &config, extras).unwrap();
        assert!(!trace.is_empty());
        // Selections must name real vertices with their true degrees.
        for r in trace.records() {
            assert_eq!(r.degree as usize, g.degree(r.vertex));
            assert!((r.partition as usize) < 2);
        }
    }

    #[test]
    fn more_partitions_than_edges_leaves_empties() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        let part = run_tlp(&g, 5, 1);
        assert_eq!(part.edge_counts().iter().sum::<usize>(), 1);
        assert_eq!(part.num_partitions(), 5);
    }

    /// A round that leaves Stage II and later re-enters it makes the
    /// staged index rebuild its Stage II buckets twice in one round (the
    /// case that needs `StagedIndex::clear` to unlist every bucket). Debug
    /// builds check every selection of the run against the frontier scan.
    #[test]
    fn a_round_that_reenters_stage_two_selects_as_the_scan() {
        let graph = tlp_graph::generators::erdos_renyi(200, 600, 0);
        let p = 4;
        let config = TlpConfig::new().seed(1);
        let mut trace = Trace::new();
        let extras = RunExtras {
            trace: Some(&mut trace),
            ..RunExtras::default()
        };
        let part = run_engine(&graph, p, &config, extras).unwrap();
        assert_eq!(part.edge_counts().iter().sum::<usize>(), graph.num_edges());
        // Per round, how many times Stage II starts picking.
        let stage_two_entries = |k: u32| {
            let mut previous = None;
            let mut entries = 0;
            for r in trace.records().iter().filter(|r| r.partition == k) {
                if r.stage == Stage::Two && previous != Some(Stage::Two) {
                    entries += 1;
                }
                previous = Some(r.stage);
            }
            entries
        };
        let most = (0..p as u32).map(stage_two_entries).max().unwrap();
        assert!(
            most >= 2,
            "no round re-enters Stage II (most entries: {most})"
        );
    }

    /// The TLP_R stage switch across the R sweep, each selection checked
    /// against the frontier scan in debug builds.
    #[test]
    fn tlp_r_selects_as_the_scan() {
        let g = tlp_graph::generators::chung_lu(250, 1200, 2.2, 9);
        let config = TlpConfig::new().seed(4);
        for r in [0.0, 0.3, 0.7, 1.0] {
            let config = config.stage_switch(StageSwitch::EdgeRatio(r));
            let part = run(&g, 6, &config).unwrap();
            assert_eq!(
                part.edge_counts().iter().sum::<usize>(),
                g.num_edges(),
                "R = {r}"
            );
        }
    }

    /// A candidate whose score rises without the index hearing of it
    /// leaves the index stale: the cross-check panics rather than letting
    /// the stale pick through.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the frontier scan (right) disagree")]
    fn a_stale_index_fails_the_cross_check() {
        let g = small_graph();
        let graph = GraphView::from(&g);
        let triangles = triangle_table(graph);
        let mut residual = ResidualGraph::new(graph);
        let mut ws = Workspace::new(g.num_vertices());
        let mut index = StagedIndex::default();
        let mut assignment = vec![0; g.num_edges()];
        let (mut internal, mut external) = (0, 0);
        // Admitting 2 makes candidates of 0 and 1 (closeness 1/3 each, so
        // 0 wins the tie) and 3 (closeness 0).
        admit_vertex(
            graph,
            &triangles,
            &mut residual,
            &mut ws,
            &mut index,
            &mut assignment,
            0,
            2,
            &mut internal,
            &mut external,
        );
        index.make_live(&ws, &residual, Stage::One);
        ws.mu1[3] = 1.0;
        select_vertex(&mut index, &ws, &residual, Stage::One, internal, external);
    }
}
