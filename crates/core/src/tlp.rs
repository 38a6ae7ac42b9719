//! The paper's TLP family: two-stage local partitioning (Algorithm 1)
//! under a configurable stage switch.

use crate::engine::{run_engine, CheckpointSink, RunExtras};
use crate::{
    EdgePartition, EdgePartitioner, EngineCheckpoint, ParallelTrialRunner, PartitionError,
    StageSwitch, TlpConfig, Trace,
};
use tlp_graph::GraphView;

/// The two-stage local partitioner (TLP, Algorithm 1 of the paper) and its
/// variants.
///
/// Each partition is grown from a random seed vertex, and the config's
/// [`StageSwitch`] picks the criterion of every selection: Stage I
/// (closeness x degree, Eq. 7) or Stage II (modularity gain, Eq. 9). The
/// default switch is TLP's own: Stage I while `M(P_k) <= 1`, Stage II once
/// `M(P_k) > 1`. [`StageSwitch::EdgeRatio`] gives TLP_R, and the two
/// single-stage switches give the ablations.
///
/// # Example
///
/// ```
/// use tlp_core::{EdgePartitioner, StageSwitch, TlpConfig, TwoStageLocalPartitioner};
/// use tlp_graph::generators::chung_lu;
///
/// let graph = chung_lu(300, 1_200, 2.2, 5);
/// let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(1));
/// let partition = tlp.partition(&graph, 6)?;
/// assert_eq!(partition.num_edges(), graph.num_edges());
///
/// let config = TlpConfig::new().stage_switch(StageSwitch::EdgeRatio(0.4));
/// let tlp_r = TwoStageLocalPartitioner::new(config);
/// assert_eq!(tlp_r.name(), "TLP_R");
/// assert_eq!(tlp_r.partition(&graph, 6)?.num_edges(), graph.num_edges());
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoStageLocalPartitioner {
    config: TlpConfig,
}

impl TwoStageLocalPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: TlpConfig) -> Self {
        TwoStageLocalPartitioner { config }
    }

    /// The configuration this partitioner runs with.
    pub fn config(&self) -> &TlpConfig {
        &self.config
    }

    /// Partitions and returns the per-selection [`Trace`] (used by the
    /// Table VI experiment). Always a single run with the configured seed
    /// — the multi-trial racing of [`EdgePartitioner::partition`] does not
    /// apply here.
    ///
    /// # Errors
    ///
    /// Same as [`EdgePartitioner::partition`].
    pub fn partition_with_trace<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        num_partitions: usize,
    ) -> Result<(EdgePartition, Trace), PartitionError> {
        let mut trace = Trace::new();
        let extras = RunExtras {
            trace: Some(&mut trace),
            ..RunExtras::default()
        };
        let partition = self.run_single(graph, num_partitions, extras)?;
        Ok((partition, trace))
    }

    /// Single-trial partitioning with kill-and-resume support.
    ///
    /// When `resume` is given, the run continues from that round-boundary
    /// snapshot; when `sink` is given, it receives an [`EngineCheckpoint`]
    /// after each completed round. A resumed run produces the exact
    /// partition the uninterrupted run with the same seed would have (the
    /// resume bit-identity tests pin this). A snapshot records the seed,
    /// the stage switch, the reseed policy and a fingerprint of the graph,
    /// so a resume under another config or graph fails. Multi-trial racing (`config.trials() > 1`) is a
    /// different execution model and is not checkpointable; this method
    /// always runs one trial with the configured seed.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] if `resume` was taken on another
    /// graph or under another seed, partition count, stage switch or
    /// reseed policy, plus everything [`EdgePartitioner::partition`] returns.
    pub fn partition_with_checkpoints<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        num_partitions: usize,
        resume: Option<&EngineCheckpoint>,
        sink: Option<CheckpointSink<'_>>,
    ) -> Result<EdgePartition, PartitionError> {
        let extras = RunExtras {
            resume,
            // Shortens the sink's trait-object lifetime to the borrow of
            // `resume`, so both fit one `RunExtras` lifetime.
            sink: sink.map(|sink| sink as CheckpointSink<'_>),
            ..RunExtras::default()
        };
        self.run_single(graph, num_partitions, extras)
    }

    /// One run with the configured seed.
    fn run_single<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        num_partitions: usize,
        extras: RunExtras<'_>,
    ) -> Result<EdgePartition, PartitionError> {
        run_engine(graph, num_partitions, &self.config, extras)
    }
}

impl EdgePartitioner for TwoStageLocalPartitioner {
    fn name(&self) -> &str {
        match self.config.stage_switch_value() {
            StageSwitch::Modularity => "TLP",
            StageSwitch::EdgeRatio(_) => "TLP_R",
            StageSwitch::StageOneOnly => "StageI-only",
            StageSwitch::StageTwoOnly => "StageII-only",
        }
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        if self.config.trials_value() > 1 {
            return ParallelTrialRunner::new(self.config)
                .run(graph, num_partitions)
                .map(|report| report.partition);
        }
        self.run_single(graph, num_partitions, RunExtras::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionMetrics, ReseedPolicy, Stage};
    use tlp_graph::generators::{chung_lu, erdos_renyi};

    fn tlp_r(seed: u64, ratio: f64) -> TwoStageLocalPartitioner {
        let config = TlpConfig::new()
            .seed(seed)
            .stage_switch(StageSwitch::EdgeRatio(ratio));
        TwoStageLocalPartitioner::new(config)
    }

    #[test]
    fn partitions_cover_all_edges() {
        let g = chung_lu(400, 1600, 2.2, 3);
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(9));
        let part = tlp.partition(&g, 8).unwrap();
        part.validate_for(&g).unwrap();
        assert_eq!(part.edge_counts().iter().sum::<usize>(), g.num_edges());
    }

    #[test]
    fn trace_spans_both_stages_on_dense_community_graph() {
        let g = chung_lu(400, 2400, 2.1, 4);
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(2));
        let (_, trace) = tlp.partition_with_trace(&g, 4).unwrap();
        let summary = trace.stage_degree_summary();
        assert!(summary.stage1_count > 0, "stage I never used");
        assert!(summary.stage2_count > 0, "stage II never used");
    }

    #[test]
    fn beats_random_assignment_on_clustered_graph() {
        // TLP exploits locality; on a graph with actual structure it must
        // produce a far lower replication factor than random hashing.
        let g = erdos_renyi(500, 3000, 8);
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(1));
        let part = tlp.partition(&g, 10).unwrap();
        let rf = PartitionMetrics::compute(&g, &part).replication_factor;

        // Random baseline computed inline to avoid a dependency cycle.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        use rand::SeedableRng;
        let random: Vec<u32> = (0..g.num_edges()).map(|_| rng.gen_range(0..10)).collect();
        let rpart = EdgePartition::new(10, random).unwrap();
        let rrf = PartitionMetrics::compute(&g, &rpart).replication_factor;

        assert!(
            rf < rrf,
            "TLP rf {rf} should beat random rf {rrf} on a structured graph"
        );
    }

    #[test]
    fn name_is_tlp() {
        assert_eq!(TwoStageLocalPartitioner::default().name(), "TLP");
    }

    #[test]
    fn rejects_out_of_range_ratio() {
        let g = chung_lu(50, 150, 2.2, 1);
        for ratio in [-0.1, 1.1, f64::NAN] {
            assert!(matches!(
                tlp_r(0, ratio).partition(&g, 2).unwrap_err(),
                PartitionError::InvalidParameter { name: "ratio", .. }
            ));
        }
        assert!(tlp_r(0, 0.0).partition(&g, 2).is_ok());
        assert!(tlp_r(0, 1.0).partition(&g, 2).is_ok());
    }

    #[test]
    fn single_stage_switches_are_the_named_extremes() {
        let g = chung_lu(200, 900, 2.2, 6);
        let with = |switch| TwoStageLocalPartitioner::new(TlpConfig::new().stage_switch(switch));
        let one = with(StageSwitch::StageOneOnly);
        let two = with(StageSwitch::StageTwoOnly);
        assert_eq!(one.name(), "StageI-only");
        assert_eq!(two.name(), "StageII-only");
        assert_eq!(
            one.partition(&g, 4).unwrap(),
            tlp_r(0, 1.0).partition(&g, 4).unwrap()
        );
        assert_eq!(
            two.partition(&g, 4).unwrap(),
            tlp_r(0, 0.0).partition(&g, 4).unwrap()
        );
    }

    #[test]
    fn r_zero_uses_only_stage_two() {
        let g = chung_lu(200, 900, 2.2, 6);
        let (_, trace) = tlp_r(3, 0.0).partition_with_trace(&g, 4).unwrap();
        assert!(trace.records().iter().all(|r| r.stage == Stage::Two));
    }

    #[test]
    fn r_one_uses_only_stage_one() {
        let g = chung_lu(200, 900, 2.2, 6);
        let (_, trace) = tlp_r(3, 1.0).partition_with_trace(&g, 4).unwrap();
        assert!(trace.records().iter().all(|r| r.stage == Stage::One));
    }

    #[test]
    fn interior_r_uses_both_stages() {
        let g = chung_lu(200, 900, 2.2, 6);
        let (_, trace) = tlp_r(3, 0.5).partition_with_trace(&g, 4).unwrap();
        let s = trace.stage_degree_summary();
        assert!(s.stage1_count > 0 && s.stage2_count > 0);
    }

    #[test]
    fn covers_all_edges_for_every_r() {
        let g = chung_lu(150, 600, 2.2, 2);
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let part = tlp_r(4, r).partition(&g, 5).unwrap();
            assert_eq!(
                part.edge_counts().iter().sum::<usize>(),
                g.num_edges(),
                "R = {r}"
            );
        }
    }

    /// Snapshots of one run, one per completed round.
    fn checkpoints_of(
        tlp: &TwoStageLocalPartitioner,
        g: &tlp_graph::CsrGraph,
        p: usize,
    ) -> Vec<EngineCheckpoint> {
        let mut checkpoints = Vec::new();
        let mut sink = |ckpt: &EngineCheckpoint| {
            checkpoints.push(ckpt.clone());
            Ok(())
        };
        tlp.partition_with_checkpoints(g, p, None, Some(&mut sink))
            .unwrap();
        checkpoints
    }

    #[test]
    fn resume_under_another_switch_reseed_policy_or_graph_fails() {
        let g = chung_lu(300, 1200, 2.2, 5);
        let config = TlpConfig::new().seed(21);
        let tlp = TwoStageLocalPartitioner::new(config);
        let checkpoints = checkpoints_of(&tlp, &g, 4);
        let mid = &checkpoints[1];
        assert_eq!(mid.stage_switch, StageSwitch::Modularity);
        assert_eq!(mid.reseed_policy, ReseedPolicy::Reseed);

        let resume_err = |tlp: &TwoStageLocalPartitioner, g: &tlp_graph::CsrGraph| match tlp
            .partition_with_checkpoints(g, 4, Some(mid), None)
        {
            Err(PartitionError::Checkpoint(message)) => message,
            other => panic!("resume should fail with a checkpoint error, got {other:?}"),
        };
        let other_switch =
            TwoStageLocalPartitioner::new(config.stage_switch(StageSwitch::EdgeRatio(0.3)));
        assert!(resume_err(&other_switch, &g).contains("stage switch"));
        let other_reseed = TwoStageLocalPartitioner::new(config.reseed_policy(ReseedPolicy::Break));
        assert!(resume_err(&other_reseed, &g).contains("reseed policy"));

        // Same vertex and edge counts, different edges.
        let other_graph = chung_lu(300, 1200, 2.2, 6);
        assert_eq!(other_graph.num_vertices(), g.num_vertices());
        assert_eq!(other_graph.num_edges(), g.num_edges());
        assert!(resume_err(&tlp, &other_graph).contains("graph fingerprint"));

        // The matching run still resumes to the uninterrupted result.
        assert_eq!(
            tlp.partition_with_checkpoints(&g, 4, Some(mid), None)
                .unwrap(),
            tlp.partition(&g, 4).unwrap()
        );
    }

    #[test]
    fn snapshots_record_the_run_they_came_from() {
        let g = chung_lu(200, 900, 2.2, 6);
        let config = TlpConfig::new()
            .seed(3)
            .stage_switch(StageSwitch::EdgeRatio(0.4))
            .reseed_policy(ReseedPolicy::Break);
        let checkpoints = checkpoints_of(&TwoStageLocalPartitioner::new(config), &g, 3);
        assert!(!checkpoints.is_empty());
        for ckpt in &checkpoints {
            assert_eq!(ckpt.stage_switch, StageSwitch::EdgeRatio(0.4));
            assert_eq!(ckpt.reseed_policy, ReseedPolicy::Break);
            assert_eq!(
                ckpt.graph_fingerprint,
                crate::checkpoint::graph_fingerprint((&g).into())
            );
        }
    }
}
