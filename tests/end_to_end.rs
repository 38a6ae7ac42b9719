//! End-to-end pipeline tests spanning every crate: dataset -> partitioner ->
//! metrics, across the full algorithm line-up.

use tlp::baselines::{
    EdgeOrder, FennelPartitioner, LdgPartitioner, StreamingKind, StreamingPartitioner, VertexOrder,
};
use tlp::core::{
    EdgePartitioner, PartitionMetrics, StageSwitch, TlpConfig, TwoStageLocalPartitioner,
};
use tlp::datasets::{DatasetId, DatasetSpec};
use tlp::metis::MetisPartitioner;

fn full_lineup() -> Vec<Box<dyn EdgePartitioner>> {
    let seed = 11;
    let streaming = |kind, order| Box::new(StreamingPartitioner { kind, order, seed });
    vec![
        Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(seed))),
        Box::new(TwoStageLocalPartitioner::new(
            TlpConfig::new()
                .seed(seed)
                .stage_switch(StageSwitch::StageOneOnly),
        )),
        Box::new(TwoStageLocalPartitioner::new(
            TlpConfig::new()
                .seed(seed)
                .stage_switch(StageSwitch::StageTwoOnly),
        )),
        Box::new(MetisPartitioner::default()),
        Box::new(LdgPartitioner::new(VertexOrder::Random(seed))),
        Box::new(FennelPartitioner::new(VertexOrder::Random(seed))),
        streaming(StreamingKind::Greedy, EdgeOrder::Random(seed)),
        streaming(StreamingKind::Hdrf, EdgeOrder::Random(0)),
        streaming(StreamingKind::Dbh, EdgeOrder::Natural),
        streaming(StreamingKind::Random, EdgeOrder::Natural),
    ]
}

#[test]
fn every_partitioner_produces_a_valid_total_partition() {
    let graph = DatasetSpec::get(DatasetId::G1).instantiate(0.2, 3);
    for algo in full_lineup() {
        for p in [1, 4, 10] {
            let partition = algo
                .partition(&graph, p)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
            partition.validate_for(&graph).unwrap();
            assert_eq!(
                partition.edge_counts().iter().sum::<usize>(),
                graph.num_edges(),
                "{} did not cover all edges at p={p}",
                algo.name()
            );
            let metrics = PartitionMetrics::compute(&graph, &partition);
            assert!(
                metrics.replication_factor >= 1.0,
                "{}: RF {} < 1",
                algo.name(),
                metrics.replication_factor
            );
        }
    }
}

#[test]
fn structured_partitioners_beat_random_on_every_dataset_family() {
    // One power-law dataset and the genealogy dataset, small scale.
    for (id, scale) in [(DatasetId::G1, 0.3), (DatasetId::G9, 0.002)] {
        let graph = DatasetSpec::get(id).instantiate(scale, 5);
        let p = 8;
        let rf = |algo: &dyn EdgePartitioner| {
            let part = algo.partition(&graph, p).unwrap();
            PartitionMetrics::compute(&graph, &part).replication_factor
        };
        let rf_random = rf(&StreamingPartitioner {
            kind: StreamingKind::Random,
            order: EdgeOrder::Natural,
            seed: 1,
        });
        let rf_tlp = rf(&TwoStageLocalPartitioner::new(TlpConfig::new().seed(1)));
        let rf_metis = rf(&MetisPartitioner::default());
        assert!(
            rf_tlp < rf_random,
            "{id}: TLP {rf_tlp} vs Random {rf_random}"
        );
        assert!(
            rf_metis < rf_random,
            "{id}: METIS {rf_metis} vs Random {rf_random}"
        );
    }
}

#[test]
fn two_stage_is_at_least_as_good_as_the_worse_single_stage() {
    // The paper's core ablation claim, in its weakest testable form: TLP is
    // never worse than *both* single-stage extremes. On a single seed this
    // is noise-dominated (any one run can land a bad seed vertex), so the
    // claim is asserted on seed-averaged RF, as the paper's tables are.
    let graph = DatasetSpec::get(DatasetId::G1).instantiate(0.4, 9);
    let p = 10;
    let mean_rf = |make: &dyn Fn(u64) -> Box<dyn EdgePartitioner>| {
        let seeds = [0u64, 1, 2, 3, 4];
        let total: f64 = seeds
            .iter()
            .map(|&s| {
                let part = make(s).partition(&graph, p).unwrap();
                PartitionMetrics::compute(&graph, &part).replication_factor
            })
            .sum();
        total / seeds.len() as f64
    };
    let tlp = mean_rf(&|s| Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(s))));
    let s1 = mean_rf(&|s| {
        Box::new(TwoStageLocalPartitioner::new(
            TlpConfig::new()
                .seed(s)
                .stage_switch(StageSwitch::StageOneOnly),
        ))
    });
    let s2 = mean_rf(&|s| {
        Box::new(TwoStageLocalPartitioner::new(
            TlpConfig::new()
                .seed(s)
                .stage_switch(StageSwitch::StageTwoOnly),
        ))
    });
    // 1% relative slack: the two-stage run is statistically tied with the
    // better extreme when the modularity switch rarely fires on a graph
    // this small; "materially worse than both" is what must never happen.
    assert!(
        tlp <= s1.max(s2) * 1.01 + 1e-9,
        "TLP {tlp} materially worse than both single stages ({s1}, {s2})"
    );
}

#[test]
fn partition_counts_of_the_paper_all_work() {
    let graph = DatasetSpec::get(DatasetId::G2).instantiate(0.05, 7);
    let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(4));
    for p in [10, 15, 20] {
        let partition = tlp.partition(&graph, p).unwrap();
        assert_eq!(partition.num_partitions(), p);
        let metrics = PartitionMetrics::compute(&graph, &partition);
        // Balance: no partition more than ~2x ideal (overshoot is bounded
        // by one vertex's degree; small graphs give some slack).
        assert!(
            metrics.balance < 2.5,
            "balance {} at p={p}",
            metrics.balance
        );
    }
}

#[test]
fn rf_grows_with_partition_count() {
    // More machines -> more replication, for every sane partitioner.
    let graph = DatasetSpec::get(DatasetId::G1).instantiate(0.3, 2);
    let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(3));
    let rf_at = |p: usize| {
        let part = tlp.partition(&graph, p).unwrap();
        PartitionMetrics::compute(&graph, &part).replication_factor
    };
    let (rf4, rf16) = (rf_at(4), rf_at(16));
    assert!(rf4 < rf16, "RF(4)={rf4} should be below RF(16)={rf16}");
}
