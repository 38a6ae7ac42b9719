//! Property-based invariants over arbitrary graphs: every partitioner must
//! produce valid, total, well-measured partitions no matter the input.

use proptest::prelude::*;
use tlp::baselines::{EdgeOrder, StreamingKind, StreamingPartitioner};
use tlp::core::{EdgePartitioner, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::{CsrGraph, GraphBuilder};
use tlp::metis::MetisPartitioner;

/// Strategy: an arbitrary simple graph with up to `max_v` vertices and
/// `max_e` raw (possibly duplicate / self-loop) edge tuples.
fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_v).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n), 0..max_e)
            .prop_map(move |edges| GraphBuilder::new().add_edges(edges).build())
    })
}

fn check_partitioner(graph: &CsrGraph, algo: &dyn EdgePartitioner, p: usize) {
    let partition = algo
        .partition(graph, p)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
    // Totality: every edge assigned to a partition in range.
    partition.validate_for(graph).unwrap();
    assert_eq!(partition.num_partitions(), p);
    assert_eq!(
        partition.edge_counts().iter().sum::<usize>(),
        graph.num_edges()
    );
    // Metric invariants.
    let m = PartitionMetrics::compute(graph, &partition);
    assert!(m.replication_factor >= 1.0 - 1e-12);
    assert!(m.spanned_vertices <= m.covered_vertices);
    assert_eq!(
        m.vertex_counts.iter().sum::<usize>(),
        m.total_replicas,
        "per-partition vertex counts must sum to total replicas"
    );
    // A vertex can appear in at most min(p, degree) partitions.
    assert!(m.total_replicas <= graph.num_edges() * 2 + m.covered_vertices);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tlp_is_valid_on_arbitrary_graphs(graph in arb_graph(60, 200), p in 1usize..8, seed in 0u64..4) {
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(seed));
        check_partitioner(&graph, &tlp, p);
    }

    #[test]
    fn baselines_are_valid_on_arbitrary_graphs(graph in arb_graph(60, 200), p in 1usize..8) {
        for kind in [StreamingKind::Random, StreamingKind::Dbh, StreamingKind::Greedy] {
            let order = EdgeOrder::Natural;
            check_partitioner(&graph, &StreamingPartitioner { kind, order, seed: 1 }, p);
        }
    }

    #[test]
    fn metis_is_valid_on_arbitrary_graphs(graph in arb_graph(40, 120), p in 1usize..6) {
        check_partitioner(&graph, &MetisPartitioner::default(), p);
    }

    #[test]
    fn tlp_is_deterministic_on_arbitrary_graphs(graph in arb_graph(40, 120), p in 1usize..6, seed in 0u64..8) {
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(seed));
        let a = tlp.partition(&graph, p).unwrap();
        let b = tlp.partition(&graph, p).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rf_is_one_for_single_partition(graph in arb_graph(50, 150)) {
        let tlp = TwoStageLocalPartitioner::new(TlpConfig::new());
        let part = tlp.partition(&graph, 1).unwrap();
        let m = PartitionMetrics::compute(&graph, &part);
        prop_assert!((m.replication_factor - 1.0).abs() < 1e-12);
        prop_assert_eq!(m.spanned_vertices, 0);
    }
}
