//! Every metrics path in the workspace reports the same numbers,
//! bit-for-bit: the canonical [`PartitionMetrics::compute`], the one-pass
//! [`StreamedMetrics`] accumulator (used by streaming pipeline runs), both
//! fed edge by edge and folded from a partition by
//! [`StreamedMetrics::from_partition`] (how a served placer is seeded), the
//! partition-store manifest's `replication_factor()` / `balance()`, and the
//! store reader's full `recompute_metrics()`.
//!
//! Four generator families × p ∈ {4, 8, 32}.

use tlp::core::{EdgePartition, PartitionMetrics, StreamedMetrics};
use tlp::graph::generators as gen;
use tlp::graph::CsrGraph;
use tlp::store::{write_partition_store, PartitionStoreReader};

/// A deterministic, well-spread assignment (multiplicative hash of the
/// edge id) so every partition gets edges and plenty of vertices span.
fn hashed_partition(graph: &CsrGraph, p: usize) -> EdgePartition {
    let assign: Vec<u32> = (0..graph.num_edges() as u64)
        .map(|e| (e.wrapping_mul(2654435761) % p as u64) as u32)
        .collect();
    EdgePartition::new(p, assign).expect("valid assignment")
}

/// Replays the `(edge, assignment)` sequence through the streaming
/// accumulator exactly as a bounded-memory pipeline run would.
fn streamed(graph: &CsrGraph, partition: &EdgePartition, p: usize) -> PartitionMetrics {
    let mut acc = StreamedMetrics::new(graph.num_vertices(), p);
    for (eid, edge) in graph.view().edge_iter().enumerate() {
        let (u, v) = edge.endpoints();
        acc.observe_assignment(u, v, partition.partition_of(eid as u32));
    }
    acc.finish()
}

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chung-lu", gen::chung_lu(800, 3200, 2.2, 11)),
        ("erdos-renyi", gen::erdos_renyi(800, 3200, 12)),
        ("barabasi-albert", gen::barabasi_albert(800, 4, 13)),
        (
            "rmat",
            gen::rmat(10, 3200, gen::RmatProbabilities::default(), 14),
        ),
    ]
}

#[test]
fn all_metric_paths_agree_bit_for_bit() {
    let base = std::env::temp_dir().join(format!("tlp-metrics-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for (family, graph) in families() {
        for p in [4usize, 8, 32] {
            let partition = hashed_partition(&graph, p);
            let canonical = PartitionMetrics::compute(&graph, &partition);

            let accumulated = streamed(&graph, &partition, p);
            assert_eq!(
                accumulated, canonical,
                "{family} p={p}: StreamedMetrics drifted from compute()"
            );
            let seeded = StreamedMetrics::from_partition(&graph, &partition)
                .unwrap_or_else(|e| panic!("{family} p={p}: from_partition: {e}"))
                .finish();
            assert_eq!(
                seeded, canonical,
                "{family} p={p}: StreamedMetrics::from_partition drifted from compute()"
            );

            let dir = base.join(format!("{family}-{p}"));
            let manifest = write_partition_store(&dir, &graph, &partition)
                .unwrap_or_else(|e| panic!("{family} p={p}: write store: {e}"));
            assert_eq!(
                manifest.replication_factor(),
                canonical.replication_factor,
                "{family} p={p}: manifest RF drifted"
            );
            assert_eq!(
                manifest.balance(),
                canonical.balance,
                "{family} p={p}: manifest balance drifted"
            );

            let reader = PartitionStoreReader::open(&dir)
                .unwrap_or_else(|e| panic!("{family} p={p}: open store: {e}"));
            let recomputed = reader
                .recompute_metrics()
                .unwrap_or_else(|e| panic!("{family} p={p}: recompute: {e}"));
            assert_eq!(
                recomputed, canonical,
                "{family} p={p}: store recompute drifted from compute()"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
