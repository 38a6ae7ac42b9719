//! Algorithm shoot-out on a social-network workload.
//!
//! The paper's §I motivation: partitioning quality determines the
//! communication cost of distributed graph computation on social networks.
//! This example runs the full algorithm line-up — TLP, the METIS-style
//! multilevel partitioner, LDG, FENNEL, Greedy, HDRF, DBH, and Random — on
//! one synthetic social network and prints a league table.
//!
//! Run with: `cargo run --release --example social_network`

use tlp::baselines::{
    EdgeOrder, FennelPartitioner, LdgPartitioner, StreamingKind, StreamingPartitioner, VertexOrder,
};
use tlp::core::{EdgePartitioner, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::generators::power_law_community;
use tlp::metis::MetisPartitioner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = power_law_community(20_000, 120_000, 2.0, 80, 0.25, 1);
    let p = 12;
    println!(
        "social network: {} users, {} friendships -> {p} machines\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let seed = 9;
    let streaming = |kind, order| Box::new(StreamingPartitioner { kind, order, seed });
    let lineup: Vec<Box<dyn EdgePartitioner>> = vec![
        Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(seed))),
        Box::new(MetisPartitioner::default()),
        Box::new(LdgPartitioner::new(VertexOrder::Random(seed))),
        Box::new(FennelPartitioner::new(VertexOrder::Random(seed))),
        streaming(StreamingKind::Greedy, EdgeOrder::Random(seed)),
        streaming(StreamingKind::Hdrf, EdgeOrder::Random(0)),
        streaming(StreamingKind::Dbh, EdgeOrder::Natural),
        streaming(StreamingKind::Random, EdgeOrder::Natural),
    ];

    println!(
        "{:>10}  {:>8}  {:>8}  {:>9}",
        "algorithm", "RF", "balance", "time"
    );
    let mut results = Vec::new();
    for algo in &lineup {
        let start = std::time::Instant::now();
        let partition = algo.partition(&graph, p)?;
        let elapsed = start.elapsed();
        let m = PartitionMetrics::compute(&graph, &partition);
        results.push((algo.name().to_string(), m.replication_factor));
        println!(
            "{:>10}  {:>8.3}  {:>8.3}  {:>8.2}s",
            algo.name(),
            m.replication_factor,
            m.balance,
            elapsed.as_secs_f64()
        );
    }

    let best = results
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty line-up");
    println!(
        "\nlowest replication factor: {} ({:.3}) — every vertex copy above 1.0 \
         is one more machine that must receive that vertex's updates each superstep",
        best.0, best.1
    );
    Ok(())
}
