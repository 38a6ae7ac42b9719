//! Distributed analytics over edge partitions, with the bill itemized.
//!
//! Uses the `tlp-sim` engine to run three classic vertex programs —
//! connected components, single-source shortest paths, and PageRank — over
//! the same graph partitioned three ways (TLP, NE, Random), reporting the
//! sync messages each combination pays. The computed answers are identical
//! by construction; only the communication changes.
//!
//! Run with: `cargo run --release --example analytics_suite`

use tlp::baselines::{EdgeOrder, NePartitioner, StreamingKind, StreamingPartitioner};
use tlp::core::{
    EdgePartition, EdgePartitioner, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner,
};
use tlp::graph::generators::power_law_community;
use tlp::graph::CsrGraph;
use tlp::sim::{programs, Cluster, Engine};

fn partitions(graph: &CsrGraph, p: usize) -> Vec<(String, EdgePartition)> {
    let algos: Vec<Box<dyn EdgePartitioner>> = vec![
        Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(1))),
        Box::new(NePartitioner::new(1)),
        Box::new(StreamingPartitioner {
            kind: StreamingKind::Random,
            order: EdgeOrder::Natural,
            seed: 1,
        }),
    ];
    algos
        .into_iter()
        .map(|a| {
            let part = a.partition(graph, p).expect("partitioning succeeds");
            (a.name().to_string(), part)
        })
        .collect()
}

fn main() {
    let graph = power_law_community(4_000, 24_000, 2.1, 40, 0.2, 11);
    let p = 8;
    println!(
        "graph: {} vertices, {} edges on {p} machines\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    println!(
        "{:>10}  {:>7}  {:>14}  {:>14}  {:>14}",
        "partition", "RF", "CC msgs", "SSSP msgs", "PageRank msgs"
    );
    for (name, partition) in partitions(&graph, p) {
        let rf = PartitionMetrics::compute(&graph, &partition).replication_factor;
        let cluster = Cluster::new(&graph, &partition);
        let engine = Engine::new(&cluster);

        let cc = engine.run(&programs::ConnectedComponents, 200);
        let sssp = engine.run(&programs::ShortestPaths { source: 0 }, 200);
        let pr = engine.run(&programs::PageRank::default(), 60);
        assert!(cc.converged && sssp.converged, "analytics must converge");

        println!(
            "{name:>10}  {rf:>7.3}  {:>14}  {:>14}  {:>14}",
            cc.total_messages, sssp.total_messages, pr.total_messages
        );
    }

    println!(
        "\nsame answers on every row — the partitioner only changes how many \
         replica-sync messages each superstep costs (proportional to RF - 1)."
    );
}
