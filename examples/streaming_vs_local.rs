//! Offline vs streaming vs local partitioning: the paper's §II taxonomy.
//!
//! The paper positions *local* partitioning between two worlds: offline
//! methods (METIS) see the whole graph; streaming methods (LDG, DBH,
//! Greedy, HDRF) see one element at a time and keep all placement state;
//! local methods (TLP) see only the partition being grown plus its
//! frontier. This example measures both axes on one graph: quality (RF)
//! and an estimate of the peak partitioner-resident state.
//!
//! Run with: `cargo run --release --example streaming_vs_local`

use tlp::baselines::{EdgeOrder, LdgPartitioner, StreamingKind, StreamingPartitioner, VertexOrder};
use tlp::core::{EdgePartitioner, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::generators::power_law_community;
use tlp::metis::MetisPartitioner;

struct Contender {
    algo: Box<dyn EdgePartitioner>,
    class: &'static str,
    /// Rough per-run working state, in machine words, as a function of
    /// n (vertices), m (edges), p (partitions) — mirrors §III-E's analysis.
    state_words: fn(n: usize, m: usize, p: usize) -> usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = power_law_community(15_000, 90_000, 2.1, 60, 0.25, 5);
    let p = 10;
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    println!("graph: {n} vertices, {m} edges; p = {p}\n");

    let contenders = vec![
        Contender {
            algo: Box::new(MetisPartitioner::default()),
            class: "offline",
            // Multilevel: the whole graph plus all coarse levels (~2x).
            state_words: |n, m, _| 2 * (n + 2 * m),
        },
        Contender {
            algo: Box::new(LdgPartitioner::new(VertexOrder::Random(3))),
            class: "streaming",
            // All previously placed vertices must stay addressable.
            state_words: |n, _, p| n + p,
        },
        Contender {
            algo: Box::new(StreamingPartitioner {
                kind: StreamingKind::Greedy,
                order: EdgeOrder::Random(3),
                seed: 3,
            }),
            class: "streaming",
            // Replica sets A(v) for every vertex seen so far.
            state_words: |n, _, p| n * p.div_ceil(64) + p,
        },
        Contender {
            algo: Box::new(StreamingPartitioner {
                kind: StreamingKind::Dbh,
                order: EdgeOrder::Natural,
                seed: 3,
            }),
            class: "streaming",
            // Stateless apart from the degree table.
            state_words: |n, _, _| n,
        },
        Contender {
            algo: Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(3))),
            class: "local",
            // One partition plus its frontier: O(L * d) of §III-E.
            state_words: |_, m, p| 2 * m / p,
        },
    ];

    println!(
        "{:>8}  {:>10}  {:>8}  {:>8}  {:>18}",
        "class", "algorithm", "RF", "time", "working state"
    );
    for c in &contenders {
        let start = std::time::Instant::now();
        let partition = c.algo.partition(&graph, p)?;
        let elapsed = start.elapsed();
        let metrics = PartitionMetrics::compute(&graph, &partition);
        let words = (c.state_words)(n, m, p);
        println!(
            "{:>8}  {:>10}  {:>8.3}  {:>7.2}s  {:>12} words",
            c.class,
            c.algo.name(),
            metrics.replication_factor,
            elapsed.as_secs_f64(),
            words
        );
    }

    println!(
        "\nreading the table: offline quality needs the whole graph in memory; \
         streaming stays cheap but replicates more; local partitioning (TLP) \
         holds one partition's state yet lands at offline-class quality."
    );
    Ok(())
}
