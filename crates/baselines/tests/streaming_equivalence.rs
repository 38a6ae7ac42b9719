//! The streamed baselines must be bit-identical to their materialized
//! counterparts at every buffer budget — from an in-memory
//! [`CsrSource::with_budget`] and when the edges come off disk through a
//! `.tlpg` [`BinaryFileSource`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tlp_baselines::{EdgeOrder, StreamingKind, StreamingPartitioner};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionMetrics};
use tlp_graph::generators::{chung_lu, erdos_renyi};
use tlp_graph::traversal::ConnectedComponents;
use tlp_graph::{CsrGraph, CsrSource, EdgeSource};
use tlp_store::{write_graph, BinaryFileSource, WriteOptions};

const BUDGETS: [usize; 4] = [1, 64, 4096, usize::MAX];
const P: usize = 6;
const KINDS: [StreamingKind; 4] = [
    StreamingKind::Hdrf,
    StreamingKind::Greedy,
    StreamingKind::Dbh,
    StreamingKind::Random,
];

static CASE: AtomicUsize = AtomicUsize::new(0);

fn materialized_for(kind: StreamingKind, graph: &CsrGraph) -> EdgePartition {
    let order = EdgeOrder::Natural;
    StreamingPartitioner {
        kind,
        order,
        seed: 7,
    }
    .partition(graph, P)
    .unwrap()
}

/// Places one pass of `source` in arrival order; returns the partition
/// and the pass's peak chunk length.
fn run_stream(kind: StreamingKind, source: &mut dyn EdgeSource) -> (EdgePartition, usize) {
    let num_vertices = source.num_vertices_hint().unwrap();
    let mut placer = kind
        .placer(num_vertices, P, 7, source.degrees_hint())
        .unwrap();
    let mut assignments = Vec::new();
    let stats = source
        .stream_pass(&mut |chunk| {
            for e in chunk {
                assignments.push(placer.place(e.source(), e.target()));
            }
        })
        .unwrap();
    (
        EdgePartition::new(P, assignments).unwrap(),
        stats.peak_buffer,
    )
}

#[test]
fn streamed_matches_materialized_at_every_budget() {
    let graphs = [
        ("chung_lu", chung_lu(400, 1600, 2.2, 17)),
        ("erdos_renyi", erdos_renyi(400, 1600, 18)),
    ];
    for (gname, graph) in &graphs {
        for kind in KINDS {
            let reference = materialized_for(kind, graph);
            for budget in BUDGETS {
                let mut source = CsrSource::with_budget(graph, budget);
                let (streamed, peak) = run_stream(kind, &mut source);
                assert_eq!(
                    streamed, reference,
                    "{kind:?} on {gname} diverged at budget {budget}"
                );
                assert!(
                    peak <= budget,
                    "{kind:?} on {gname}: peak buffer {peak} exceeds budget {budget}"
                );
            }
        }
    }
}

#[test]
fn streamed_from_binary_file_matches_materialized() {
    let graph = chung_lu(400, 1600, 2.2, 19);
    let dir = std::env::temp_dir().join(format!(
        "tlp-stream-eq-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("g.tlpg");
    write_graph(&path, &graph, &WriteOptions::default()).unwrap();

    for kind in KINDS {
        let reference = materialized_for(kind, &graph);
        for budget in BUDGETS {
            let mut source = BinaryFileSource::open(&path, budget)
                .unwrap()
                .strict_streaming(true);
            let (streamed, peak) = run_stream(kind, &mut source);
            assert_eq!(
                streamed, reference,
                "{kind:?} from disk diverged at budget {budget}"
            );
            assert!(peak <= budget);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_natural_orders_are_deterministic() {
    // The materialized partitioners place edges in every arrival order;
    // determinism across repeated runs must be preserved.
    let graph = chung_lu(300, 1200, 2.1, 23);
    for kind in KINDS {
        for order in [EdgeOrder::Natural, EdgeOrder::Random(5)] {
            let partitioner = StreamingPartitioner {
                kind,
                order,
                seed: 7,
            };
            let a = partitioner.partition(&graph, P).unwrap();
            let b = partitioner.partition(&graph, P).unwrap();
            assert_eq!(a, b, "{kind:?} not deterministic for {order:?}");
        }
    }
}

#[test]
fn greedy_stays_balanced_on_a_shuffled_order() {
    // Why `EdgeOrder` exists: PowerGraph greedy joins the least-loaded
    // partition an endpoint already spans, so it balances only when the
    // arrival order interleaves the graph's regions.
    let graph = chung_lu(2_000, 16_000, 2.2, 3);
    let components = ConnectedComponents::find(&graph);
    assert!(
        graph
            .vertices()
            .filter(|&v| graph.degree(v) > 0)
            .all(|v| components.same_component(v, 0)),
        "the test graph must be connected"
    );
    let greedy = StreamingPartitioner {
        kind: StreamingKind::Greedy,
        order: EdgeOrder::Random(11),
        seed: 0,
    };
    let part = greedy.partition(&graph, 8).unwrap();
    let balance = PartitionMetrics::compute(&graph, &part).balance;
    assert!(
        balance <= 1.1,
        "Greedy on a shuffled order: balance {balance}"
    );
}
