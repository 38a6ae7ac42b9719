//! The streamed baselines must be bit-identical to their materialized
//! counterparts at every buffer budget — from an in-memory
//! [`CsrSource::with_budget`] and when the edges come off disk through a
//! `.tlpg` [`BinaryFileSource`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tlp_baselines::{
    DbhPartitioner, DbhState, EdgeOrder, GreedyPartitioner, GreedyState, HdrfPartitioner,
    HdrfState, RandomPartitioner, RandomState, StreamingPlacer,
};
use tlp_core::{EdgePartition, EdgePartitioner};
use tlp_graph::generators::{chung_lu, erdos_renyi};
use tlp_graph::{CsrGraph, CsrSource, EdgeSource};
use tlp_store::{write_graph, BinaryFileSource, WriteOptions};

const BUDGETS: [usize; 4] = [1, 64, 4096, usize::MAX];
const P: usize = 6;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn placer_for(
    name: &str,
    num_vertices: usize,
    degrees: Option<Vec<u32>>,
) -> Box<dyn StreamingPlacer> {
    match name {
        "hdrf" => Box::new(HdrfState::new(num_vertices, P, 1.1).unwrap()),
        "greedy" => Box::new(GreedyState::new(num_vertices, P).unwrap()),
        "dbh" => Box::new(DbhState::new(degrees.unwrap(), P, 7).unwrap()),
        "random" => Box::new(RandomState::new(P, 7).unwrap()),
        other => panic!("unknown placer {other}"),
    }
}

fn materialized_for(name: &str, graph: &CsrGraph) -> EdgePartition {
    match name {
        "hdrf" => HdrfPartitioner::new(EdgeOrder::Natural, 1.1)
            .unwrap()
            .partition(graph, P)
            .unwrap(),
        "greedy" => GreedyPartitioner::new(EdgeOrder::Natural)
            .partition(graph, P)
            .unwrap(),
        "dbh" => DbhPartitioner::new(7).partition(graph, P).unwrap(),
        "random" => RandomPartitioner::new(7).partition(graph, P).unwrap(),
        other => panic!("unknown partitioner {other}"),
    }
}

/// Places one pass of `source` in arrival order; returns the partition
/// and the pass's peak chunk length.
fn run_stream(name: &str, source: &mut dyn EdgeSource) -> (EdgePartition, usize) {
    let num_vertices = source.num_vertices_hint().unwrap();
    let mut placer = placer_for(name, num_vertices, source.degrees_hint());
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
        for name in ["hdrf", "greedy", "dbh", "random"] {
            let reference = materialized_for(name, graph);
            for budget in BUDGETS {
                let mut source = CsrSource::with_budget(graph, budget);
                let (streamed, peak) = run_stream(name, &mut source);
                assert_eq!(
                    streamed, reference,
                    "{name} on {gname} diverged at budget {budget}"
                );
                assert!(
                    peak <= budget,
                    "{name} on {gname}: peak buffer {peak} exceeds budget {budget}"
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

    for name in ["hdrf", "greedy", "dbh", "random"] {
        let reference = materialized_for(name, &graph);
        for budget in BUDGETS {
            let mut source = BinaryFileSource::open(&path, budget)
                .unwrap()
                .strict_streaming(true);
            let (streamed, peak) = run_stream(name, &mut source);
            assert_eq!(
                streamed, reference,
                "{name} from disk diverged at budget {budget}"
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
    for order in [EdgeOrder::Natural, EdgeOrder::Random(5), EdgeOrder::Bfs] {
        let a = HdrfPartitioner::new(order, 1.1)
            .unwrap()
            .partition(&graph, P)
            .unwrap();
        let b = HdrfPartitioner::new(order, 1.1)
            .unwrap()
            .partition(&graph, P)
            .unwrap();
        assert_eq!(a, b, "HDRF not deterministic for {order:?}");
        let g = GreedyPartitioner::new(order).partition(&graph, P).unwrap();
        let h = GreedyPartitioner::new(order).partition(&graph, P).unwrap();
        assert_eq!(g, h, "Greedy not deterministic for {order:?}");
    }
}
