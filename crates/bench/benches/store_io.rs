//! Store I/O bench: binary `.tlpg` open vs. text edge-list parse, plus
//! streamed-HDRF buffer bounds.
//!
//! Measures, on a 400k-edge Chung–Lu graph (the scale of the paper's mid
//! Table III rows):
//!
//! * text parse (`read_edge_list_file`) — what every run paid before the
//!   binary cache existed;
//! * binary open+load (`StoreReader::read_graph`) — what cached re-runs pay;
//! * HDRF streamed from the binary file at several budgets, through the
//!   same `BinaryFileSource` passes the pipeline uses.
//!
//! The full run asserts that binary open is at least 5x faster than the
//! text parse, verifies the streamed partition is bit-identical to the
//! materialized one with the peak buffer within budget, and prints every
//! timing.
//!
//! `cargo bench -p tlp-bench --bench store_io -- --test` runs a downsized
//! smoke pass: equality and buffer bounds are still asserted, timings are
//! neither taken nor printed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tlp_baselines::{EdgeOrder, StreamingKind, StreamingPartitioner};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionId};
use tlp_graph::generators::chung_lu;
use tlp_graph::{io, CsrGraph, EdgeSource};
use tlp_store::{write_graph, BinaryFileSource, StoreReader, WriteOptions};

const SEED: u64 = 9;
const PARTITIONS: usize = 16;
const BUDGETS: [usize; 3] = [1_024, 65_536, usize::MAX];

fn graph(smoke: bool) -> CsrGraph {
    if smoke {
        chung_lu(2_000, 8_000, 2.2, SEED)
    } else {
        chung_lu(120_000, 400_000, 2.2, SEED)
    }
}

struct Workspace {
    dir: PathBuf,
    text: PathBuf,
    bin: PathBuf,
}

impl Workspace {
    fn create(graph: &CsrGraph) -> Workspace {
        let dir = std::env::temp_dir().join(format!("tlp-bench-store-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("graph.txt");
        let bin = dir.join("graph.tlpg");
        let file = std::fs::File::create(&text).unwrap();
        io::write_edge_list(graph, std::io::BufWriter::new(file)).unwrap();
        write_graph(&bin, graph, &WriteOptions::default()).unwrap();
        Workspace { dir, text, bin }
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn text_parse(ws: &Workspace) -> CsrGraph {
    io::read_edge_list_file(&ws.text).unwrap().graph
}

fn binary_open(ws: &Workspace) -> CsrGraph {
    StoreReader::open(&ws.bin).unwrap().read_graph().unwrap()
}

/// HDRF over one strictly streamed pass of the binary file: the decisions
/// in arrival (= edge id) order and the pass's peak chunk length.
fn hdrf_stream(ws: &Workspace, num_vertices: usize, budget: usize) -> (Vec<PartitionId>, usize) {
    let mut source = BinaryFileSource::open(&ws.bin, budget)
        .unwrap()
        .strict_streaming(true);
    let mut placer = StreamingKind::Hdrf
        .placer(num_vertices, PARTITIONS, 0, None)
        .unwrap();
    let mut assignments = Vec::new();
    let stats = source
        .stream_pass(&mut |chunk| {
            for e in chunk {
                assignments.push(placer.place(e.source(), e.target()));
            }
        })
        .unwrap();
    (assignments, stats.peak_buffer)
}

fn min_wall_clock<T>(repeats: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_store_io(c: &mut Criterion) {
    let g = graph(true);
    let ws = Workspace::create(&g);
    let mut group = c.benchmark_group("store_io");
    group.sample_size(10);
    group.bench_function("text_parse", |b| b.iter(|| text_parse(&ws)));
    group.bench_function("binary_open", |b| b.iter(|| binary_open(&ws)));
    group.bench_function("hdrf_stream_64k", |b| {
        b.iter(|| hdrf_stream(&ws, g.num_vertices(), 65_536))
    });
    group.finish();
}

fn store_io_checks(_c: &mut Criterion) {
    let smoke_only = std::env::args().any(|a| a == "--test");
    let g = graph(smoke_only);
    let ws = Workspace::create(&g);

    // Correctness invariants hold at every scale: the binary graph is
    // bit-identical to the in-memory one, and streamed HDRF matches the
    // natural-order materialized run with the buffer within budget.
    assert_eq!(binary_open(&ws), g, "binary load diverged");
    let reference = StreamingPartitioner {
        kind: StreamingKind::Hdrf,
        order: EdgeOrder::Natural,
        seed: 0,
    }
    .partition(&g, PARTITIONS)
    .unwrap();
    for budget in BUDGETS {
        let (assignments, peak) = hdrf_stream(&ws, g.num_vertices(), budget);
        assert!(peak <= budget, "peak buffer {peak} exceeds budget {budget}");
        assert_eq!(
            EdgePartition::new(PARTITIONS, assignments).unwrap(),
            reference,
            "streamed HDRF diverged at budget {budget}"
        );
    }
    if smoke_only {
        println!("bench store_io: ok (smoke)");
        return;
    }

    let text = min_wall_clock(3, || text_parse(&ws));
    let binary = min_wall_clock(3, || binary_open(&ws));
    let speedup = text.as_secs_f64() / binary.as_secs_f64().max(f64::EPSILON);
    println!("bench store_io: text parse {text:?}, binary open {binary:?} ({speedup:.2}x)");
    assert!(
        speedup >= 5.0,
        "binary open is only {speedup:.2}x faster than the text parse on a \
         {}-edge graph; expected >= 5x",
        g.num_edges()
    );

    for budget in BUDGETS {
        let t = min_wall_clock(3, || hdrf_stream(&ws, g.num_vertices(), budget));
        println!("bench store_io: HDRF streamed at budget {budget}: {t:?}");
    }
}

criterion_group!(benches, bench_store_io, store_io_checks);
criterion_main!(benches);
