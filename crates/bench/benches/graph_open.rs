//! Graph-open bench: `.tlpg` v1 decode + CSR rebuild vs. v2 zero-copy
//! arena open, on a 400k-edge Chung–Lu graph (the scale of the paper's mid
//! Table III rows).
//!
//! A v1 open pays a per-edge decode and a full CSR construction; a v2 open
//! is one bulk read into an aligned arena plus per-section checksum and
//! structural validation — no per-edge decode, no CSR rebuild. Both runs
//! verify that both paths materialize bit-identical graphs and gate the
//! v2 open exactly: it must lend the zero-copy arena and perform a pinned
//! number of I/O operations (counted by `tlp_store::faults`), so an open
//! that decodes or reads more fails here. The full run also times both
//! opens and prints the speedup.
//!
//! `cargo bench -p tlp-bench --bench graph_open -- --test` runs a downsized
//! smoke pass: equality and the exact gates are still asserted, timings
//! are neither taken nor printed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tlp_graph::generators::chung_lu;
use tlp_graph::CsrGraph;
use tlp_store::{faults, write_graph, FormatVersion, LoadedGraph, WriteOptions, VERSION_V2};

const SEED: u64 = 11;

/// I/O operations of one v2 open: the file open and the header read, then
/// per section (`OFFS` = 8(n + 1) bytes, `ADJV` = `ADJE` = 8m bytes,
/// `EDGE` = 8m bytes) one frame read plus one read per started 256 KiB
/// chunk of its payload.
///
/// - smoke, n = 2,000, m = 8,000: every payload (16,008 or 64,000 bytes)
///   fits one chunk, so 2 + 4 × (1 + 1) = 10;
/// - full, n = 240,000, m = 400,000: `OFFS` 1,920,008 bytes takes 8
///   chunks, the other three 3,200,000 bytes each take 13, so
///   2 + 4 + 8 + 3 × 13 = 53.
fn v2_open_ops(smoke: bool) -> u64 {
    if smoke {
        10
    } else {
        53
    }
}

fn graph(smoke: bool) -> CsrGraph {
    if smoke {
        chung_lu(2_000, 8_000, 2.2, SEED)
    } else {
        chung_lu(240_000, 400_000, 2.2, SEED)
    }
}

struct Workspace {
    dir: PathBuf,
    v1: PathBuf,
    v2: PathBuf,
}

impl Workspace {
    fn create(graph: &CsrGraph) -> Workspace {
        let dir = std::env::temp_dir().join(format!("tlp-bench-graph-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("graph_v1.tlpg");
        let v2 = dir.join("graph_v2.tlpg");
        for (path, version) in [(&v1, FormatVersion::V1), (&v2, FormatVersion::V2)] {
            let options = WriteOptions {
                version,
                ..WriteOptions::default()
            };
            write_graph(path, graph, &options).unwrap();
        }
        Workspace { dir, v1, v2 }
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Minimum wall-clock over `repeats` back-to-back runs. Back-to-back
/// (not interleaved with the other path) keeps the allocator warm for
/// each path the same way, and the minimum sheds steal-time bursts on
/// shared machines.
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

fn bench_graph_open(c: &mut Criterion) {
    let g = graph(true);
    let ws = Workspace::create(&g);
    let mut group = c.benchmark_group("graph_open");
    group.sample_size(10);
    group.bench_function("v1_decode_rebuild", |b| {
        b.iter(|| LoadedGraph::open(&ws.v1).unwrap())
    });
    group.bench_function("v2_zero_copy", |b| {
        b.iter(|| LoadedGraph::open(&ws.v2).unwrap())
    });
    group.finish();
}

fn graph_open_checks(_c: &mut Criterion) {
    let smoke_only = std::env::args().any(|a| a == "--test");
    let g = graph(smoke_only);
    let ws = Workspace::create(&g);

    // Correctness invariants hold at every scale: both open paths lend a
    // view of exactly the written graph, and the v2 open stays zero-copy
    // with a pinned I/O operation count.
    let v1 = LoadedGraph::open(&ws.v1).unwrap();
    let (v2, v2_ops) = faults::count_ops(|| LoadedGraph::open(&ws.v2).unwrap());
    assert!(
        matches!(&v2, LoadedGraph::Arena(buf) if buf.header().version == VERSION_V2),
        "v2 open no longer lends the zero-copy arena"
    );
    assert!(
        matches!(v1, LoadedGraph::Owned { .. }),
        "v1 open no longer decodes into an owned graph"
    );
    assert_eq!(
        v2_ops,
        v2_open_ops(smoke_only),
        "v2 open of a {}-edge graph did an unexpected number of I/O ops",
        g.num_edges()
    );
    assert_eq!(v1.view(), g.view(), "v1 open diverged");
    assert_eq!(v2.view(), g.view(), "v2 open diverged");
    drop((v1, v2));
    if smoke_only {
        println!("bench graph_open: ok (smoke)");
        return;
    }

    let v1_open = min_wall_clock(9, || LoadedGraph::open(&ws.v1).unwrap());
    let v2_open = min_wall_clock(15, || LoadedGraph::open(&ws.v2).unwrap());
    let speedup = v1_open.as_secs_f64() / v2_open.as_secs_f64().max(f64::EPSILON);
    println!("bench graph_open: v1 open {v1_open:?}, v2 open {v2_open:?} ({speedup:.2}x)");
}

criterion_group!(benches, bench_graph_open, graph_open_checks);
criterion_main!(benches);
