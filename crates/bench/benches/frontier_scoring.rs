//! Frontier-scoring bench: lazy-heap selection vs. full-frontier rescan.
//!
//! Measures the production `StagedPolicy` against the reference
//! `ScanPolicy` (Algorithm 1's per-step frontier scan) end to end on the
//! Chung–Lu and R-MAT generators at p = 32 — the regime the paper calls
//! out (§III-E) where scanning `N(P_k)` per step dominates. Beyond the
//! criterion timings, the full run asserts that the two produce identical
//! partitions and that `StagedPolicy` is at least 2x faster than the scan
//! on both generators, and emits the measured trajectory to
//! `BENCH_frontier_scoring.json` at the workspace root (see EXPERIMENTS.md
//! for the refresh procedure).
//!
//! `cargo bench -p tlp-bench --bench frontier_scoring -- --test` runs a
//! downsized smoke pass: output equality is still asserted, timings are
//! neither trusted nor written.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde::Serialize;
use std::time::{Duration, Instant};
use tlp_core::engine::{self, ScanPolicy, SelectionPolicy, StagedPolicy};
use tlp_core::{EdgePartition, TlpConfig};
use tlp_graph::generators::{chung_lu, rmat, RmatProbabilities};
use tlp_graph::CsrGraph;

const PARTITIONS: usize = 32;
const SEED: u64 = 9;

/// One TLP run at p = 32 under a frontier selector.
type Selector = fn(&CsrGraph) -> EdgePartition;

const SELECTORS: [(&str, Selector); 2] = [("linear_scan", run_scan), ("indexed_heap", run_indexed)];

fn run_with<P: SelectionPolicy>(graph: &CsrGraph, mut policy: P) -> EdgePartition {
    let config = TlpConfig::new().seed(1);
    engine::run(graph, PARTITIONS, &config, &mut policy).expect("partitioning")
}

fn run_scan(graph: &CsrGraph) -> EdgePartition {
    run_with(graph, ScanPolicy)
}

fn run_indexed(graph: &CsrGraph) -> EdgePartition {
    run_with(graph, StagedPolicy::default())
}

fn graphs(smoke: bool) -> Vec<(&'static str, CsrGraph)> {
    if smoke {
        vec![
            ("chung_lu", chung_lu(600, 3_000, 2.2, SEED)),
            ("rmat", rmat(9, 2_000, RmatProbabilities::default(), SEED)),
        ]
    } else {
        vec![
            ("chung_lu", chung_lu(120_000, 400_000, 2.2, SEED)),
            (
                "rmat",
                rmat(18, 400_000, RmatProbabilities::default(), SEED),
            ),
        ]
    }
}

fn min_wall_clock(graph: &CsrGraph, selector: Selector, repeats: usize) -> Duration {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(selector(graph));
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_frontier_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_scoring");
    group.sample_size(5);
    for (gname, graph) in graphs(true) {
        for (sname, selector) in SELECTORS {
            let id = BenchmarkId::new(gname, sname);
            group.bench_function(id, |b| b.iter(|| selector(&graph)));
        }
    }
    group.finish();
}

/// One measured generator in the emitted baseline.
#[derive(Serialize)]
struct BaselineEntry {
    graph: &'static str,
    vertices: usize,
    edges: usize,
    linear_scan_ms: f64,
    indexed_heap_ms: f64,
    speedup_indexed_vs_scan: f64,
}

/// The `BENCH_frontier_scoring.json` trajectory file.
#[derive(Serialize)]
struct Baseline {
    bench: &'static str,
    partitions: usize,
    seed: u64,
    entries: Vec<BaselineEntry>,
}

fn speedup_checks(_c: &mut Criterion) {
    let smoke_only = std::env::args().any(|a| a == "--test");
    let mut entries = Vec::new();

    for (gname, graph) in graphs(smoke_only) {
        // The lazy heaps must stay bit-identical to the reference scan on
        // the exact workloads being timed.
        assert_eq!(
            run_scan(&graph),
            run_indexed(&graph),
            "{gname}: indexed_heap diverged from linear_scan"
        );
        if smoke_only {
            println!("bench frontier_scoring/{gname}: ok (smoke)");
            continue;
        }

        let scan = min_wall_clock(&graph, run_scan, 3);
        let indexed = min_wall_clock(&graph, run_indexed, 3);
        let speedup_idx = scan.as_secs_f64() / indexed.as_secs_f64().max(f64::EPSILON);
        println!(
            "bench frontier_scoring/{gname}: scan {scan:?}, indexed {indexed:?} \
             ({speedup_idx:.2}x vs scan)"
        );
        assert!(
            speedup_idx >= 2.0,
            "{gname}: indexed selection is only {speedup_idx:.2}x faster than the \
             full-frontier rescan at p = {PARTITIONS}; expected >= 2x"
        );
        entries.push(BaselineEntry {
            graph: gname,
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            linear_scan_ms: scan.as_secs_f64() * 1e3,
            indexed_heap_ms: indexed.as_secs_f64() * 1e3,
            speedup_indexed_vs_scan: speedup_idx,
        });
    }

    if smoke_only {
        return;
    }
    let baseline = Baseline {
        bench: "frontier_scoring",
        partitions: PARTITIONS,
        seed: SEED,
        entries,
    };
    // crates/bench -> workspace root. The shared obs writer prepends the
    // workspace-wide "schema" field and writes atomically.
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_frontier_scoring.json"
    ));
    tlp_obs::bench::write_bench_json(path, &baseline).expect("write baseline");
    let written = tlp_obs::bench::read_bench_json(path).expect("read baseline back");
    let keys = tlp_obs::bench::top_level_keys(&written);
    for expected in ["schema", "bench", "partitions", "seed", "entries"] {
        assert!(
            keys.iter().any(|k| k == expected),
            "BENCH_frontier_scoring.json lost its {expected:?} key (got {keys:?})"
        );
    }
    println!("bench frontier_scoring: baseline written to BENCH_frontier_scoring.json");
}

criterion_group!(benches, bench_frontier_scoring, speedup_checks);
criterion_main!(benches);
