//! Scan-vs-indexed differential suite.
//!
//! The engine's fast paths — the lazy-heap selectors and the per-edge
//! triangle table behind Stage I — are claimed to be *value-neutral*: they
//! must change cost only, never a selection. These tests pin that claim by
//! running the reference [`ScanPolicy`] (Algorithm 1's frontier scans)
//! against the production [`TwoStageLocalPartitioner`] across every
//! generator family, both reseed policies, and p ∈ {4, 8, 32}, asserting
//! bit-identical assignments; the triangle table is additionally checked
//! against the merge counter on real adjacency.

use tlp::core::engine::{self, ScanPolicy};
use tlp::core::{
    EdgePartition, EdgePartitioner, ReseedPolicy, TlpConfig, TwoStageLocalPartitioner,
};
use tlp::graph::generators::{
    barabasi_albert, chung_lu, erdos_renyi, genealogy, power_law_community, rmat, RmatProbabilities,
};
use tlp::graph::intersect::{edge_triangles, merge_intersection_size};
use tlp::graph::CsrGraph;
use tlp::obs::{EventKind, RecordingObserver};

/// One representative per generator family, small enough that the full
/// policy × reseed × p matrix stays fast.
fn generator_zoo() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chung_lu", chung_lu(300, 1500, 2.1, 5)),
        ("erdos_renyi", erdos_renyi(200, 600, 6)),
        ("genealogy", genealogy(400, 650, 7)),
        ("barabasi_albert", barabasi_albert(250, 3, 8)),
        ("rmat", rmat(8, 900, RmatProbabilities::default(), 9)),
        (
            "power_law_community",
            power_law_community(300, 1200, 2.1, 6, 0.25, 10),
        ),
    ]
}

/// The reference run: Algorithm 1's frontier scan through the engine.
fn run_scan(graph: &CsrGraph, p: usize, config: &TlpConfig) -> EdgePartition {
    engine::run(graph, p, config, &mut ScanPolicy).expect("partitioning failed")
}

/// The production run: the lazy-heap selector behind the public API.
fn run_indexed(graph: &CsrGraph, p: usize, config: &TlpConfig) -> EdgePartition {
    TwoStageLocalPartitioner::new(*config)
        .partition(graph, p)
        .expect("partitioning failed")
}

/// The full differential matrix: every generator family, both reseed
/// policies, p ∈ {4, 8, 32}, the indexed selector against the scan.
#[test]
fn indexed_strategies_are_bit_identical_to_scan() {
    for (name, graph) in generator_zoo() {
        for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
            for p in [4, 8, 32] {
                for seed in [0u64, 1] {
                    let config = TlpConfig::new().seed(seed).reseed_policy(reseed);
                    assert_eq!(
                        run_scan(&graph, p, &config),
                        run_indexed(&graph, p, &config),
                        "{name}: StagedPolicy diverged from ScanPolicy \
                         (reseed {reseed:?}, p={p}, seed={seed})"
                    );
                }
            }
        }
    }
}

/// The triangle table (what the engine reads for Stage I) agrees with the
/// merge counter on every edge of every generator family.
#[test]
fn kernels_agree_on_generated_adjacency() {
    for (name, graph) in generator_zoo() {
        let tri = edge_triangles(&graph);
        for (e, edge) in graph.edges().iter().enumerate() {
            let (a, b) = edge.endpoints();
            let reference = merge_intersection_size(graph.neighbors(a), graph.neighbors(b));
            assert_eq!(tri[e] as usize, reference, "{name} table, edge {e}");
        }
    }
}

/// The `scoring.*` counters a run emits, in emission order (one per round,
/// zero deltas suppressed).
fn scoring_counters(run: impl FnOnce()) -> Vec<(String, u64)> {
    let ((), recorder) = tlp::obs::with_observer(RecordingObserver::default(), run);
    recorder
        .events
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::Counter { name, delta } if name.starts_with("scoring.") => {
                Some((name, delta))
            }
            _ => None,
        })
        .collect()
}

fn total(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, delta)| delta)
        .sum()
}

/// The per-round `scoring.terms` obs counter must show Stage I work on a
/// non-trivial graph, and be identical for both policies (scoring is
/// shared engine state, independent of how the argmax is located).
#[test]
fn scoring_terms_are_identical_for_scan_and_indexed() {
    let graph = chung_lu(400, 2400, 2.1, 4);
    let config = TlpConfig::new().seed(2);
    let scan = scoring_counters(|| {
        run_scan(&graph, 4, &config);
    });
    let indexed = scoring_counters(|| {
        run_indexed(&graph, 4, &config);
    });
    assert!(
        total(&scan, "scoring.terms") > 0,
        "no terms were ever computed"
    );
    assert_eq!(scan, indexed);
}
