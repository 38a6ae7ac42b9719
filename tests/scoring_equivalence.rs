//! Selection cross-check suite.
//!
//! The engine's fast paths — the staged selection index and the per-edge
//! triangle table behind Stage I — are claimed to be *value-neutral*: they
//! must change cost only, never a selection. Debug builds check that claim
//! inside the engine: every selection of every run is compared with the
//! argmax of Algorithm 1's literal frontier scan, and a difference panics.
//! These tests put the production [`TwoStageLocalPartitioner`] under that
//! check across every generator family, both reseed policies, several
//! partition counts and seeds; the triangle table is additionally checked
//! against the merge counter on real adjacency.

use tlp::core::{EdgePartitioner, ReseedPolicy, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::generators::{
    barabasi_albert, chung_lu, erdos_renyi, genealogy, power_law_community, rmat, RmatProbabilities,
};
use tlp::graph::intersect::{edge_triangles, merge_intersection_size};
use tlp::graph::CsrGraph;

/// One representative per generator family, plus three larger graphs
/// (a denser Chung–Lu and the Chung–Lu/R-MAT pair once timed at p = 32),
/// small enough that the full reseed × p × seed matrix stays fast.
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
        ("chung_lu_dense", chung_lu(400, 2400, 2.1, 4)),
        ("chung_lu_600", chung_lu(600, 3000, 2.2, 9)),
        ("rmat_512", rmat(9, 2000, RmatProbabilities::default(), 9)),
    ]
}

/// The full matrix: every zoo graph, both reseed policies, p ∈ {2, 4, 5,
/// 8, 9, 32} and seeds {0, 1, 2}, each run by the production partitioner.
/// In debug builds the engine's cross-check makes every run's partition
/// the literal scan's, selection by selection; release builds check that
/// every edge is assigned.
#[test]
fn indexed_strategies_are_bit_identical_to_scan() {
    for (name, graph) in generator_zoo() {
        for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
            for p in [2, 4, 5, 8, 9, 32] {
                for seed in [0u64, 1, 2] {
                    let config = TlpConfig::new().seed(seed).reseed_policy(reseed);
                    let partition = TwoStageLocalPartitioner::new(config)
                        .partition(&graph, p)
                        .expect("partitioning failed");
                    assert_eq!(
                        partition.edge_counts().iter().sum::<usize>(),
                        graph.num_edges(),
                        "{name}: reseed {reseed:?}, p={p}, seed={seed}"
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
        for (e, edge) in graph.view().edge_iter().enumerate() {
            let (a, b) = edge.endpoints();
            let reference = merge_intersection_size(graph.neighbors(a), graph.neighbors(b));
            assert_eq!(tri[e] as usize, reference, "{name} table, edge {e}");
        }
    }
}
