//! Golden-assignment tests: exact, checked-in partition outputs for fixed
//! seeds. These pin the *bit-identical* behavior of the single-threaded,
//! single-trial partitioners across refactors — any change to selection
//! order, tie-breaking, or per-seed RNG streams shows up as a diff here.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! TLP_GOLDEN_UPDATE=1 cargo test --test golden_assignment
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use tlp::baselines::NePartitioner;
use tlp::core::{EdgePartitioner, StageSwitch, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::generators::{chung_lu, genealogy};
use tlp::graph::CsrGraph;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Renders a partition as a stable text artifact: a header line followed by
/// one partition id per edge, in edge-id order.
fn render(algo_name: &str, p: usize, assignment: &[u32]) -> String {
    let mut out = String::new();
    writeln!(out, "# {algo_name} p={p} m={}", assignment.len()).unwrap();
    for &pid in assignment {
        writeln!(out, "{pid}").unwrap();
    }
    out
}

fn check_golden(file: &str, graph: &CsrGraph, algo: &dyn EdgePartitioner, p: usize) {
    let algo_name = algo.name();
    let partition = algo
        .partition(graph, p)
        .unwrap_or_else(|e| panic!("{algo_name} failed: {e}"));
    let rendered = render(algo_name, p, partition.assignments());
    let path = golden_path(file);
    if std::env::var_os("TLP_GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with TLP_GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    if rendered != expected {
        let first_diff = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b);
        panic!(
            "{} output diverged from golden {} (first differing line: {:?}); \
             if the change is intentional, regenerate with TLP_GOLDEN_UPDATE=1",
            algo_name,
            path.display(),
            first_diff,
        );
    }
}

fn chung_lu_graph() -> CsrGraph {
    chung_lu(300, 1200, 2.2, 7)
}

/// TLP through the staged index; debug builds also check every selection
/// of this run against Algorithm 1's literal frontier scan.
#[test]
fn tlp_indexed_heap_matches_golden() {
    let config = TlpConfig::new().seed(42);
    check_golden(
        "tlp_indexed_chung_lu.txt",
        &chung_lu_graph(),
        &TwoStageLocalPartitioner::new(config),
        8,
    );
}

#[test]
fn tlp_r_matches_golden() {
    let config = TlpConfig::new()
        .seed(42)
        .stage_switch(StageSwitch::EdgeRatio(0.2));
    check_golden(
        "tlp_r_chung_lu.txt",
        &chung_lu_graph(),
        &TwoStageLocalPartitioner::new(config),
        8,
    );
}

#[test]
fn tlp_on_genealogy_matches_golden() {
    let config = TlpConfig::new().seed(3);
    check_golden(
        "tlp_genealogy.txt",
        &genealogy(200, 331, 5),
        &TwoStageLocalPartitioner::new(config),
        6,
    );
}

#[test]
fn ne_matches_golden() {
    check_golden(
        "ne_chung_lu.txt",
        &chung_lu_graph(),
        &NePartitioner::new(42),
        8,
    );
}

/// NE on a sparse, many-component graph: rounds run dry and reseed often,
/// so the golden pins NE's within-round reseed draws as well as its
/// selection order.
#[test]
fn ne_on_genealogy_matches_golden() {
    check_golden(
        "ne_genealogy.txt",
        &genealogy(200, 331, 5),
        &NePartitioner::new(3),
        6,
    );
}
