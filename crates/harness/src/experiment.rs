//! Running algorithms through the unified pipeline registry and
//! collecting records.
//!
//! Every experiment cell resolves its algorithm **by name** in the
//! [`builtin_registry`] and consumes the
//! shared [`RunArtifact`], so the harness binaries
//! carry no per-algorithm wiring. When the context sets `--stream-budget`,
//! streaming-capable algorithms run their passes through a budgeted
//! source, bounding their peak edge-buffer memory.

use crate::ExperimentContext;
use serde::{Deserialize, Serialize};
use tlp_core::{observed_parallel_map, AlgoConfig, AlgorithmRegistry, RunArtifact};
use tlp_datasets::DatasetId;
use tlp_graph::{CsrGraph, CsrSource};
use tlp_pipeline::builtin_registry;

/// The paper's Fig. 8 line-up, as registry names.
pub const PAPER_LINEUP: [&str; 5] = ["tlp", "metis", "ldg", "dbh", "random"];

/// One (dataset, algorithm, p) measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RfRecord {
    /// Dataset notation ("G1".."G9").
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of partitions.
    pub p: usize,
    /// Replication factor.
    pub rf: f64,
    /// Load balance (max load over ideal load).
    pub balance: f64,
    /// Wall-clock partitioning time in seconds.
    pub seconds: f64,
}

impl RfRecord {
    /// Projects a pipeline artifact onto a record row.
    pub fn from_artifact(dataset: DatasetId, artifact: &RunArtifact) -> Self {
        RfRecord {
            dataset: dataset.to_string(),
            algorithm: artifact.algorithm.clone(),
            p: artifact.num_partitions,
            rf: artifact.metrics.replication_factor,
            balance: artifact.metrics.balance,
            seconds: artifact.seconds,
        }
    }
}

/// Runs one registry algorithm over `graph` (through a budgeted source
/// when `stream_budget` is set) and projects the artifact onto a record.
///
/// # Panics
///
/// Panics if the spec fails to resolve or the algorithm fails —
/// configuration errors are programmer errors inside the harness.
pub fn run_one(
    registry: &AlgorithmRegistry,
    graph: &CsrGraph,
    spec: &str,
    dataset: DatasetId,
    p: usize,
    seed: u64,
    stream_budget: Option<usize>,
) -> RfRecord {
    let mut source = match stream_budget {
        Some(budget) => CsrSource::with_budget(graph, budget),
        None => CsrSource::new(graph),
    };
    let artifact = registry
        .run(spec, &AlgoConfig::seeded(seed), &mut source, p)
        .unwrap_or_else(|e| panic!("{spec} failed on {dataset}: {e}"));
    RfRecord::from_artifact(dataset, &artifact)
}

/// Runs the full `(p, algorithm)` matrix for one graph across
/// `ctx.worker_threads()` threads, returning records in the same order as
/// the sequential `for p { for spec { ... } }` loop.
///
/// Each cell resolves its spec in one shared [`builtin_registry`] and runs
/// over its own source handle on the shared graph. Wall-clock columns are
/// per-cell (they measure the algorithm, not the matrix), so parallel
/// execution does not distort them beyond ordinary scheduling noise.
pub fn run_matrix(
    graph: &CsrGraph,
    dataset: DatasetId,
    partition_counts: &[usize],
    lineup: &[&str],
    ctx: &ExperimentContext,
) -> Vec<RfRecord> {
    let registry = builtin_registry();
    let cells: Vec<(usize, &str)> = partition_counts
        .iter()
        .flat_map(|&p| lineup.iter().map(move |&spec| (p, spec)))
        .collect();
    observed_parallel_map(ctx.worker_threads(), &cells, |_, &(p, spec)| {
        run_one(
            &registry,
            graph,
            spec,
            dataset,
            p,
            ctx.seed,
            ctx.stream_budget,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::generators::chung_lu;

    #[test]
    fn run_one_produces_sane_record() {
        let g = chung_lu(200, 800, 2.2, 1);
        let registry = builtin_registry();
        let rec = run_one(&registry, &g, "random", DatasetId::G1, 4, 0, None);
        assert_eq!(rec.dataset, "G1");
        assert_eq!(rec.algorithm, "Random");
        assert_eq!(rec.p, 4);
        assert!(rec.rf >= 1.0);
        assert!(rec.balance >= 1.0);
        assert!(rec.seconds >= 0.0);
    }

    #[test]
    fn lineup_has_the_papers_five_algorithms() {
        let registry = builtin_registry();
        let labels: Vec<&str> = PAPER_LINEUP
            .iter()
            .map(|spec| registry.entry_of(spec).expect("registered").label)
            .collect();
        assert_eq!(labels, vec!["TLP", "METIS", "LDG", "DBH", "Random"]);
    }

    #[test]
    fn stream_budget_does_not_change_streaming_results() {
        let g = chung_lu(300, 1200, 2.2, 7);
        let registry = builtin_registry();
        for spec in ["random", "dbh", "greedy", "hdrf"] {
            let unbounded = run_one(&registry, &g, spec, DatasetId::G1, 6, 3, None);
            let bounded = run_one(&registry, &g, spec, DatasetId::G1, 6, 3, Some(64));
            assert_eq!(unbounded.rf, bounded.rf, "{spec} RF drifted under budget");
            assert_eq!(unbounded.balance, bounded.balance, "{spec}");
        }
    }
}
