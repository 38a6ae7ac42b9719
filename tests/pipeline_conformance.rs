//! Registry conformance: every built-in algorithm runs by name through the
//! unified pipeline from a materialized CSR source AND from a strict
//! bounded-memory disk stream. Streaming-capable algorithms must produce
//! identical artifacts from both; random-access-only algorithms must refuse
//! the strict stream with the typed capability error — never silently.

use tlp::core::{AlgoConfig, Capability, PipelineError};
use tlp::graph::generators::chung_lu;
use tlp::graph::{CsrGraph, CsrSource, Edge, EdgeSource, GraphView, PassStats, SourceError};
use tlp::pipeline::{builtin_names, builtin_registry};
use tlp::store::{write_graph, BinaryFileSource, WriteOptions};

const P: usize = 8;
const BUDGET: usize = 256;

fn spec_of(name: &str) -> String {
    if name == "tlp-r" {
        "tlp-r=0.3".to_string()
    } else {
        name.to_string()
    }
}

#[test]
fn every_algorithm_conforms_from_csr_and_disk_sources() {
    let graph = chung_lu(900, 3600, 2.2, 19);
    let dir = std::env::temp_dir().join(format!("tlp-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("graph.tlpg");
    write_graph(&bin, &graph, &WriteOptions::default()).unwrap();

    let registry = builtin_registry();
    let config = AlgoConfig::seeded(29);
    let mut streamed = 0usize;
    let mut refused = 0usize;
    for name in builtin_names() {
        let spec = spec_of(name);
        let entry = registry.entry_of(&spec).expect("registered");

        let from_csr = registry
            .run(&spec, &config, &mut CsrSource::new(&graph), P)
            .unwrap_or_else(|e| panic!("{name} from CSR failed: {e}"));
        assert_eq!(from_csr.num_partitions, P, "{name}");
        assert_eq!(
            from_csr.partition.num_edges(),
            graph.num_edges(),
            "{name} did not assign every edge"
        );

        let mut disk = BinaryFileSource::open(&bin, BUDGET)
            .unwrap_or_else(|e| panic!("{name}: open {}: {e}", bin.display()))
            .strict_streaming(true);
        match entry.capability {
            Capability::Streaming => {
                let from_disk = registry
                    .run(&spec, &config, &mut disk, P)
                    .unwrap_or_else(|e| panic!("{name} from disk stream failed: {e}"));
                assert_eq!(
                    from_disk.partition, from_csr.partition,
                    "{name}: disk stream and CSR runs placed edges differently"
                );
                assert_eq!(
                    from_disk.metrics, from_csr.metrics,
                    "{name}: disk stream and CSR artifacts disagree on metrics"
                );
                let peak = from_disk
                    .peak_stream_buffer
                    .unwrap_or_else(|| panic!("{name}: streaming run reported no peak buffer"));
                assert!(
                    peak <= BUDGET,
                    "{name}: peak {peak} exceeds budget {BUDGET}"
                );
                streamed += 1;
            }
            Capability::RandomAccess => {
                // The skip must be an explicit, typed refusal — not a
                // silent fallback to materialization.
                let err = registry
                    .run(&spec, &config, &mut disk, P)
                    .expect_err(&format!("{name} must refuse a strict stream"));
                match err {
                    PipelineError::NeedsRandomAccess { algorithm, .. } => {
                        assert_eq!(algorithm, from_csr.algorithm, "{name}");
                    }
                    other => panic!("{name}: expected NeedsRandomAccess, got {other}"),
                }
                refused += 1;
            }
        }
    }
    assert_eq!(streamed, 4, "streaming row count drifted");
    assert_eq!(refused, 8, "csr-only row count drifted");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A pass-only source that knows its vertex count but not its degrees —
/// like a one-pass stream with a header and nothing else.
struct PassOnly(CsrGraph);

impl EdgeSource for PassOnly {
    fn describe(&self) -> String {
        "pass-only".to_string()
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.0.num_vertices())
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.0.num_edges())
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        None
    }

    fn supports_random_access(&self) -> bool {
        false
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        Err(SourceError::NeedsRandomAccess {
            source: self.describe(),
        })
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        CsrSource::new(&self.0).stream_pass(sink)
    }
}

#[test]
fn dbh_without_degrees_or_random_access_reports_missing_degrees() {
    let mut source = PassOnly(chung_lu(200, 800, 2.2, 3));
    let err = builtin_registry()
        .run("dbh", &AlgoConfig::seeded(1), &mut source, P)
        .expect_err("dbh cannot place edges without final degrees");
    match err {
        PipelineError::Source(SourceError::MissingMeta { what, source }) => {
            assert_eq!(what, "degrees");
            assert_eq!(source, "pass-only");
        }
        other => panic!("expected MissingMeta {{ what: \"degrees\" }}, got {other}"),
    }
}
