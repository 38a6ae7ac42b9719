//! Format compatibility: the checked-in golden v1 `.tlpg` bytes must stay
//! readable forever, and every source of the same graph — a v1 file
//! (decode + CSR rebuild), a v2 file (zero-copy arena), and an in-memory
//! CSR — must produce bit-identical partitions and metrics.
//!
//! To regenerate the fixture after an intentional v1 *writer* change (the
//! reader must still accept the old bytes!):
//!
//! ```text
//! TLP_GOLDEN_UPDATE=1 cargo test --test format_compat
//! ```

use std::path::PathBuf;
use tlp::core::{AlgoConfig, Capability};
use tlp::graph::generators::erdos_renyi;
use tlp::graph::{CsrGraph, CsrSource};
use tlp::pipeline::{builtin_names, builtin_registry};
use tlp::store::{
    write_graph, BinaryFileSource, FormatVersion, LoadedGraph, StoreReader, WriteOptions,
    VERSION_V2,
};

const P: usize = 8;

/// The graph the golden fixture was generated from.
fn fixture_graph() -> CsrGraph {
    erdos_renyi(128, 512, 21)
}

/// Original-id map stamped into the fixture (a non-identity mapping, so an
/// ids regression cannot hide behind the identity default).
fn fixture_ids(n: usize) -> Vec<u64> {
    (0..n as u64).map(|v| v * 10 + 7).collect()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("graph_v1.tlpg")
}

#[test]
fn golden_v1_bytes_still_open() {
    let path = fixture_path();
    let graph = fixture_graph();
    let ids = fixture_ids(graph.num_vertices());
    if std::env::var("TLP_GOLDEN_UPDATE").is_ok() {
        let options = WriteOptions {
            original_ids: Some(ids.clone()),
            source: None,
            version: FormatVersion::V1,
        };
        write_graph(&path, &graph, &options).unwrap();
    }

    // Raw decode path.
    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.version(), 1, "fixture is not a v1 file");
    let stored = reader.read_graph().unwrap();
    assert_eq!(stored, graph, "golden v1 bytes decoded differently");
    assert_eq!(reader.read_original_ids().unwrap(), Some(ids.clone()));

    // Unified open path: a v1 file comes back decoded, not as an arena.
    let loaded = LoadedGraph::open(&path).unwrap();
    assert!(matches!(loaded, LoadedGraph::Owned { .. }));
    assert_eq!(loaded.view(), graph.view());
    assert_eq!(loaded.original_ids(), Some(ids.as_slice()));
}

/// Runs every built-in algorithm from four sources of the same graph —
/// in-memory CSR, v1 file view, v2 arena view, and (for streaming-capable
/// algorithms) bounded disk streams of both files — and demands
/// bit-identical assignments and metrics everywhere.
#[test]
fn partitions_bit_identical_across_v1_v2_and_memory_sources() {
    let graph = erdos_renyi(600, 2400, 33);
    let dir = std::env::temp_dir().join(format!("tlp-format-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let v1_path = dir.join("graph_v1.tlpg");
    let v2_path = dir.join("graph_v2.tlpg");
    for (path, version) in [(&v1_path, FormatVersion::V1), (&v2_path, FormatVersion::V2)] {
        let options = WriteOptions {
            version,
            ..WriteOptions::default()
        };
        write_graph(path, &graph, &options).unwrap();
    }

    let v1 = LoadedGraph::open(&v1_path).unwrap();
    let v2 = LoadedGraph::open(&v2_path).unwrap();
    assert!(matches!(v1, LoadedGraph::Owned { .. }));
    assert!(matches!(&v2, LoadedGraph::Arena(buf) if buf.header().version == VERSION_V2));

    let registry = builtin_registry();
    let config = AlgoConfig::seeded(47);
    for name in builtin_names() {
        let spec = if name == "tlp-r" {
            "tlp-r=0.3".to_string()
        } else {
            name.to_string()
        };
        let reference = registry
            .run(&spec, &config, &mut CsrSource::new(&graph), P)
            .unwrap_or_else(|e| panic!("{name} from memory failed: {e}"));

        for (label, loaded) in [("v1", &v1), ("v2", &v2)] {
            let from_file = registry
                .run(&spec, &config, &mut CsrSource::new(loaded.view()), P)
                .unwrap_or_else(|e| panic!("{name} from {label} view failed: {e}"));
            assert_eq!(
                from_file.partition, reference.partition,
                "{name}: {label} view and in-memory runs placed edges differently"
            );
            assert_eq!(
                from_file.metrics, reference.metrics,
                "{name}: {label} view and in-memory artifacts disagree on metrics"
            );
        }

        if registry.entry_of(&spec).unwrap().capability == Capability::Streaming {
            for (label, path) in [("v1", &v1_path), ("v2", &v2_path)] {
                let mut stream = BinaryFileSource::open(path, 128)
                    .unwrap()
                    .strict_streaming(true);
                let from_stream = registry
                    .run(&spec, &config, &mut stream, P)
                    .unwrap_or_else(|e| panic!("{name} from {label} stream failed: {e}"));
                assert_eq!(
                    from_stream.partition, reference.partition,
                    "{name}: {label} stream and in-memory runs placed edges differently"
                );
            }
        }
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
