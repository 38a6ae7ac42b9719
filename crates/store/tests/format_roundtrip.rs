//! Round-trip property: any graph written to the binary format (either
//! version) reads back bit-identically — CSR arrays, degrees, and original
//! ids all equal — and the v2 zero-copy arena agrees with the decoder.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tlp_graph::generators::{barabasi_albert, chung_lu, erdos_renyi, genealogy};
use tlp_graph::{CsrGraph, GraphBuilder};
use tlp_store::format::SourceStamp;
use tlp_store::{write_graph, FormatVersion, GraphBuf, StoreReader, WriteOptions};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_path() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-store-roundtrip-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("graph.tlpg")
}

fn assert_roundtrip(graph: &CsrGraph, original_ids: Option<Vec<u64>>) {
    for version in [FormatVersion::V1, FormatVersion::V2] {
        let path = temp_path();
        let options = WriteOptions {
            original_ids: original_ids.clone(),
            source: Some(SourceStamp {
                len: 12345,
                mtime: 67890,
            }),
            version,
        };
        write_graph(&path, graph, &options).unwrap();

        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.version(), version.number());
        assert_eq!(reader.header().num_vertices as usize, graph.num_vertices());
        assert_eq!(reader.header().num_edges as usize, graph.num_edges());
        assert_eq!(reader.header().source.len, 12345);

        let degrees = reader.read_degrees().unwrap();
        for v in graph.vertices() {
            assert_eq!(degrees[v as usize] as usize, graph.degree(v));
        }

        let stored = reader.read_graph().unwrap();
        assert_eq!(&stored, graph, "CSR not bit-identical after reload");
        assert_eq!(reader.read_original_ids().unwrap(), original_ids);

        if version == FormatVersion::V2 {
            // The zero-copy arena must expose exactly the same graph.
            let arena = GraphBuf::open(&path).unwrap();
            assert_eq!(arena.view(), graph.view());
            assert_eq!(
                arena.original_ids().map(<[u64]>::to_vec),
                original_ids.clone()
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

#[test]
fn generator_families_roundtrip() {
    for (name, graph) in [
        ("erdos_renyi", erdos_renyi(500, 2000, 11)),
        ("chung_lu", chung_lu(500, 2000, 2.5, 12)),
        ("barabasi_albert", barabasi_albert(400, 4, 13)),
        ("genealogy", genealogy(300, 900, 14)),
    ] {
        let ids: Vec<u64> = (0..graph.num_vertices() as u64)
            .map(|v| v * 3 + 7)
            .collect();
        assert_roundtrip(&graph, None);
        assert_roundtrip(&graph, Some(ids));
        let _ = name;
    }
}

#[test]
fn edge_case_graphs_roundtrip() {
    // Empty graph, single edge, isolated trailing vertices.
    assert_roundtrip(&GraphBuilder::new().build(), None);
    assert_roundtrip(&GraphBuilder::new().add_edge(0, 1).build(), None);
    assert_roundtrip(
        &GraphBuilder::new()
            .reserve_vertices(10)
            .add_edge(0, 1)
            .build(),
        Some((0..10).collect()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary dirty edge lists: build -> write -> read is the identity
    /// on the built graph.
    #[test]
    fn arbitrary_graphs_roundtrip(
        edges in (2u32..64).prop_flat_map(|n| {
            prop::collection::vec((0..n, 0..n), 0..200)
        })
    ) {
        let graph = GraphBuilder::new().add_edges(edges).build();
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let path = temp_path();
            let options = WriteOptions { version, ..WriteOptions::default() };
            write_graph(&path, &graph, &options).unwrap();
            let stored = StoreReader::open(&path).unwrap().read_graph().unwrap();
            prop_assert_eq!(&stored, &graph);
            if version == FormatVersion::V2 {
                let arena = GraphBuf::open(&path).unwrap();
                prop_assert_eq!(arena.view(), graph.view());
            }
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
