//! Byte-for-byte pins of the binary files `tlp-store` writes, next to the
//! v1 graph that `format_compat` pins: a v2 `.tlpg` with original ids, an
//! engine checkpoint, a three-record placement WAL, and a two-partition
//! store (segments plus `MANIFEST.tlp`). Today's writers must reproduce
//! every fixture exactly, and the readers must decode each one back to the
//! input it was written from.
//!
//! To regenerate the fixtures after an intentional format change (the
//! readers must still accept the old bytes, except a format-1 checkpoint,
//! which must be rejected with a typed error):
//!
//! ```text
//! TLP_GOLDEN_UPDATE=1 cargo test --test store_golden
//! ```

use std::path::{Path, PathBuf};
use tlp::core::{EdgePartition, EngineCheckpoint, PartitionMetrics, ReseedPolicy, StageSwitch};
use tlp::graph::{CsrGraph, GraphBuilder};
use tlp::store::format::SourceStamp;
use tlp::store::{
    read_checkpoint, read_wal, write_checkpoint, write_graph, write_partition_store, GraphBuf,
    LoadedGraph, PartitionStoreReader, PlacementWal, StoreError, StoreReader, WalRecord,
    WriteOptions, CHECKPOINT_NAME, MANIFEST_NAME, VERSION_V2, WAL_NAME,
};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-store-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts that the file the writer just produced at `written` equals the
/// fixture `name` byte for byte (rewriting the fixture first under
/// `TLP_GOLDEN_UPDATE`).
fn assert_pinned(written: &Path, name: &str) {
    let bytes = std::fs::read(written).unwrap();
    let fixture = golden(name);
    if std::env::var("TLP_GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        std::fs::write(&fixture, &bytes).unwrap();
    }
    let pinned = std::fs::read(&fixture).unwrap();
    assert!(
        pinned == bytes,
        "{name}: writer output ({} bytes) differs from the checked-in fixture ({} bytes)",
        bytes.len(),
        pinned.len()
    );
}

/// Six vertices, eight edges: small enough to read in a hex dump.
fn graph() -> CsrGraph {
    GraphBuilder::new()
        .add_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (3, 5),
            (1, 5),
        ])
        .build()
}

#[test]
fn v2_graph_with_original_ids_is_pinned() {
    let g = graph();
    let ids = vec![900, 17, 4, 123_456_789_012, 5, 61];
    let dir = scratch("tlpg");
    let path = dir.join("g.tlpg");
    let options = WriteOptions {
        original_ids: Some(ids.clone()),
        source: Some(SourceStamp {
            len: 4242,
            mtime: 1_700_000_000,
        }),
        ..WriteOptions::default()
    };
    write_graph(&path, &g, &options).unwrap();
    assert_pinned(&path, "graph_v2.tlpg");

    let fixture = golden("graph_v2.tlpg");
    let reader = StoreReader::open(&fixture).unwrap();
    assert_eq!(reader.version(), VERSION_V2);
    assert_eq!(reader.header().source.len, 4242);
    assert_eq!(reader.header().source.mtime, 1_700_000_000);
    assert_eq!(reader.read_graph().unwrap(), g);
    assert_eq!(reader.read_original_ids().unwrap(), Some(ids.clone()));

    let loaded = LoadedGraph::open(&fixture).unwrap();
    assert!(matches!(loaded, LoadedGraph::Arena(_)));
    assert_eq!(loaded.view(), g.view());
    assert_eq!(loaded.original_ids(), Some(ids.as_slice()));
    let arena = GraphBuf::open(&fixture).unwrap();
    assert_eq!(arena.view(), g.view());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_is_pinned() {
    let ckpt = EngineCheckpoint {
        seed: 99,
        stage_switch: StageSwitch::EdgeRatio(0.25),
        reseed_policy: ReseedPolicy::Break,
        num_partitions: 3,
        next_round: 2,
        rng_state: [11, 22, 33, 0xDEAD_BEEF_0BAD_F00D],
        assignment: vec![0, 2, 1, 0, 2, 1, 0, 0, 1],
        allocated: vec![true, true, true, false, true, true, false, false, true],
        num_vertices: 12,
        num_edges: 9,
        graph_fingerprint: 0x0123_4567_89AB_CDEF,
    };
    let dir = scratch("ckpt");
    write_checkpoint(&dir, &ckpt).unwrap();
    assert_pinned(&dir.join(CHECKPOINT_NAME), "checkpoint_v2.tlpc");

    // The reader takes a directory: read the fixture from a copy.
    let copy = scratch("ckpt-read");
    std::fs::copy(golden("checkpoint_v2.tlpc"), copy.join(CHECKPOINT_NAME)).unwrap();
    assert_eq!(read_checkpoint(&copy).unwrap(), Some(ckpt));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

/// A format-1 checkpoint records neither the stage switch, the reseed
/// policy nor a graph fingerprint, so a resume from it cannot be checked;
/// the reader refuses it with a typed error instead of guessing.
#[test]
fn checkpoint_v1_is_rejected_with_a_typed_error() {
    let copy = scratch("ckpt-v1");
    std::fs::copy(golden("checkpoint_v1.tlpc"), copy.join(CHECKPOINT_NAME)).unwrap();
    assert!(matches!(
        read_checkpoint(&copy),
        Err(StoreError::UnsupportedVersion { found: 1 })
    ));
    std::fs::remove_dir_all(&copy).unwrap();
}

#[test]
fn three_record_wal_is_pinned() {
    let records = [
        WalRecord {
            u: 0,
            v: 3,
            partition: 1,
        },
        WalRecord {
            u: 2,
            v: 70_000,
            partition: 0,
        },
        WalRecord {
            u: 5,
            v: 6,
            partition: 7,
        },
    ];
    let dir = scratch("wal");
    let (mut wal, replay) = PlacementWal::open(&dir).unwrap();
    assert!(replay.records.is_empty());
    for record in &records {
        wal.append(record).unwrap();
    }
    drop(wal);
    assert_pinned(&dir.join(WAL_NAME), "wal.tlpw");

    let replay = read_wal(&golden("wal.tlpw")).unwrap();
    assert_eq!(replay.records, records);
    assert_eq!(replay.torn_tail_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_partition_store_is_pinned() {
    let g = graph();
    let partition = EdgePartition::new(2, vec![0, 0, 0, 1, 1, 1, 1, 0]).unwrap();
    let dir = scratch("pstore");
    let manifest = write_partition_store(&dir, &g, &partition).unwrap();
    let files = ["part-00000.seg", "part-00001.seg", MANIFEST_NAME];
    for file in files {
        assert_pinned(&dir.join(file), &format!("partition_store/{file}"));
    }

    // Opening a store may quarantine (rename) it, so read a copy.
    let copy = scratch("pstore-read");
    for file in files {
        std::fs::copy(golden(&format!("partition_store/{file}")), copy.join(file)).unwrap();
    }
    let reader = PartitionStoreReader::open(&copy).unwrap();
    assert_eq!(reader.manifest(), &manifest);
    let (stored_graph, stored_partition) = reader.load().unwrap();
    assert_eq!(stored_graph, g);
    assert_eq!(stored_partition, partition);
    let live = PartitionMetrics::compute(&g, &partition);
    assert_eq!(reader.recompute_metrics().unwrap(), live);
    assert_eq!(
        reader.manifest().replication_factor(),
        live.replication_factor
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}
