//! Crash-point sweep: inject a fault at every store I/O operation index in
//! turn and assert the on-disk state after each failed write is the
//! previous valid file (graphs, checkpoints) or a quarantined torn store
//! (partition stores) — never silently corrupt data.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use tlp_core::{EdgePartition, EngineCheckpoint, ReseedPolicy, StageSwitch};
use tlp_graph::generators::chung_lu;
use tlp_graph::CsrGraph;
use tlp_store::faults::{self, FaultKind, FaultSchedule};
use tlp_store::{
    read_checkpoint, read_wal, write_checkpoint, write_graph, write_partition_store, FormatVersion,
    LoadedGraph, PartitionStoreReader, StoreError, StoreReader, WriteOptions, WAL_NAME,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_back(path: &Path) -> Result<CsrGraph, StoreError> {
    StoreReader::open(path)?.read_graph()
}

/// Reads through [`LoadedGraph`] — the zero-copy arena for v2 files — so
/// the sweeps also cover the production open path for both formats.
fn read_back_zero_copy(path: &Path) -> Result<LoadedGraph, StoreError> {
    LoadedGraph::open(path)
}

/// Removes any `<dir>.quarantine[.N]` siblings left by a quarantining open.
fn sweep_quarantines(dir: &Path) {
    let name = dir.file_name().unwrap().to_string_lossy().to_string();
    let parent = dir.parent().unwrap();
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let entry_name = entry.file_name().to_string_lossy().to_string();
        if entry_name.starts_with(&format!("{name}.quarantine")) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

#[test]
fn graph_write_sweep_preserves_previous_file() {
    let _guard = faults::test_lock();
    let dir = temp_dir("graph");
    let path = dir.join("g.tlpg");
    let old = chung_lu(120, 480, 2.2, 7);
    let new = chung_lu(120, 480, 2.2, 8);

    for version in [FormatVersion::V1, FormatVersion::V2] {
        let opts = WriteOptions {
            version,
            ..WriteOptions::default()
        };
        write_graph(&path, &old, &opts).unwrap();
        let (counted, total) = faults::count_ops(|| write_graph(&path, &new, &opts));
        counted.unwrap();
        assert!(total > 0, "op counter saw no I/O");
        write_graph(&path, &old, &opts).unwrap(); // restore the "previous" state

        for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
            for at_op in 0..total {
                faults::arm(FaultSchedule {
                    at_op,
                    kind,
                    seed: at_op,
                });
                let failed = write_graph(&path, &new, &opts);
                faults::disarm();
                assert!(
                    failed.is_err(),
                    "{version:?} {kind:?} at op {at_op} did not fail the write"
                );
                let survivor = read_back(&path).unwrap_or_else(|e| {
                    panic!("{version:?} {kind:?} at op {at_op}: previous file unreadable: {e}")
                });
                assert_eq!(
                    survivor, old,
                    "{version:?} {kind:?} at op {at_op} corrupted the previous file"
                );
                let arena = read_back_zero_copy(&path).unwrap_or_else(|e| {
                    panic!("{version:?} {kind:?} at op {at_op}: zero-copy open failed: {e}")
                });
                assert_eq!(
                    arena.view(),
                    old.view(),
                    "{version:?} {kind:?} at op {at_op} corrupted the arena view"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graph_write_bit_flips_are_never_read_back_silently() {
    let _guard = faults::test_lock();
    let dir = temp_dir("flip");
    let path = dir.join("g.tlpg");
    let graph = chung_lu(120, 480, 2.2, 9);

    for version in [FormatVersion::V1, FormatVersion::V2] {
        let opts = WriteOptions {
            version,
            ..WriteOptions::default()
        };
        let (counted, total) = faults::count_ops(|| write_graph(&path, &graph, &opts));
        counted.unwrap();

        for at_op in 0..total {
            faults::arm(FaultSchedule {
                at_op,
                kind: FaultKind::BitFlip,
                seed: 0xC0FF_EE00 ^ at_op,
            });
            let result = write_graph(&path, &graph, &opts);
            faults::disarm();
            // A flip never fails the write itself; whatever got committed
            // must either read back as exactly the written graph (flip
            // landed in slack the reader ignores) or fail with a typed
            // error — silently reading back a *different* graph is the one
            // forbidden outcome. Both the decode path and the zero-copy
            // arena path are held to it.
            result.unwrap();
            if let Ok(g) = read_back(&path) {
                assert_eq!(
                    g, graph,
                    "{version:?}: bit flip at op {at_op} silently changed the graph"
                );
            }
            if let Ok(g) = read_back_zero_copy(&path) {
                assert_eq!(
                    g.view(),
                    graph.view(),
                    "{version:?}: bit flip at op {at_op} silently changed the arena view"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partition_store_rewrite_sweep_quarantines_torn_stores() {
    let _guard = faults::test_lock();
    let root = temp_dir("pstore");
    let store = root.join("store");
    let graph = chung_lu(120, 480, 2.2, 11);
    let m = graph.num_edges();
    let p = 8;
    let assignment: Vec<u32> = (0..m).map(|e| (e % p) as u32).collect();
    let partition = EdgePartition::new(p, assignment).unwrap();

    write_partition_store(&store, &graph, &partition).unwrap();
    let (counted, total) = faults::count_ops(|| write_partition_store(&store, &graph, &partition));
    counted.unwrap();
    assert!(total > 0, "op counter saw no I/O");

    for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
        for at_op in 0..total {
            faults::arm(FaultSchedule {
                at_op,
                kind,
                seed: at_op,
            });
            let failed = write_partition_store(&store, &graph, &partition);
            faults::disarm();
            assert!(
                failed.is_err(),
                "{kind:?} at op {at_op} did not fail the rewrite"
            );
            // The commit record was retracted before the rewrite began, so
            // every crash point leaves an uncommitted store: open must
            // quarantine it, never parse it as data.
            let err = PartitionStoreReader::open(&store).unwrap_err();
            match err {
                StoreError::TornStore {
                    ref quarantined, ..
                } => {
                    assert!(quarantined.exists(), "quarantine target missing");
                    assert!(!store.exists(), "torn store left in place");
                }
                other => panic!("{kind:?} at op {at_op}: expected TornStore, got {other}"),
            }
            sweep_quarantines(&store);
            // Restore a committed store for the next crash point.
            write_partition_store(&store, &graph, &partition).unwrap();
        }
    }

    // Sanity: the restored store round-trips.
    let (g2, p2) = PartitionStoreReader::open(&store).unwrap().load().unwrap();
    assert_eq!(g2, graph);
    assert_eq!(p2, partition);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn serve_flush_sweep_leaves_store_intact_or_quarantined() {
    use tlp_serve::{PartitionService, Request, Response};

    let _guard = faults::test_lock();
    let root = temp_dir("serveflush");
    let store = root.join("store");
    let graph = chung_lu(60, 240, 2.2, 13);
    let m = graph.num_edges();
    let p = 4;
    let assignment: Vec<u32> = (0..m).map(|e| (e % p) as u32).collect();
    let partition = EdgePartition::new(p, assignment).unwrap();

    // Fresh edges absent from the graph: deterministic probe pairs.
    let fresh: Vec<(u32, u32)> = (0u32..60)
        .flat_map(|u| [(u, (u + 29) % 60), (u, (u + 17) % 60)])
        .filter(|&(u, v)| u != v && !graph.has_edge(u, v))
        .take(6)
        .collect();
    assert!(!fresh.is_empty(), "probe pairs all collided with the graph");

    // One unfaulted flush to count the I/O ops a flush performs.
    write_partition_store(&store, &graph, &partition).unwrap();
    let service = PartitionService::open_store(&store, "hdrf", 0).unwrap();
    for &(u, v) in &fresh {
        let placed = service.handle(&Request::PlaceEdge { u, v });
        assert!(
            matches!(placed, Response::Placed { fresh: true, .. }),
            "probe ({u},{v}) not fresh: {placed:?}"
        );
    }
    let (response, total) = faults::count_ops(|| service.handle(&Request::Flush));
    assert!(matches!(response, Response::Flushed { .. }));
    assert!(total > 0, "op counter saw no flush I/O");
    drop(service);

    for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
        for at_op in 0..total {
            // Restore a committed store and accumulate the placements.
            // The WAL from the previous iteration must go too, or the
            // reopen would replay its stale records as pre-placed edges.
            write_partition_store(&store, &graph, &partition).unwrap();
            let _ = std::fs::remove_file(store.join(WAL_NAME));
            let service = PartitionService::open_store(&store, "hdrf", 0).unwrap();
            for &(u, v) in &fresh {
                service.handle(&Request::PlaceEdge { u, v });
            }
            faults::arm(FaultSchedule {
                at_op,
                kind,
                seed: at_op,
            });
            let outcome = service.handle(&Request::Flush);
            faults::disarm();
            match outcome {
                // The fault landed while the merged store was being
                // written: the flush fails, and the pending placements
                // must survive for the next attempt...
                Response::Error(_) => {
                    assert_eq!(
                        service.stats().pending_placements,
                        fresh.len() as u64,
                        "{kind:?} at op {at_op} dropped pending placements"
                    );
                    // ...and the store must be either intact (readable as
                    // the pre-flush data) or quarantined as torn — never
                    // silently corrupt.
                    match PartitionStoreReader::open(&store) {
                        Ok(reader) => {
                            let (g2, p2) = reader.load().unwrap_or_else(|e| {
                                panic!("{kind:?} at op {at_op}: intact store unreadable: {e}")
                            });
                            assert_eq!(g2, graph, "{kind:?} at op {at_op} changed the graph");
                            assert_eq!(
                                p2, partition,
                                "{kind:?} at op {at_op} changed the partition"
                            );
                        }
                        Err(StoreError::TornStore {
                            ref quarantined, ..
                        }) => {
                            assert!(quarantined.exists(), "quarantine target missing");
                            assert!(!store.exists(), "torn store left in place");
                        }
                        Err(other) => panic!(
                            "{kind:?} at op {at_op}: expected intact or TornStore, got {other}"
                        ),
                    }
                }
                // The fault landed *after* the manifest commit, in the
                // post-commit WAL truncation: the flush legitimately acks
                // (the store is durable) and the merged data must read
                // back complete. Stale WAL records are harmless — replay
                // is idempotent against the merged store.
                Response::Flushed { .. } => {
                    assert_eq!(
                        service.stats().pending_placements,
                        0,
                        "{kind:?} at op {at_op}: acked flush left pending placements"
                    );
                    let (g2, p2) = PartitionStoreReader::open(&store)
                        .and_then(|reader| reader.load())
                        .unwrap_or_else(|e| {
                            panic!("{kind:?} at op {at_op}: acked flush unreadable: {e}")
                        });
                    assert_eq!(
                        g2.num_edges(),
                        graph.num_edges() + fresh.len(),
                        "{kind:?} at op {at_op}: acked flush missing placements"
                    );
                    assert_eq!(g2.num_edges(), p2.num_edges());
                    for &(u, v) in &fresh {
                        assert!(
                            g2.has_edge(u, v),
                            "{kind:?} at op {at_op}: flushed edge ({u},{v}) missing"
                        );
                    }
                }
                other => panic!("{kind:?} at op {at_op}: unexpected flush reply: {other:?}"),
            }
            sweep_quarantines(&store);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn serve_wal_append_sweep_recovers_only_acked_placements() {
    use tlp_serve::{PartitionService, Request, Response};

    let _guard = faults::test_lock();
    let root = temp_dir("servewal");
    let store = root.join("store");
    let graph = chung_lu(60, 240, 2.2, 17);
    let m = graph.num_edges();
    let p = 4;
    let assignment: Vec<u32> = (0..m).map(|e| (e % p) as u32).collect();
    let partition = EdgePartition::new(p, assignment).unwrap();

    let fresh: Vec<(u32, u32)> = (0u32..60)
        .flat_map(|u| [(u, (u + 23) % 60), (u, (u + 11) % 60)])
        .filter(|&(u, v)| u != v && !graph.has_edge(u, v))
        .take(6)
        .collect();
    assert!(!fresh.is_empty(), "probe pairs all collided with the graph");
    // WAL records carry normalized endpoints.
    let issued: Vec<(u32, u32)> = fresh.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();

    // One unfaulted run to count the I/O ops the placement stream costs
    // (each append writes and fsyncs through the fault injector).
    write_partition_store(&store, &graph, &partition).unwrap();
    let service = PartitionService::open_store(&store, "hdrf", 0).unwrap();
    let ((), total) = faults::count_ops(|| {
        for &(u, v) in &fresh {
            let placed = service.handle(&Request::PlaceEdge { u, v });
            assert!(
                matches!(placed, Response::Placed { fresh: true, .. }),
                "probe ({u},{v}) not fresh: {placed:?}"
            );
        }
    });
    assert!(total > 0, "op counter saw no wal I/O");
    drop(service);

    for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
        for at_op in 0..total {
            write_partition_store(&store, &graph, &partition).unwrap();
            let _ = std::fs::remove_file(store.join(WAL_NAME));
            let service = PartitionService::open_store(&store, "hdrf", 0).unwrap();
            faults::arm(FaultSchedule {
                at_op,
                kind,
                seed: at_op,
            });
            let mut acked = Vec::new();
            for &(u, v) in &fresh {
                match service.handle(&Request::PlaceEdge { u, v }) {
                    Response::Placed { fresh: true, .. } => acked.push((u.min(v), u.max(v))),
                    // Append failed (ack withheld) or the wal is poisoned
                    // from an earlier failure: no durability claim made.
                    Response::Error(_) => {}
                    other => panic!("{kind:?} at op {at_op}: unexpected reply: {other:?}"),
                }
            }
            faults::disarm();
            assert!(
                acked.len() < fresh.len(),
                "{kind:?} at op {at_op} acked every placement despite the fault"
            );
            drop(service);

            // The log must read back clean — a torn tail is fine (it was
            // never acked), silent corruption is not — and it must cover
            // every acked placement while containing only issued edges.
            let replay = read_wal(&store.join(WAL_NAME)).unwrap_or_else(|e| {
                panic!("{kind:?} at op {at_op}: wal unreadable after fault: {e}")
            });
            let logged: Vec<(u32, u32)> = replay.records.iter().map(|r| (r.u, r.v)).collect();
            for edge in &acked {
                assert!(
                    logged.contains(edge),
                    "{kind:?} at op {at_op}: acked placement {edge:?} missing from wal"
                );
            }
            for edge in &logged {
                assert!(
                    issued.contains(edge),
                    "{kind:?} at op {at_op}: wal invented placement {edge:?}"
                );
            }

            // Reopening replays exactly the logged prefix.
            let recovered = PartitionService::open_store(&store, "hdrf", 0).unwrap();
            assert_eq!(
                recovered.stats().pending_placements,
                logged.len() as u64,
                "{kind:?} at op {at_op}: replay count diverged from the log"
            );
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn report_write_sweep_preserves_previous_csv() {
    let _guard = faults::test_lock();
    let dir = temp_dir("report");
    let path = dir.join("results.csv");
    let header = ["dataset", "algorithm", "rf"];
    let old_rows = vec![vec!["G1".to_string(), "TLP".to_string(), "1.5".to_string()]];
    let new_rows = vec![
        vec!["G1".to_string(), "TLP".to_string(), "1.4".to_string()],
        vec!["G2".to_string(), "HDRF".to_string(), "2.9".to_string()],
    ];

    tlp_harness::report::write_csv(&path, &header, &old_rows).unwrap();
    let previous = std::fs::read_to_string(&path).unwrap();
    let (counted, total) =
        faults::count_ops(|| tlp_harness::report::write_csv(&path, &header, &new_rows));
    counted.unwrap();
    assert!(total > 0, "op counter saw no I/O");
    tlp_harness::report::write_csv(&path, &header, &old_rows).unwrap();

    for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
        for at_op in 0..total {
            faults::arm(FaultSchedule {
                at_op,
                kind,
                seed: at_op,
            });
            let failed = tlp_harness::report::write_csv(&path, &header, &new_rows);
            faults::disarm();
            assert!(
                failed.is_err(),
                "{kind:?} at op {at_op} did not fail the report write"
            );
            let survivor = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{kind:?} at op {at_op}: previous CSV unreadable: {e}"));
            assert_eq!(
                survivor, previous,
                "{kind:?} at op {at_op} tore the previous CSV"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_rewrite_sweep_preserves_previous_snapshot() {
    let _guard = faults::test_lock();
    let dir = temp_dir("ckpt");
    let m = 9;
    let old = EngineCheckpoint {
        seed: 5,
        stage_switch: StageSwitch::Modularity,
        reseed_policy: ReseedPolicy::Reseed,
        num_partitions: 4,
        next_round: 2,
        rng_state: [1, 2, 3, 4],
        assignment: vec![0, 1, 0, 1, 0, 0, 0, 1, 0],
        allocated: vec![true, true, false, true, false, false, true, true, false],
        num_vertices: 8,
        num_edges: m,
        graph_fingerprint: 17,
    };
    let mut new = old.clone();
    new.next_round = 3;
    new.rng_state = [9, 9, 9, 9];
    new.assignment[2] = 2;
    new.allocated[2] = true;

    write_checkpoint(&dir, &old).unwrap();
    let (counted, total) = faults::count_ops(|| write_checkpoint(&dir, &new));
    counted.unwrap();
    write_checkpoint(&dir, &old).unwrap();

    for kind in [FaultKind::Crash, FaultKind::ShortWrite, FaultKind::Enospc] {
        for at_op in 0..total {
            faults::arm(FaultSchedule {
                at_op,
                kind,
                seed: at_op,
            });
            let failed = write_checkpoint(&dir, &new);
            faults::disarm();
            assert!(
                failed.is_err(),
                "{kind:?} at op {at_op} did not fail the checkpoint write"
            );
            let survivor = read_checkpoint(&dir).unwrap_or_else(|e| {
                panic!("{kind:?} at op {at_op}: previous checkpoint unreadable: {e}")
            });
            assert_eq!(
                survivor.as_ref(),
                Some(&old),
                "{kind:?} at op {at_op} lost the previous checkpoint"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
