//! Exact I/O-operation counts of the `.tlpg` read paths, counted by the
//! fault injector (every `FaultFile` open and read is one operation). The
//! counts are deterministic, so a read path that quietly grows an extra
//! open or a second header read fails here.
//!
//! This binary holds a single test: the injector's counter is
//! process-global, so any concurrent store I/O would inflate it.

use tlp_graph::generators::chung_lu;
use tlp_graph::EdgeSource;
use tlp_store::{faults, write_graph, BinaryFileSource, LoadedGraph, WriteOptions};

#[test]
fn read_paths_do_a_pinned_number_of_io_ops() {
    let _guard = faults::test_lock();
    let graph = chung_lu(2_000, 8_000, 2.2, 11);
    let dir = std::env::temp_dir().join(format!("tlp-store-read-ops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.tlpg");
    write_graph(&path, &graph, &WriteOptions::default()).unwrap();

    // Open + header read, then a frame read and a payload read for each of
    // OFFS, ADJV, ADJE and EDGE (every payload fits one 256 KiB chunk).
    let (loaded, ops) = faults::count_ops(|| LoadedGraph::open(&path));
    assert!(matches!(loaded.unwrap(), LoadedGraph::Arena(_)));
    assert_eq!(ops, 10, "LoadedGraph::open");

    // StoreReader::open (open + header + four frame reads), then
    // read_degrees (open + one OFFS read).
    let (source, ops) = faults::count_ops(|| BinaryFileSource::open(&path, 1024));
    let mut source = source.unwrap();
    assert_eq!(ops, 8, "BinaryFileSource::open");

    // Open + one read per 1024-edge chunk of EDGE.
    assert_eq!(graph.num_edges().div_ceil(1024), 8);
    let (pass, ops) = faults::count_ops(|| source.stream_pass(&mut |_| {}));
    assert_eq!(pass.unwrap().edges, graph.num_edges());
    assert_eq!(ops, 9, "stream_pass at budget 1024");
    std::fs::remove_dir_all(&dir).unwrap();
}
