//! The serving layer's headline guarantee: placements accumulated
//! through the server (write-only workload, fixed seed, single client)
//! are bit-identical to a direct seeded `StreamingPlacer` run over the
//! same fresh edges — all the way down to the flushed store's bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_baselines::StreamingKind;
use tlp_core::EdgePartition;
use tlp_graph::{CsrGraph, GraphBuilder};
use tlp_serve::{
    run_load, run_replay, serve, LoadConfig, PartitionService, Request, Response, RetryPolicy,
    ServeClient, ServerConfig,
};
use tlp_store::write_partition_store;

fn graph_and_partition(n: u32, m: usize, p: usize, seed: u64) -> (CsrGraph, EdgePartition) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new().reserve_vertices(n as usize);
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        if v == u {
            v = (v + 1) % n;
        }
        builder.push_edge(u, v);
    }
    let graph = builder.build();
    let mut placer = StreamingKind::Hdrf
        .placer(graph.num_vertices(), p, 0, None)
        .expect("placer");
    let assignment = graph
        .view()
        .edge_iter()
        .map(|e| {
            let (u, v) = e.endpoints();
            placer.place(u, v)
        })
        .collect();
    (graph, EdgePartition::new(p, assignment).expect("partition"))
}

/// Every file in a store directory, name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("store dir lists") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("file reads"));
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-serve-bitid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_placements_byte_match_direct_streaming_run() {
    let (graph, partition) = graph_and_partition(150, 500, 6, 77);
    let served_dir = temp_dir("served");
    let direct_dir = temp_dir("direct");
    write_partition_store(&served_dir, &graph, &partition).expect("served store");
    write_partition_store(&direct_dir, &graph, &partition).expect("direct store");
    assert_eq!(
        dir_bytes(&served_dir),
        dir_bytes(&direct_dir),
        "identical starting stores"
    );

    let config = LoadConfig {
        addr: String::new(),
        threads: 1,
        ops: 800,
        read_ratio: 0.0,
        zipf_skew: 1.1,
        num_vertices: graph.num_vertices() as u32,
        num_partitions: partition.num_partitions() as u32,
        seed: 99,
        read_timeout: Duration::from_secs(10),
        retry: RetryPolicy::default(),
    };

    // Served run: write-only workload over TCP, then flush + drain.
    let service = PartitionService::open_store(&served_dir, "hdrf", 128).expect("service opens");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let mut served_config = config.clone();
    served_config.addr = handle.addr().to_string();
    let report = run_load(&served_config).expect("load runs");
    assert_eq!(report.protocol_errors, 0, "report: {report:?}");
    let mut control =
        ServeClient::connect(&served_config.addr, Duration::from_secs(10)).expect("control");
    let served_flushed = match control.request(&Request::Flush).expect("flush") {
        Response::Flushed { edges } => edges,
        other => panic!("flush failed: {other:?}"),
    };
    assert!(served_flushed > 0, "workload placed no fresh edges");
    handle.shutdown();

    // Direct run: same seed, same generator, same seeded placer, offline.
    let replay = run_replay(&config, &direct_dir, "hdrf").expect("replay runs");
    assert_eq!(replay.flushed, served_flushed, "same fresh edge set");

    assert_eq!(
        dir_bytes(&served_dir),
        dir_bytes(&direct_dir),
        "flushed stores must be byte-identical"
    );

    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&direct_dir);
}
