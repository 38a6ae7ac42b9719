//! End-to-end tests over real TCP: served lookups match
//! `PartitionStoreReader` ground truth, overload refusals are typed, and
//! a drain finishes cleanly.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_baselines::StreamingKind;
use tlp_core::EdgePartition;
use tlp_graph::{CsrGraph, GraphBuilder};
use tlp_serve::{
    run_burst, run_load, serve, ErrorCode, LoadConfig, PartitionService, Request, Response,
    RetryPolicy, ServeClient, ServerConfig,
};
use tlp_store::{write_partition_store, PartitionStoreReader};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Deterministic random graph + an HDRF partition streamed over it.
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
    let partition = EdgePartition::new(p, assignment).expect("partition");
    (graph, partition)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn write_store(dir: &Path, graph: &CsrGraph, partition: &EdgePartition) {
    write_partition_store(dir, graph, partition).expect("store writes");
}

#[test]
fn served_lookups_match_store_ground_truth() {
    let dir = temp_dir("truth");
    let (graph, partition) = graph_and_partition(120, 600, 5, 11);
    write_store(&dir, &graph, &partition);

    let service = PartitionService::open_store(&dir, "hdrf", 64).expect("service opens");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr, READ_TIMEOUT).expect("client connects");

    assert_eq!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    );

    // Ground truth straight from the store reader, computed independently
    // of the service's own code path.
    let reader = PartitionStoreReader::open(&dir).expect("reader opens");
    let (g, part) = reader.load().expect("store loads");

    for v in 0..g.num_vertices() as u32 {
        let mut counts = vec![0u64; part.num_partitions()];
        for (_, eid) in g.incident(v) {
            counts[part.partition_of(eid) as usize] += 1;
        }
        let expect_replicas: Vec<u32> = (0..counts.len() as u32)
            .filter(|&pid| counts[pid as usize] > 0)
            .collect();
        let expect_master = expect_replicas
            .iter()
            .copied()
            .max_by_key(|&pid| (counts[pid as usize], std::cmp::Reverse(pid)));
        // Ask twice so the second answer comes from the cache.
        for _ in 0..2 {
            match client
                .request(&Request::VertexLookup { vertex: v })
                .expect("lookup")
            {
                Response::VertexInfo { master, replicas } => {
                    assert_eq!(master, expect_master, "vertex {v} master");
                    assert_eq!(replicas, expect_replicas, "vertex {v} replicas");
                }
                other => panic!("vertex {v}: unexpected {other:?}"),
            }
        }
    }

    for (eid, edge) in g.view().edge_iter().enumerate() {
        let (u, v) = edge.endpoints();
        assert_eq!(
            client
                .request(&Request::EdgeLookup { u: v, v: u })
                .expect("edge lookup"),
            Response::EdgeInfo {
                partition: part.partition_of(eid as u32)
            },
            "edge ({u},{v})"
        );
    }

    // Neighbor queries agree with a direct CSR scan.
    for v in [0u32, 7, 63, 119] {
        for pid in 0..part.num_partitions() as u32 {
            let mut expect: Vec<u32> = g
                .incident(v)
                .filter(|&(_, eid)| part.partition_of(eid) == pid)
                .map(|(n, _)| n)
                .collect();
            expect.sort_unstable();
            assert_eq!(
                client
                    .request(&Request::Neighbors {
                        vertex: v,
                        partition: pid
                    })
                    .expect("neighbors"),
                Response::NeighborList { neighbors: expect },
                "vertex {v} partition {pid}"
            );
        }
    }

    // The cache saw traffic: every vertex was asked twice.
    match client.request(&Request::Stats).expect("stats") {
        Response::StatsReport(stats) => {
            assert!(stats.cache_hits > 0, "expected cache hits, got {stats:?}");
            assert_eq!(stats.num_vertices, g.num_vertices() as u64);
            assert_eq!(stats.num_partitions, part.num_partitions() as u64);
        }
        other => panic!("unexpected {other:?}"),
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_load_completes_without_protocol_errors() {
    let dir = temp_dir("load");
    let (graph, partition) = graph_and_partition(200, 800, 4, 23);
    write_store(&dir, &graph, &partition);
    let service = PartitionService::open_store(&dir, "hdrf", 256).expect("service opens");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");

    let report = run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        threads: 4,
        ops: 2000,
        read_ratio: 0.9,
        zipf_skew: 1.1,
        num_vertices: 200,
        num_partitions: 4,
        seed: 7,
        read_timeout: READ_TIMEOUT,
        retry: RetryPolicy::default(),
    })
    .expect("load runs");
    assert_eq!(report.protocol_errors, 0, "report: {report:?}");
    assert_eq!(report.refused, 0, "report: {report:?}");
    assert_eq!(report.ok + report.not_found, 2000, "report: {report:?}");
    assert!(report.latency.count > 0);
    assert!(report.latency.p50 <= report.latency.p99);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturating_burst_gets_typed_overload_refusals() {
    let dir = temp_dir("burst");
    let (graph, partition) = graph_and_partition(50, 200, 3, 31);
    write_store(&dir, &graph, &partition);
    let service = PartitionService::open_store(&dir, "hdrf", 0).expect("service opens");
    // One worker, no queue: the worker parks on the first connection's
    // socket (we hold it open without sending), so every later
    // connection must be refused with a typed Overloaded error.
    let handle = serve(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 0,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    let pinned = ServeClient::connect(&addr, READ_TIMEOUT).expect("pin connects");
    // Give the worker a moment to pop the pinned connection off the queue.
    std::thread::sleep(Duration::from_millis(100));

    let burst = run_burst(&addr, 12, Duration::from_secs(5));
    assert_eq!(burst.attempted, 12);
    assert!(
        burst.overloaded >= 10,
        "expected typed overload refusals, got {burst:?}"
    );
    drop(pinned);

    let stats = handle.stats();
    assert!(stats.overloads >= 10, "stats: {stats:?}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_drains_gracefully() {
    let dir = temp_dir("drain");
    let (graph, partition) = graph_and_partition(60, 240, 3, 41);
    write_store(&dir, &graph, &partition);
    let service = PartitionService::open_store(&dir, "hdrf", 32).expect("service opens");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();

    let mut client = ServeClient::connect(&addr, READ_TIMEOUT).expect("client connects");
    assert_eq!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    );
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    // All threads exit; wait() returns instead of hanging.
    handle.wait();

    // A post-drain connection is refused: either a typed Draining reply
    // or an immediate close/reset once the listener is gone.
    if let Ok(mut late) = ServeClient::connect(&addr, Duration::from_secs(2)) {
        match late.request(&Request::Ping) {
            Ok(Response::Error(ErrorCode::Draining)) | Err(_) => {}
            other => panic!("post-drain request should fail, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
