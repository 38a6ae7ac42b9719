//! Chaos-harness tests: the server behind a seeded fault proxy never
//! panics, never leaks a worker, answers every clean connection, and
//! loses zero acknowledged placements across a crash-shaped restart.
//!
//! The proxy's fault plan is a pure function of `(seed, connection
//! index)`, so these tests know in advance which connections must
//! succeed; a failure replays bit-identically from its seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_baselines::StreamingKind;
use tlp_core::EdgePartition;
use tlp_graph::{CsrGraph, GraphBuilder};
use tlp_serve::{
    serve, ChaosProxy, ChaosSchedule, ConnFault, PartitionService, Request, Response, RetryPolicy,
    RetryingClient, ServeClient, ServerConfig,
};
use tlp_store::{read_wal, write_partition_store, WAL_NAME};

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-serve-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// A full fault storm: sequential connections draw the seeded schedule
/// (resets, truncations, corruptions, stalls on odd indices; clean on
/// even). The server must answer every clean connection correctly, never
/// panic, and still drain gracefully afterwards — a leaked or wedged
/// worker would hang the final `shutdown()` join.
#[test]
fn storm_answers_every_clean_connection_and_drains() {
    let (graph, partition) = graph_and_partition(120, 400, 4, 31);
    let service = PartitionService::new(graph, partition, "hdrf", 128).expect("service");
    let handle = serve(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let schedule = ChaosSchedule {
        seed: 1234,
        clean_every: 2,
        stall: Duration::from_millis(400),
    };
    let proxy =
        ChaosProxy::start("127.0.0.1:0", handle.addr(), schedule.clone()).expect("proxy starts");
    let proxy_addr = proxy.addr().to_string();

    const CONNECTIONS: u64 = 48;
    let read_timeout = Duration::from_millis(150);
    let mut clean_served = 0u64;
    for index in 0..CONNECTIONS {
        let fault = schedule.fault_for(index);
        let outcome = ServeClient::connect(&proxy_addr, read_timeout)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut client| {
                client
                    .request(&Request::VertexLookup {
                        vertex: (index % 120) as u32,
                    })
                    .map_err(|e| format!("request: {e}"))
            });
        match fault {
            ConnFault::Clean => match outcome {
                Ok(Response::VertexInfo { .. }) => clean_served += 1,
                other => panic!("clean connection {index} not served: {other:?}"),
            },
            // Faulted connections may see any typed failure — the
            // assertion is simply that nothing panicked and the server
            // stays up (checked below, and by every later clean conn).
            _ => assert!(
                !matches!(outcome, Ok(Response::VertexInfo { .. })) || fault == ConnFault::Corrupt,
                "fault {fault:?} on connection {index} was a faithful relay"
            ),
        }
    }
    assert_eq!(
        clean_served,
        CONNECTIONS / 2,
        "every clean connection answered"
    );

    let counts = proxy.counts();
    assert_eq!(counts.clean, CONNECTIONS / 2);
    assert!(
        counts.resets > 0 && counts.truncations > 0 && counts.corruptions > 0 && counts.stalls > 0,
        "storm exercised every fault kind: {counts:?}"
    );
    proxy.shutdown();

    // The server is intact: a direct connection answers, stats are sane,
    // and Health reports a live (non-durable, in-memory) service.
    let mut direct =
        ServeClient::connect(&handle.addr().to_string(), Duration::from_secs(2)).expect("connect");
    assert_eq!(
        direct.request(&Request::Ping).expect("ping"),
        Response::Pong
    );
    match direct.request(&Request::Health).expect("health") {
        Response::HealthReport(report) => {
            assert!(!report.durable, "in-memory service makes no wal promise");
            assert!(!report.draining);
        }
        other => panic!("unexpected health reply: {other:?}"),
    }
    // Graceful drain joins every worker — this hangs if the storm leaked
    // or wedged one.
    handle.shutdown();
}

/// Retrying clients ride out the storm: with retries on, a single-client
/// placement stream through the proxy completes every op, and the acked
/// placements all reach the WAL (append-before-ack).
#[test]
fn retrying_client_completes_all_ops_through_chaos() {
    let (graph, partition) = graph_and_partition(100, 300, 4, 47);
    let dir = temp_dir("retry");
    write_partition_store(&dir, &graph, &partition).expect("store");
    let service = PartitionService::open_store(&dir, "hdrf", 128).expect("service");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");

    let schedule = ChaosSchedule {
        seed: 7,
        clean_every: 2,
        stall: Duration::from_millis(300),
    };
    let proxy = ChaosProxy::start("127.0.0.1:0", handle.addr(), schedule).expect("proxy starts");

    // One client per op: each op starts a fresh connection and therefore
    // draws the next faults from the schedule (a single long-lived clean
    // connection would dodge the storm entirely). Dedup makes repeated
    // edges harmless, so just record what the server acked as fresh.
    let proxy_addr = proxy.addr().to_string();
    let mut rng = StdRng::seed_from_u64(99);
    let mut acked = Vec::new();
    let mut total_retries = 0u64;
    for op in 0..40u64 {
        let mut client = RetryingClient::new(
            &proxy_addr,
            Duration::from_millis(150),
            RetryPolicy {
                max_attempts: 8,
                deadline: Duration::from_secs(20),
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                seed: 5 + op,
            },
        );
        let u = rng.gen_range(0..100u32);
        let mut v = rng.gen_range(0..100u32);
        if v == u {
            v = (v + 1) % 100;
        }
        match client.request(&Request::PlaceEdge { u, v }) {
            Ok(Response::Placed { fresh, .. }) => {
                if fresh {
                    acked.push((u.min(v), u.max(v)));
                }
            }
            other => panic!("placement through chaos failed: {other:?}"),
        }
        total_retries += client.retries();
    }
    assert!(total_retries > 0, "the storm forced at least one retry");
    proxy.shutdown();
    drop(handle); // drain without flushing — placements live only in the WAL

    // Append-before-ack: every acked-fresh placement is in the log.
    let replay = read_wal(&dir.join(WAL_NAME)).expect("wal reads");
    let logged: Vec<(u32, u32)> = replay.records.iter().map(|r| (r.u, r.v)).collect();
    for edge in &acked {
        assert!(
            logged.contains(edge),
            "acked placement {edge:?} missing from wal"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-shaped durability end-to-end: place through a server, drain
/// *without* flushing (all placements live only in the WAL), reopen the
/// store — replay recovers everything — flush, and compare byte-for-byte
/// against an offline service that applied the same stream and flushed
/// without any interruption.
#[test]
fn wal_recovery_flush_is_byte_identical_to_uninterrupted_run() {
    let (graph, partition) = graph_and_partition(100, 300, 4, 13);
    let served_dir = temp_dir("served");
    let offline_dir = temp_dir("offline");
    write_partition_store(&served_dir, &graph, &partition).expect("served store");
    write_partition_store(&offline_dir, &graph, &partition).expect("offline store");

    // Deterministic placement stream, fresh-or-not decided by the server.
    let stream: Vec<(u32, u32)> = {
        let mut rng = StdRng::seed_from_u64(4242);
        (0..60)
            .map(|_| {
                let u = rng.gen_range(0..100u32);
                let mut v = rng.gen_range(0..100u32);
                if v == u {
                    v = (v + 1) % 100;
                }
                (u, v)
            })
            .collect()
    };

    // Served run through chaos, single retrying client, no flush.
    let service = PartitionService::open_store(&served_dir, "hdrf", 128).expect("service");
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let proxy = ChaosProxy::start(
        "127.0.0.1:0",
        handle.addr(),
        ChaosSchedule {
            seed: 21,
            clean_every: 2,
            stall: Duration::from_millis(300),
        },
    )
    .expect("proxy starts");
    // One client per op (see retrying_client_completes_all_ops_through_
    // chaos): every op faces fresh faults, and the synchronous per-op
    // loop keeps the server-side apply order identical to `stream`.
    let proxy_addr = proxy.addr().to_string();
    for (op, &(u, v)) in stream.iter().enumerate() {
        let mut client = RetryingClient::new(
            &proxy_addr,
            Duration::from_millis(150),
            RetryPolicy {
                max_attempts: 8,
                deadline: Duration::from_secs(20),
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                seed: 3 + op as u64,
            },
        );
        match client.request(&Request::PlaceEdge { u, v }) {
            Ok(Response::Placed { .. }) => {}
            other => panic!("placement failed: {other:?}"),
        }
    }
    proxy.shutdown();
    drop(handle); // crash-shaped: acked placements exist only in the WAL

    // Recovery: reopen replays the WAL, then flush persists the merge.
    let recovered = PartitionService::open_store(&served_dir, "hdrf", 128).expect("reopen");
    let wal_depth = recovered.health().wal_depth;
    assert!(wal_depth > 0, "the crash left unflushed acked placements");
    match recovered.handle(&Request::Flush) {
        Response::Flushed { .. } => {}
        other => panic!("recovery flush failed: {other:?}"),
    }
    assert_eq!(recovered.health().wal_depth, 0, "flush truncated the wal");

    // Uninterrupted offline run over the same stream.
    let offline = PartitionService::open_store(&offline_dir, "hdrf", 128).expect("offline");
    for &(u, v) in &stream {
        match offline.handle(&Request::PlaceEdge { u, v }) {
            Response::Placed { .. } => {}
            other => panic!("offline placement failed: {other:?}"),
        }
    }
    match offline.handle(&Request::Flush) {
        Response::Flushed { .. } => {}
        other => panic!("offline flush failed: {other:?}"),
    }

    assert_eq!(
        dir_bytes(&served_dir),
        dir_bytes(&offline_dir),
        "crash + wal replay + flush == uninterrupted run, byte for byte"
    );
    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}
