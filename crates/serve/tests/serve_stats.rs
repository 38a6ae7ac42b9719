//! Pins every `ServeStats` field for one scripted request sequence, both
//! over TCP (where the server counts requests and protocol errors) and
//! in process through `PartitionService::handle` (where it does not).

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use tlp_core::EdgePartition;
use tlp_graph::GraphBuilder;
use tlp_serve::{
    decode_response, encode_request, read_frame, serve, write_frame, ErrorCode, PartitionService,
    Request, Response, ServeStats, ServerConfig,
};

/// Path 0-1-2-3 plus chord 0-2 on five vertices (vertex 4 isolated).
/// Canonical edge order (0,1) (0,2) (1,2) (2,3) → partitions 0 1 0 1.
fn service() -> PartitionService {
    let graph = GraphBuilder::new()
        .reserve_vertices(5)
        .add_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        .build();
    let partition = EdgePartition::new(2, vec![0, 1, 0, 1]).expect("partition");
    PartitionService::new(graph, partition, "greedy", 64).expect("service")
}

/// Every decodable request of the script, in order, with the reply the
/// in-memory service gives it. The TCP run also sends one undecodable
/// body after `Health`.
fn script() -> Vec<(Request, Option<Response>)> {
    let vertex_2 = Response::VertexInfo {
        master: Some(1),
        replicas: vec![0, 1],
    };
    vec![
        (Request::Ping, Some(Response::Pong)),
        // A cache miss, then two hits.
        (Request::VertexLookup { vertex: 2 }, Some(vertex_2.clone())),
        (Request::VertexLookup { vertex: 2 }, Some(vertex_2.clone())),
        (Request::VertexLookup { vertex: 2 }, Some(vertex_2)),
        (
            Request::VertexLookup { vertex: 99 },
            Some(Response::Error(ErrorCode::NotFound)),
        ),
        (
            Request::EdgeLookup { u: 2, v: 0 },
            Some(Response::EdgeInfo { partition: 1 }),
        ),
        (
            Request::Neighbors {
                vertex: 2,
                partition: 1,
            },
            Some(Response::NeighborList {
                neighbors: vec![0, 3],
            }),
        ),
        // Fresh, then duplicate, then base-graph placement.
        (Request::PlaceEdge { u: 3, v: 1 }, None),
        (Request::PlaceEdge { u: 1, v: 3 }, None),
        (
            Request::PlaceEdge { u: 0, v: 1 },
            Some(Response::Placed {
                partition: 0,
                fresh: false,
            }),
        ),
        // The in-memory service has no store to flush into.
        (Request::Flush, Some(Response::Error(ErrorCode::BadRequest))),
        (Request::Health, None),
    ]
}

/// The service-level counters the script leaves behind; the TCP layer's
/// fields (`requests`, `overloads`, `drained`, `protocol_errors`) are 0.
const SERVICE_STATS: ServeStats = ServeStats {
    requests: 0,
    lookups: 6,
    placements: 1,
    overloads: 0,
    drained: 0,
    protocol_errors: 0,
    cache_hits: 2,
    cache_misses: 1,
    cache_evictions: 0,
    pending_placements: 1,
    num_vertices: 5,
    num_partitions: 2,
    num_edges: 4,
};

fn check_reply(request: &Request, expected: &Option<Response>, got: &Response) {
    match (request, expected) {
        (_, Some(expected)) => assert_eq!(got, expected, "{request:?}"),
        (Request::PlaceEdge { u: 3, .. }, None) => assert!(
            matches!(got, Response::Placed { fresh: true, .. }),
            "{got:?}"
        ),
        (Request::PlaceEdge { .. }, None) => assert!(
            matches!(got, Response::Placed { fresh: false, .. }),
            "{got:?}"
        ),
        (Request::Health, None) => assert!(
            matches!(got, Response::HealthReport(report) if !report.draining),
            "{got:?}"
        ),
        _ => unreachable!("every other request has an exact expected reply"),
    }
}

fn send(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    body: &[u8],
) -> Response {
    write_frame(writer, body).expect("frame writes");
    let reply = read_frame(reader)
        .expect("frame reads")
        .expect("server replies");
    decode_response(&reply).expect("reply decodes")
}

#[test]
fn tcp_session_pins_every_stats_field() {
    let handle = serve(service(), "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(handle.addr()).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut writer = BufWriter::new(stream);

    for (request, expected) in script() {
        let got = send(&mut reader, &mut writer, &encode_request(&request));
        check_reply(&request, &expected, &got);
    }
    // A well-framed body whose opcode no request uses.
    assert_eq!(
        send(&mut reader, &mut writer, &[0xEE]),
        Response::Error(ErrorCode::BadRequest)
    );
    let Response::StatsReport(reported) =
        send(&mut reader, &mut writer, &encode_request(&Request::Stats))
    else {
        panic!("stats request did not return a report");
    };

    // Every frame read is a request: the 12 scripted ones, the
    // undecodable one and the Stats request itself.
    let expected = ServeStats {
        requests: 14,
        protocol_errors: 1,
        ..SERVICE_STATS
    };
    assert_eq!(reported, expected);
    assert_eq!(handle.stats(), expected);
    handle.shutdown();
}

#[test]
fn in_process_session_counts_service_fields_only() {
    let service = service();
    for (request, expected) in script() {
        let got = service.handle(&request);
        check_reply(&request, &expected, &got);
    }
    assert_eq!(
        service.handle(&Request::Stats),
        Response::StatsReport(SERVICE_STATS)
    );
    assert_eq!(service.stats(), SERVICE_STATS);
}
