//! The `tlp-serve` wire protocol: length-prefixed, versioned binary frames.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+-----------+------------------+
//! | len: u32 LE    | ver: u8   | body: len-1 bytes|
//! +----------------+-----------+------------------+
//! ```
//!
//! `len` counts the version byte plus the body, so an empty body is
//! illegal and a reader always knows exactly how much to consume. Bodies
//! start with a one-byte opcode (requests `0x01..`, responses `0x81..`)
//! followed by fixed-width little-endian fields; variable-length lists are
//! `u32` count prefixed. Frames larger than [`MAX_FRAME_LEN`] are refused
//! before any allocation, so a hostile length prefix can never balloon
//! memory.
//!
//! Decoding mirrors the store's torn-tail contract: truncated or garbage
//! bytes yield a typed [`ProtocolError`], never a panic, and trailing
//! bytes after a well-formed message are an error (a frame is exactly one
//! message).

use std::io::{self, Read, Write};

/// Wire protocol version stamped into every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame's declared length (version byte + body). Large
/// enough for any response the server emits (a neighbor list of a
/// maximum-degree vertex), small enough that a corrupt length prefix
/// cannot trigger an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 22;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Vertex → master/replica-set lookup.
    VertexLookup {
        /// The vertex to look up.
        vertex: u32,
    },
    /// Edge → owning-partition lookup (endpoints in either order).
    EdgeLookup {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Partition-local neighbor query: neighbors of `vertex` reachable
    /// through edges owned by `partition`.
    Neighbors {
        /// The vertex whose neighbors are requested.
        vertex: u32,
        /// The partition to restrict to.
        partition: u32,
    },
    /// Online placement of a new edge against the served partition state.
    PlaceEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Server counter snapshot.
    Stats,
    /// Persist accumulated placements into the partition store.
    Flush,
    /// Begin a graceful drain: stop accepting, finish in-flight work.
    Shutdown,
    /// Readiness/durability probe: WAL depth, flush recency, drain state.
    Health,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::VertexLookup`].
    VertexInfo {
        /// The vertex's master partition; `None` for an isolated vertex.
        master: Option<u32>,
        /// Every partition holding a replica, sorted ascending.
        replicas: Vec<u32>,
    },
    /// Reply to [`Request::EdgeLookup`].
    EdgeInfo {
        /// The partition owning the edge.
        partition: u32,
    },
    /// Reply to [`Request::Neighbors`].
    NeighborList {
        /// Matching neighbors, sorted ascending.
        neighbors: Vec<u32>,
    },
    /// Reply to [`Request::PlaceEdge`].
    Placed {
        /// The partition the edge landed in (or already lived in).
        partition: u32,
        /// True when this request performed the placement; false when the
        /// edge already existed (idempotent replays, base-graph edges).
        fresh: bool,
    },
    /// Reply to [`Request::Stats`].
    StatsReport(ServeStats),
    /// Reply to [`Request::Flush`].
    Flushed {
        /// Number of accumulated placements persisted.
        edges: u64,
    },
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// Reply to [`Request::Health`].
    HealthReport(HealthReport),
    /// Typed failure reply; the connection stays usable unless the error
    /// says otherwise ([`ErrorCode::Overloaded`] / [`ErrorCode::Draining`]
    /// are followed by a close).
    Error(ErrorCode),
}

/// Typed server-side failure codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the connection: the accept queue is
    /// full. Sent once, then the connection is closed — the server never
    /// buffers beyond its configured bounds.
    Overloaded,
    /// The server is draining for shutdown and takes no new work.
    Draining,
    /// The requested vertex/edge/partition does not exist.
    NotFound,
    /// The request was structurally valid but semantically rejected
    /// (self-loop placement, out-of-range vertex, undecodable frame).
    BadRequest,
    /// An internal failure (e.g. a flush I/O error); details are logged
    /// server-side.
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::Draining => 2,
            ErrorCode::NotFound => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Draining,
            3 => ErrorCode::NotFound,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Internal,
            other => return Err(ProtocolError::UnknownOpcode { found: other }),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::NotFound => "not found",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(text)
    }
}

/// Server counter snapshot carried by [`Response::StatsReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames the TCP server read, including ones that failed to decode
    /// (those also count in `protocol_errors`). Zero in process.
    pub requests: u64,
    /// Lookup-family requests (vertex, edge, neighbors).
    pub lookups: u64,
    /// Fresh placements performed.
    pub placements: u64,
    /// Connections refused with [`ErrorCode::Overloaded`].
    pub overloads: u64,
    /// Requests refused with [`ErrorCode::Draining`].
    pub drained: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
    /// Vertex-cache hits.
    pub cache_hits: u64,
    /// Vertex-cache misses.
    pub cache_misses: u64,
    /// Vertex-cache evictions.
    pub cache_evictions: u64,
    /// Placements accumulated but not yet flushed.
    pub pending_placements: u64,
    /// Vertices in the served graph (placement id space).
    pub num_vertices: u64,
    /// Partitions served.
    pub num_partitions: u64,
    /// Edges in the served base graph.
    pub num_edges: u64,
}

/// Readiness/durability snapshot carried by [`Response::HealthReport`].
///
/// `last_flush_age_secs` is [`u64::MAX`] when the service has never
/// flushed since it opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Records in the placement WAL awaiting the next flush (the replay
    /// backlog a restart would work through). Zero for in-memory services.
    pub wal_depth: u64,
    /// Placements accumulated in memory since the last successful flush.
    pub pending_placements: u64,
    /// Successful flushes since the service opened.
    pub flushes: u64,
    /// Seconds since the last successful flush; `u64::MAX` if none yet.
    pub last_flush_age_secs: u64,
    /// True when the service is store-backed and its WAL is healthy:
    /// every acknowledged placement is on stable storage.
    pub durable: bool,
    /// True when the server in front of this service is draining
    /// (overlaid by the TCP layer; always false straight from the
    /// service).
    pub draining: bool,
}

/// Why a frame or message failed to decode (or a frame failed to move).
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket/file I/O failed.
    Io(io::Error),
    /// The bytes ended before the message was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The frame declared a protocol version this build cannot speak.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The message opcode is not part of the protocol.
    UnknownOpcode {
        /// The opcode byte found.
        found: u8,
    },
    /// A well-formed message was followed by extra bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The frame header declared a length beyond [`MAX_FRAME_LEN`] (or
    /// zero).
    FrameTooLarge {
        /// The declared length.
        len: u32,
    },
    /// A field held a value outside its domain (e.g. a non-boolean flag
    /// byte or an absurd list length).
    BadPayload {
        /// Which field was malformed.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::Truncated { what } => write!(f, "frame truncated while reading {what}"),
            ProtocolError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            ProtocolError::UnknownOpcode { found } => write!(f, "unknown opcode {found:#04x}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "frame length {len} outside (0, {MAX_FRAME_LEN}]")
            }
            ProtocolError::BadPayload { what } => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_VERTEX_LOOKUP: u8 = 0x02;
const OP_EDGE_LOOKUP: u8 = 0x03;
const OP_NEIGHBORS: u8 = 0x04;
const OP_PLACE_EDGE: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_FLUSH: u8 = 0x07;
const OP_SHUTDOWN: u8 = 0x08;
const OP_HEALTH: u8 = 0x09;

// Response opcodes.
const OP_PONG: u8 = 0x81;
const OP_VERTEX_INFO: u8 = 0x82;
const OP_EDGE_INFO: u8 = 0x83;
const OP_NEIGHBOR_LIST: u8 = 0x84;
const OP_PLACED: u8 = 0x85;
const OP_STATS_REPORT: u8 = 0x86;
const OP_FLUSHED: u8 = 0x87;
const OP_SHUTTING_DOWN: u8 = 0x88;
const OP_HEALTH_REPORT: u8 = 0x89;
const OP_ERROR: u8 = 0xFF;

/// Bounded cursor over a message body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(ProtocolError::BadPayload { what })?;
        if end > self.bytes.len() {
            return Err(ProtocolError::Truncated { what });
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, ProtocolError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::BadPayload { what }),
        }
    }

    fn u32_list(&mut self, what: &'static str) -> Result<Vec<u32>, ProtocolError> {
        let count = self.u32(what)? as usize;
        // A list can never be longer than the bytes backing it.
        if count > self.bytes.len().saturating_sub(self.at) / 4 {
            return Err(ProtocolError::Truncated { what });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let extra = self.bytes.len() - self.at;
        if extra != 0 {
            return Err(ProtocolError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u32_list(out: &mut Vec<u8>, values: &[u32]) {
    push_u32(out, values.len() as u32);
    for &value in values {
        push_u32(out, value);
    }
}

/// Encodes a request body (opcode + fields, no frame header).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match request {
        Request::Ping => out.push(OP_PING),
        Request::VertexLookup { vertex } => {
            out.push(OP_VERTEX_LOOKUP);
            push_u32(&mut out, *vertex);
        }
        Request::EdgeLookup { u, v } => {
            out.push(OP_EDGE_LOOKUP);
            push_u32(&mut out, *u);
            push_u32(&mut out, *v);
        }
        Request::Neighbors { vertex, partition } => {
            out.push(OP_NEIGHBORS);
            push_u32(&mut out, *vertex);
            push_u32(&mut out, *partition);
        }
        Request::PlaceEdge { u, v } => {
            out.push(OP_PLACE_EDGE);
            push_u32(&mut out, *u);
            push_u32(&mut out, *v);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Flush => out.push(OP_FLUSH),
        Request::Shutdown => out.push(OP_SHUTDOWN),
        Request::Health => out.push(OP_HEALTH),
    }
    out
}

/// Decodes a request body.
///
/// # Errors
///
/// Typed [`ProtocolError`]s for truncation, unknown opcodes, and trailing
/// bytes — never a panic, whatever the input.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let mut cursor = Cursor::new(body);
    let opcode = cursor.u8("request opcode")?;
    let request = match opcode {
        OP_PING => Request::Ping,
        OP_VERTEX_LOOKUP => Request::VertexLookup {
            vertex: cursor.u32("vertex")?,
        },
        OP_EDGE_LOOKUP => Request::EdgeLookup {
            u: cursor.u32("edge endpoint u")?,
            v: cursor.u32("edge endpoint v")?,
        },
        OP_NEIGHBORS => Request::Neighbors {
            vertex: cursor.u32("vertex")?,
            partition: cursor.u32("partition")?,
        },
        OP_PLACE_EDGE => Request::PlaceEdge {
            u: cursor.u32("edge endpoint u")?,
            v: cursor.u32("edge endpoint v")?,
        },
        OP_STATS => Request::Stats,
        OP_FLUSH => Request::Flush,
        OP_SHUTDOWN => Request::Shutdown,
        OP_HEALTH => Request::Health,
        found => return Err(ProtocolError::UnknownOpcode { found }),
    };
    cursor.finish()?;
    Ok(request)
}

/// Encodes a response body (opcode + fields, no frame header).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match response {
        Response::Pong => out.push(OP_PONG),
        Response::VertexInfo { master, replicas } => {
            out.push(OP_VERTEX_INFO);
            match master {
                Some(m) => {
                    out.push(1);
                    push_u32(&mut out, *m);
                }
                None => {
                    out.push(0);
                    push_u32(&mut out, 0);
                }
            }
            push_u32_list(&mut out, replicas);
        }
        Response::EdgeInfo { partition } => {
            out.push(OP_EDGE_INFO);
            push_u32(&mut out, *partition);
        }
        Response::NeighborList { neighbors } => {
            out.push(OP_NEIGHBOR_LIST);
            push_u32_list(&mut out, neighbors);
        }
        Response::Placed { partition, fresh } => {
            out.push(OP_PLACED);
            push_u32(&mut out, *partition);
            out.push(u8::from(*fresh));
        }
        Response::StatsReport(stats) => {
            out.push(OP_STATS_REPORT);
            for value in stats_fields(stats) {
                push_u64(&mut out, value);
            }
        }
        Response::Flushed { edges } => {
            out.push(OP_FLUSHED);
            push_u64(&mut out, *edges);
        }
        Response::ShuttingDown => out.push(OP_SHUTTING_DOWN),
        Response::HealthReport(health) => {
            out.push(OP_HEALTH_REPORT);
            push_u64(&mut out, health.wal_depth);
            push_u64(&mut out, health.pending_placements);
            push_u64(&mut out, health.flushes);
            push_u64(&mut out, health.last_flush_age_secs);
            out.push(u8::from(health.durable));
            out.push(u8::from(health.draining));
        }
        Response::Error(code) => {
            out.push(OP_ERROR);
            out.push(code.to_byte());
        }
    }
    out
}

fn stats_fields(stats: &ServeStats) -> [u64; 13] {
    [
        stats.requests,
        stats.lookups,
        stats.placements,
        stats.overloads,
        stats.drained,
        stats.protocol_errors,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.pending_placements,
        stats.num_vertices,
        stats.num_partitions,
        stats.num_edges,
    ]
}

/// Decodes a response body.
///
/// # Errors
///
/// Typed [`ProtocolError`]s — never a panic, whatever the input.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    let mut cursor = Cursor::new(body);
    let opcode = cursor.u8("response opcode")?;
    let response = match opcode {
        OP_PONG => Response::Pong,
        OP_VERTEX_INFO => {
            let has_master = cursor.bool("master flag")?;
            let master_value = cursor.u32("master")?;
            let replicas = cursor.u32_list("replica list")?;
            Response::VertexInfo {
                master: has_master.then_some(master_value),
                replicas,
            }
        }
        OP_EDGE_INFO => Response::EdgeInfo {
            partition: cursor.u32("partition")?,
        },
        OP_NEIGHBOR_LIST => Response::NeighborList {
            neighbors: cursor.u32_list("neighbor list")?,
        },
        OP_PLACED => Response::Placed {
            partition: cursor.u32("partition")?,
            fresh: cursor.bool("fresh flag")?,
        },
        OP_STATS_REPORT => {
            let mut fields = [0u64; 13];
            for field in &mut fields {
                *field = cursor.u64("stats field")?;
            }
            let [requests, lookups, placements, overloads, drained, protocol_errors, cache_hits, cache_misses, cache_evictions, pending_placements, num_vertices, num_partitions, num_edges] =
                fields;
            Response::StatsReport(ServeStats {
                requests,
                lookups,
                placements,
                overloads,
                drained,
                protocol_errors,
                cache_hits,
                cache_misses,
                cache_evictions,
                pending_placements,
                num_vertices,
                num_partitions,
                num_edges,
            })
        }
        OP_FLUSHED => Response::Flushed {
            edges: cursor.u64("flushed count")?,
        },
        OP_SHUTTING_DOWN => Response::ShuttingDown,
        OP_HEALTH_REPORT => Response::HealthReport(HealthReport {
            wal_depth: cursor.u64("wal depth")?,
            pending_placements: cursor.u64("pending placements")?,
            flushes: cursor.u64("flush count")?,
            last_flush_age_secs: cursor.u64("last flush age")?,
            durable: cursor.bool("durable flag")?,
            draining: cursor.bool("draining flag")?,
        }),
        OP_ERROR => Response::Error(ErrorCode::from_byte(cursor.u8("error code")?)?),
        found => return Err(ProtocolError::UnknownOpcode { found }),
    };
    cursor.finish()?;
    Ok(response)
}

/// Writes one frame (header + version + body) and flushes the writer.
///
/// # Errors
///
/// [`ProtocolError::Io`] on write failure; [`ProtocolError::FrameTooLarge`]
/// if `body` exceeds the frame bound.
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(body.len() + 1)
        .map_err(|_| ProtocolError::FrameTooLarge { len: u32::MAX })?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&[PROTOCOL_VERSION])?;
    writer.write_all(body)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, returning its body. `Ok(None)` means the peer closed
/// the connection cleanly *between* frames; EOF mid-frame is
/// [`ProtocolError::Truncated`].
///
/// # Errors
///
/// Typed [`ProtocolError`]s for short frames, oversized or zero lengths,
/// and version mismatches; [`ProtocolError::Io`] for socket failures
/// (including read timeouts, surfaced as their `io::ErrorKind`).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtocolError::Truncated {
                    what: "frame header",
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated {
                what: "frame payload",
            }
        } else {
            ProtocolError::Io(e)
        }
    })?;
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion { found: version });
    }
    payload.remove(0);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn request_bodies_round_trip() {
        let requests = [
            Request::Ping,
            Request::VertexLookup { vertex: 7 },
            Request::EdgeLookup { u: 3, v: 9 },
            Request::Neighbors {
                vertex: 4,
                partition: 2,
            },
            Request::PlaceEdge { u: 1, v: 2 },
            Request::Stats,
            Request::Flush,
            Request::Shutdown,
            Request::Health,
        ];
        for request in requests {
            let body = encode_request(&request);
            assert_eq!(decode_request(&body).unwrap(), request);
        }
    }

    #[test]
    fn response_bodies_round_trip() {
        let responses = [
            Response::Pong,
            Response::VertexInfo {
                master: Some(3),
                replicas: vec![1, 3, 5],
            },
            Response::VertexInfo {
                master: None,
                replicas: vec![],
            },
            Response::EdgeInfo { partition: 6 },
            Response::NeighborList {
                neighbors: vec![0, 2, 9],
            },
            Response::Placed {
                partition: 4,
                fresh: true,
            },
            Response::StatsReport(ServeStats {
                requests: 10,
                cache_hits: 3,
                ..ServeStats::default()
            }),
            Response::Flushed { edges: 42 },
            Response::ShuttingDown,
            Response::HealthReport(HealthReport {
                wal_depth: 17,
                pending_placements: 17,
                flushes: 2,
                last_flush_age_secs: u64::MAX,
                durable: true,
                draining: false,
            }),
            Response::Error(ErrorCode::Overloaded),
        ];
        for response in responses {
            let body = encode_response(&response);
            assert_eq!(decode_response(&body).unwrap(), response);
        }
    }

    #[test]
    fn frames_round_trip_through_io() {
        let body = encode_request(&Request::EdgeLookup { u: 1, v: 2 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut reader = wire.as_slice();
        let read = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(read, body);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_garbage_frames_are_typed_errors() {
        // EOF mid-header.
        let mut short = &[0x05u8, 0x00][..];
        assert!(matches!(
            read_frame(&mut short),
            Err(ProtocolError::Truncated { .. })
        ));
        // Zero and oversized lengths.
        let mut zero = &0u32.to_le_bytes()[..];
        assert!(matches!(
            read_frame(&mut zero),
            Err(ProtocolError::FrameTooLarge { len: 0 })
        ));
        let mut huge = &u32::MAX.to_le_bytes()[..];
        assert!(matches!(
            read_frame(&mut huge),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
        // Bad version byte.
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        wire[4] = 99;
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtocolError::BadVersion { found: 99 })
        ));
        // Trailing bytes after a message.
        let mut body = encode_request(&Request::Ping);
        body.push(0);
        assert!(matches!(
            decode_request(&body),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        ));
        // A replica list whose count outruns the bytes backing it.
        let mut lying = vec![OP_VERTEX_INFO, 1];
        lying.extend_from_slice(&7u32.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&lying),
            Err(ProtocolError::Truncated { .. })
        ));
    }
}
