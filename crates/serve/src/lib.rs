//! `tlp-serve`: online serving of partitioned graphs.
//!
//! The partitioners in this workspace *produce* edge partitions; this
//! crate *serves* one. [`PartitionService`] opens a partition store,
//! holds its base graph as a [`tlp_store::LoadedGraph`] (a CSR rebuilt
//! from the store's segments, or the zero-copy arena of a `.tlpg` v2
//! file given beside it), and answers vertex→master/replica lookups,
//! edge→partition lookups, partition-local neighbor queries, and online
//! [`PlaceEdge`](protocol::Request::PlaceEdge) placement of fresh edges
//! via a [`tlp_baselines::StreamingPlacer`], the one streaming placer
//! type, whose state is the [`tlp_core::StreamedMetrics`] fold of the
//! served partition — so a live server's placements are bit-identical to
//! a direct streaming continuation.
//!
//! Around the service sit:
//! - [`protocol`] — the length-prefixed, versioned binary frame format;
//! - [`cache`] — a sharded read-through LRU for hot vertex lookups;
//! - [`server`] — a bounded-queue TCP front-end (`std::net`, fixed
//!   worker pool, typed overload/drain refusals, graceful shutdown);
//! - [`client`] — a minimal blocking client plus a retrying wrapper
//!   ([`RetryingClient`]) with seeded decorrelated-jitter backoff;
//! - [`loadgen`] — a zipf-skewed read/write load generator reporting
//!   throughput + latency percentiles through the shared obs path;
//! - [`chaos`] — a deterministic TCP fault proxy (resets, truncation,
//!   corruption, slow-loris stalls) for chaos testing the above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::{CachedVertex, VertexCache};
pub use chaos::{ChaosCounts, ChaosProxy, ChaosSchedule, ConnFault};
pub use client::{
    request_is_idempotent, AttemptError, ClientError, RetryPolicy, RetryingClient, ServeClient,
};
pub use loadgen::{
    run_burst, run_load, run_replay, BurstReport, LoadConfig, LoadReport, ReplayReport, ZipfSampler,
};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, HealthReport, ProtocolError, Request, Response, ServeStats, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use service::{PartitionService, ServiceError};
