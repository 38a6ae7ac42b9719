//! On-disk graph store and out-of-core edge streaming for the TLP suite.
//!
//! Three layers, each usable on its own:
//!
//! * **Binary graph format** (`.tlpg`) — a versioned, checksummed container
//!   for canonical CSR graphs. Format v2 (the default) embeds the CSR
//!   arrays themselves, 8-byte-aligned and individually checksummed, so
//!   [`GraphBuf`] opens a graph with one bulk read and lends zero-copy
//!   [`tlp_graph::GraphView`]s. Legacy v1 files (degree + edge blocks) are
//!   decoded and rebuilt by [`StoreReader`]. [`LoadedGraph`] is the one
//!   owner of a graph in memory — an owned CSR with its original ids, or
//!   a v2 arena — and [`LoadedGraph::open`] reads a file's header once and
//!   dispatches on its version. [`write_graph`] emits either version;
//!   `tlp-convert` (this crate's binary) converts text edge lists to and
//!   from the format, keeping original vertex ids, and upgrades v1 files
//!   in place.
//! * **Edge sources** — [`BinaryFileSource`] (sequential disk reads from a
//!   `.tlpg` file, never materializing the edge table) and
//!   [`TextFileSource`] (parse-as-you-go over a text edge list) implement
//!   [`tlp_graph::EdgeSource`], delivering a graph's edge sequence in
//!   chunks no larger than a caller-chosen buffer budget, so streaming
//!   partitioners hold `O(budget)` edges instead of `O(m)`.
//! * **Partition store** — [`write_partition_store`] persists a finished
//!   partition as per-partition edge segments plus a `MANIFEST.tlp`
//!   replica/ownership manifest; [`PartitionStoreReader`] recomputes
//!   replication factor and balance from the manifest alone and the full
//!   metrics (including Claim 1 modularity) from the segments,
//!   bit-identically to the live run.
//!
//! Every binary file here — graph, segment, checkpoint, WAL — is framed
//! the same way by [`format`](mod@format): an 8-byte magic, little-endian fixed
//! fields, and checksummed byte ranges whose failures are typed
//! [`StoreError`]s. The `.tlpg` sections are one table per version that
//! the writer emits and every reader walks.
//!
//! # Fault tolerance
//!
//! All durable writes (graphs, segments, manifests, checkpoints) go
//! through [`atomic_write`]: temp file + fsync + atomic rename, so a crash
//! leaves the previous file or nothing — never a torn one. The partition
//! store's manifest doubles as a commit record; an uncommitted store is
//! quarantined on open ([`StoreError::TornStore`]). The [`faults`] module
//! provides deterministic fault injection ([`FaultFile`], [`FaultSchedule`])
//! that every store I/O path is threaded through, which is how the
//! crash-point sweep tests drive the above guarantees. The checkpoint
//! module ([`write_checkpoint`] / [`read_checkpoint`]) persists
//! partitioner snapshots for kill-and-resume runs.
//!
//! # Example
//!
//! ```no_run
//! use tlp_store::{write_graph, StoreReader, WriteOptions};
//! use tlp_graph::GraphBuilder;
//!
//! let graph = GraphBuilder::new().add_edges([(0, 1), (1, 2)]).build();
//! write_graph("ring.tlpg".as_ref(), &graph, &WriteOptions::default())?;
//! let stored = StoreReader::open("ring.tlpg".as_ref())?.read_graph()?;
//! assert_eq!(stored, graph);
//! # Ok::<(), tlp_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

mod arena;
mod atomic;
mod checkpoint;
mod error;
mod loaded;
mod partition_store;
mod reader;
mod sources;
mod wal;
mod writer;

pub mod faults;
pub mod format;

pub use arena::GraphBuf;
pub use atomic::atomic_write;
pub use checkpoint::{read_checkpoint, write_checkpoint, CHECKPOINT_NAME};
pub use error::StoreError;
pub use faults::{FaultFile, FaultKind, FaultSchedule};
pub use format::{FormatVersion, Header, SourceStamp, CHUNK_EDGES, MAGIC, VERSION, VERSION_V2};
pub use loaded::LoadedGraph;
pub use partition_store::{
    write_partition_store, PartitionManifest, PartitionStoreReader, SegmentEntry, MANIFEST_NAME,
};
pub use reader::{SectionInfo, StoreReader};
pub use sources::{BinaryFileSource, TextFileSource};
pub use wal::{read_wal, PlacementWal, WalRecord, WalReplay, WAL_MAGIC, WAL_NAME, WAL_RECORD_LEN};
pub use writer::{write_graph, WriteOptions};
