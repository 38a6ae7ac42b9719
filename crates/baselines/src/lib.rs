//! Baseline edge partitioners used as comparators in the TLP evaluation.
//!
//! The paper's Fig. 8 line-up (besides METIS, which lives in `tlp-metis`):
//!
//! * [`StreamingKind::Random`] — uniform random edge assignment, the
//!   quality floor.
//! * [`StreamingKind::Dbh`] — degree-based hashing (Xie et al., NIPS 2014).
//! * [`LdgPartitioner`] — linear deterministic greedy vertex streaming
//!   (Stanton & Kliot, KDD 2012), converted to an edge partition.
//!
//! Extensions from the surrounding literature, useful for wider ablations:
//!
//! * [`StreamingKind::Greedy`] — PowerGraph's greedy edge placement.
//! * [`StreamingKind::Hdrf`] — high-degree replicated first (Petroni et al.).
//! * [`FennelPartitioner`] — FENNEL vertex streaming, converted to edges.
//!
//! All partitioners implement [`tlp_core::EdgePartitioner`] and are
//! deterministic given their seeds.
//!
//! The four edge-streaming heuristics are one family: a [`StreamingKind`]
//! builds a [`StreamingPlacer`], the one placer type, whose state is the
//! [`tlp_core::StreamedMetrics`] fold of the edges it placed. Greedy and
//! HDRF decide by that fold's replica sets, partial degrees and loads, and
//! the run's metrics are read off it. [`StreamingPartitioner`] runs the
//! placer over an [`EdgeOrder`] of an in-memory graph and [`run_streaming`]
//! runs it out-of-core over any [`tlp_graph::EdgeSource`] (including
//! `.tlpg` files on disk), holding at most the source's budget of edges in
//! memory. Streamed and materialized runs of the same heuristic over the
//! same arrival order are bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fennel;
mod ldg;
mod ne;
mod pipeline;
mod stream;
mod streaming;
mod util;
mod vertex_to_edge;

pub use fennel::FennelPartitioner;
pub use ldg::LdgPartitioner;
pub use ne::NePartitioner;
pub use pipeline::run_streaming;
pub use stream::{edge_order, vertex_order, EdgeOrder, VertexOrder};
pub use streaming::{StreamingKind, StreamingPartitioner, StreamingPlacer};
pub use vertex_to_edge::{derive_edge_partition, VertexPartition};
