//! Baseline edge partitioners used as comparators in the TLP evaluation.
//!
//! The paper's Fig. 8 line-up (besides METIS, which lives in `tlp-metis`):
//!
//! * [`RandomPartitioner`] — uniform random edge assignment, the quality
//!   floor.
//! * [`DbhPartitioner`] — degree-based hashing (Xie et al., NIPS 2014).
//! * [`LdgPartitioner`] — linear deterministic greedy vertex streaming
//!   (Stanton & Kliot, KDD 2012), converted to an edge partition.
//!
//! Extensions from the surrounding literature, useful for wider ablations:
//!
//! * [`GreedyPartitioner`] — PowerGraph's greedy edge placement.
//! * [`HdrfPartitioner`] — high-degree replicated first (Petroni et al.).
//! * [`FennelPartitioner`] — FENNEL vertex streaming, converted to edges.
//!
//! All partitioners implement [`tlp_core::EdgePartitioner`] and are
//! deterministic given their seeds.
//!
//! The edge-streaming heuristics (Random, DBH, Greedy, HDRF) are factored
//! into [`StreamingPlacer`] state machines in [`streaming`], so the same
//! placement code also runs out-of-core over any
//! [`tlp_graph::EdgeSource`] (including `.tlpg` files on disk) via
//! [`run_streaming`], holding at most the source's budget of edges in
//! memory. Streamed and materialized runs of the same heuristic over the
//! same arrival order are bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dbh;
mod fennel;
mod greedy;
mod hdrf;
mod ldg;
mod ne;
mod pipeline;
mod random;
mod stream;
pub mod streaming;
mod util;
mod vertex_to_edge;

pub use dbh::DbhPartitioner;
pub use fennel::FennelPartitioner;
pub use greedy::GreedyPartitioner;
pub use hdrf::HdrfPartitioner;
pub use ldg::LdgPartitioner;
pub use ne::NePartitioner;
pub use pipeline::{run_streaming, StreamingKind, HDRF_LAMBDA};
pub use random::RandomPartitioner;
pub use stream::{edge_order, vertex_order, EdgeOrder, VertexOrder};
pub use streaming::{DbhState, GreedyState, HdrfState, RandomState, StreamingPlacer};
pub use vertex_to_edge::{derive_edge_partition, VertexPartition};
