//! Graph substrate for the TLP edge-partitioning suite.
//!
//! This crate provides everything the partitioning algorithms in
//! [`tlp-core`](https://docs.rs/tlp-core), `tlp-baselines`, and `tlp-metis`
//! need from a graph library:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row undirected simple
//!   graph in which every undirected edge carries a stable [`EdgeId`], so
//!   edge partitions can be expressed as `EdgeId -> partition` maps.
//! * [`GraphBuilder`] — deduplicating, self-loop-dropping construction from
//!   arbitrary edge lists.
//! * [`ResidualGraph`] — a mutable "unallocated edges" view used by local
//!   partitioning, supporting O(1) allocation of a single edge and iteration
//!   over a vertex's residual neighborhood.
//! * [`io`] — SNAP-style edge-list reading/writing with vertex-id remapping.
//! * [`traversal`] — BFS and connected components.
//! * [`generators`] — seeded synthetic graph generators (Erdős–Rényi,
//!   Chung–Lu power law, Barabási–Albert, R-MAT, and a genealogy-style
//!   generator) used to instantiate the paper's datasets offline.
//!
//! # Example
//!
//! ```
//! use tlp_graph::GraphBuilder;
//!
//! let graph = GraphBuilder::new()
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 0)
//!     .build();
//! assert_eq!(graph.num_vertices(), 3);
//! assert_eq!(graph.num_edges(), 3);
//! assert_eq!(graph.degree(1), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod edge;
mod error;
mod residual;
mod source;
mod view;

pub mod degree;
pub mod generators;
pub mod intersect;
pub mod io;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge::{Edge, EdgeId, VertexId};
pub use error::GraphError;
pub use residual::ResidualGraph;
pub use source::{ChunkedSink, CsrSource, EdgeSource, PassStats, SourceError};
pub use view::GraphView;

// Parallel trial runners share one `CsrGraph` across worker threads and
// give each worker its own `ResidualGraph` view; these bounds are part of
// the crate's public contract, so losing them (e.g. by adding an `Rc` or
// `Cell` field) must fail to compile rather than surface downstream.
#[allow(dead_code)]
fn _assert_thread_safety() {
    fn shared<T: Send + Sync>() {}
    fn owned<T: Send>() {}
    shared::<CsrGraph>();
    shared::<GraphBuilder>();
    shared::<GraphView<'static>>();
    owned::<ResidualGraph<'static>>();
}
