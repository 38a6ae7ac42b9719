//! Source-agnostic edge access: the [`EdgeSource`] trait.
//!
//! Every partitioning algorithm in the workspace consumes one of two access
//! patterns:
//!
//! * **random access** — the whole graph materialized as a [`GraphView`]
//!   (TLP and the other expansion/multilevel algorithms), or
//! * **pass-oriented streaming** — one or more sequential sweeps over the
//!   edge sequence with a bounded buffer (the streaming baselines and the
//!   streamed metrics accumulator).
//!
//! `EdgeSource` is the common handle over both, and the only edge-streaming
//! interface in the workspace. [`CsrSource`] is the one in-memory source:
//! it lends an owned [`CsrGraph`](crate::CsrGraph) or any other [`GraphView`] for random
//! access and streams its edge table in natural `EdgeId` order, with an
//! optional chunk budget; the on-disk sources in `tlp-store` decode
//! `.tlpg` and text files in budget-bounded chunks, reporting
//! [`supports_random_access`](EdgeSource::supports_random_access) `false`
//! when a strict memory budget forbids materialization. The pipeline layer
//! in `tlp-core` dispatches on that capability instead of each binary
//! hard-coding which algorithm can read which input.
//!
//! Passes are **replayable and deterministic**: every call to
//! [`stream_pass`](EdgeSource::stream_pass) delivers the same edges in the
//! same arrival order, so a consumer that reads a source more than once
//! can pair the edges of its passes by position.

use crate::{Edge, GraphError, GraphView};
use std::error::Error as StdError;
use std::fmt;

/// Error from an [`EdgeSource`] operation.
#[derive(Debug)]
pub enum SourceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The source's bytes or framing are invalid.
    Corrupt(String),
    /// Random access was requested from a source whose memory budget
    /// forbids materializing the graph.
    NeedsRandomAccess {
        /// Description of the refusing source (see [`EdgeSource::describe`]).
        source: String,
    },
    /// The source cannot provide a piece of metadata a consumer requires
    /// (e.g. final degrees for DBH from a one-pass text stream).
    MissingMeta {
        /// What was missing ("num_vertices", "degrees", ...).
        what: &'static str,
        /// Description of the source.
        source: String,
    },
    /// Any other error from a backing store, boxed to avoid a dependency
    /// cycle (`tlp-store` errors travel through this variant).
    Other(Box<dyn StdError + Send + Sync>),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "i/o error: {e}"),
            SourceError::Corrupt(message) => write!(f, "corrupt edge source: {message}"),
            SourceError::NeedsRandomAccess { source } => {
                write!(f, "source {source} is streaming-only (no random access)")
            }
            SourceError::MissingMeta { what, source } => {
                write!(f, "source {source} cannot provide {what}")
            }
            SourceError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for SourceError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SourceError::Io(e) => Some(e),
            SourceError::Other(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

/// An I/O failure stays [`SourceError::Io`]; a malformed or oversized
/// input becomes [`SourceError::Corrupt`] with the graph error's message.
impl From<GraphError> for SourceError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Io(io) => SourceError::Io(io),
            other => SourceError::Corrupt(other.to_string()),
        }
    }
}

/// What one completed streaming pass observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// Number of edges delivered.
    pub edges: usize,
    /// Largest chunk handed to the sink — bounded by the source's budget.
    pub peak_buffer: usize,
}

/// A source of a graph's edges, consumable by random access or by
/// replayable sequential passes.
///
/// Implementations must make repeated [`stream_pass`](Self::stream_pass)
/// calls deliver the identical edge sequence (same edges, same arrival
/// order) — consumers rely on this to correlate per-edge state across
/// passes.
pub trait EdgeSource {
    /// Human-readable description of the source (for error messages).
    fn describe(&self) -> String;

    /// Number of vertices, when known before streaming.
    fn num_vertices_hint(&self) -> Option<usize>;

    /// Number of edges, when known before streaming.
    fn num_edges_hint(&self) -> Option<usize>;

    /// Exact final degrees, when the source has them up front (required by
    /// degree-based streaming consumers like DBH).
    fn degrees_hint(&self) -> Option<Vec<u32>>;

    /// Whether [`random_access`](Self::random_access) can succeed.
    fn supports_random_access(&self) -> bool;

    /// Materializes (or returns the already-materialized) graph as a
    /// borrowed [`GraphView`].
    ///
    /// The view borrows from the source, which keeps the backing memory
    /// alive until the next `&mut self` call; sources backed by a `.tlpg`
    /// v2 arena lend the arena directly with no CSR rebuild, while v1 and
    /// text sources decode once, cache an owned graph, and lend that.
    ///
    /// # Errors
    ///
    /// [`SourceError::NeedsRandomAccess`] when the source's memory budget
    /// forbids materialization; otherwise any error from reading the
    /// backing store.
    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError>;

    /// Runs one sequential pass, handing every edge chunk to `sink`.
    ///
    /// # Errors
    ///
    /// Any error from reading the backing store.
    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError>;
}

/// Default chunk length an in-memory source uses for streaming passes.
/// Chunking an in-memory slice costs nothing and keeps sink call patterns
/// comparable to the disk sources.
const CSR_PASS_CHUNK: usize = 1 << 16;

/// Hands a pass's edges to its sink in chunks of at most `budget` edges
/// and tallies the [`PassStats`] — the chunking every [`EdgeSource`]
/// shares.
///
/// A full chunk is handed over only when the next edge arrives, and the
/// last one only by [`finish`](Self::finish), so a source can still fail
/// the pass after decoding its final edge (e.g. on a checksum) without
/// the sink having seen it.
pub struct ChunkedSink<'s> {
    sink: &'s mut dyn FnMut(&[Edge]),
    chunk: Vec<Edge>,
    budget: usize,
    edges: usize,
    peak: usize,
}

impl<'s> ChunkedSink<'s> {
    /// Chunks for `sink`, at most `budget` (at least 1) edges at a time.
    pub fn new(sink: &'s mut dyn FnMut(&[Edge]), budget: usize) -> Self {
        ChunkedSink {
            sink,
            chunk: Vec::new(),
            budget: budget.max(1),
            edges: 0,
            peak: 0,
        }
    }

    /// Appends the next edge, first handing over the pending chunk if it
    /// is full.
    pub fn push(&mut self, edge: Edge) {
        if self.chunk.len() == self.budget {
            self.flush();
        }
        self.chunk.push(edge);
    }

    /// Hands over the last chunk and returns the pass's statistics.
    pub fn finish(mut self) -> PassStats {
        self.flush();
        PassStats {
            edges: self.edges,
            peak_buffer: self.peak,
        }
    }

    fn flush(&mut self) {
        if !self.chunk.is_empty() {
            self.edges += self.chunk.len();
            self.peak = self.peak.max(self.chunk.len());
            (self.sink)(&self.chunk);
            self.chunk.clear();
        }
    }
}

/// A shared borrow of an in-memory graph as an [`EdgeSource`].
///
/// `EdgeSource` consumers take `&mut dyn EdgeSource`, but experiment grids
/// share one immutable graph across worker threads; this wrapper gives
/// each cell its own source handle over the shared graph — whether that is
/// an owned [`CsrGraph`](crate::CsrGraph) or a `.tlpg` v2 arena's
/// [`GraphView`]. Random access lends the view itself; a streaming pass
/// copies the edge table into a buffer of at most `budget` edges at a
/// time.
#[derive(Debug)]
pub struct CsrSource<'a> {
    graph: GraphView<'a>,
    budget: usize,
}

impl<'a> CsrSource<'a> {
    /// Wraps a shared graph reference or view.
    pub fn new(graph: impl Into<GraphView<'a>>) -> Self {
        Self::with_budget(graph, CSR_PASS_CHUNK)
    }

    /// Wraps a shared graph with a per-pass chunk budget: random access
    /// is still free, but passes hand the sink at most `budget` edges at
    /// a time, so a streaming algorithm's reported peak buffer honors the
    /// same `--stream-budget` bound as the disk sources.
    pub fn with_budget(graph: impl Into<GraphView<'a>>, budget: usize) -> Self {
        CsrSource {
            graph: graph.into(),
            budget,
        }
    }
}

impl EdgeSource for CsrSource<'_> {
    fn describe(&self) -> String {
        format!(
            "csr({} vertices, {} edges)",
            self.graph.num_vertices(),
            self.graph.num_edges()
        )
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.graph.num_vertices())
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.graph.num_edges())
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        let graph = self.graph;
        Some(graph.vertices().map(|v| graph.degree(v) as u32).collect())
    }

    fn supports_random_access(&self) -> bool {
        true
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        Ok(self.graph)
    }

    /// One pass in natural order, copied into chunks of at most `budget`
    /// edges.
    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let mut out = ChunkedSink::new(sink, self.budget);
        self.graph.edge_iter().for_each(|edge| out.push(edge));
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
            .build()
    }

    fn edges(g: &CsrGraph) -> Vec<Edge> {
        g.view().edge_iter().collect()
    }

    #[test]
    fn csr_source_lends_the_view_and_replays_natural_order() {
        let g = graph();
        let mut source = CsrSource::new(&g);
        assert!(source.supports_random_access());
        assert_eq!(source.num_vertices_hint(), Some(4));
        assert_eq!(source.num_edges_hint(), Some(5));
        let degrees = source.degrees_hint().unwrap();
        assert_eq!(degrees.iter().sum::<u32>() as usize, 2 * g.num_edges());
        let expected = edges(&g);
        for _ in 0..2 {
            let mut seen = Vec::new();
            let stats = source
                .stream_pass(&mut |chunk| seen.extend_from_slice(chunk))
                .unwrap();
            assert_eq!(seen, expected);
            assert_eq!(stats.edges, expected.len());
            assert!(stats.peak_buffer <= expected.len());
        }
        assert_eq!(source.random_access().unwrap(), g.view());
    }

    #[test]
    fn budgeted_source_bounds_chunks() {
        let g = crate::generators::chung_lu(200, 900, 2.2, 3);
        for budget in [1usize, 17, usize::MAX] {
            let mut source = CsrSource::with_budget(&g, budget);
            let mut seen = Vec::new();
            let stats = source
                .stream_pass(&mut |chunk| {
                    assert!(chunk.len() <= budget);
                    seen.extend_from_slice(chunk);
                })
                .unwrap();
            assert_eq!(seen, edges(&g));
            assert_eq!(stats.peak_buffer, budget.min(g.num_edges()));
        }
    }

    #[test]
    fn graph_errors_map_to_source_errors() {
        let parse = GraphError::Parse {
            line: 2,
            message: "bad".into(),
        };
        let message = parse.to_string();
        assert!(matches!(SourceError::from(parse), SourceError::Corrupt(m) if m == message));
        let io = GraphError::Io(std::io::Error::other("disk"));
        assert!(matches!(SourceError::from(io), SourceError::Io(_)));
    }

    #[test]
    fn source_error_display_is_informative() {
        let e = SourceError::NeedsRandomAccess {
            source: "tlpg:x".into(),
        };
        assert!(e.to_string().contains("streaming-only"));
        let e = SourceError::MissingMeta {
            what: "degrees",
            source: "text:y".into(),
        };
        assert!(e.to_string().contains("degrees"));
    }
}
