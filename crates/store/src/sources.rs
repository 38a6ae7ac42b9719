//! Disk-backed [`EdgeSource`] implementations.
//!
//! These sources are what lets the unified pipeline run any streaming
//! algorithm out-of-core: a `.tlpg` file or text edge list becomes an
//! `EdgeSource` whose passes decode the file in chunks of at most `budget`
//! edges, while random access (for CSR-only algorithms) either
//! materializes the graph once and caches it, or — in strict streaming
//! mode — refuses with [`SourceError::NeedsRandomAccess`] so capability
//! violations surface as typed errors instead of silent memory blow-ups.

use crate::faults::FaultFile;
use crate::format::{edge_pairs, Section, CHUNK_EDGES};
use crate::loaded::LoadedGraph;
use crate::reader::{decode_edge, StoreReader};
use crate::StoreError;
use std::path::{Path, PathBuf};
use tlp_graph::io::EdgeListReader;
use tlp_graph::{ChunkedSink, CsrGraph, Edge, EdgeSource, GraphView, PassStats, SourceError};

impl From<StoreError> for SourceError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => SourceError::Io(io),
            other => SourceError::Other(Box::new(other)),
        }
    }
}

/// A `.tlpg` binary graph file as an [`EdgeSource`].
///
/// Each streaming pass reads the edge section sequentially off disk, so
/// the canonical edge order replays identically. Edges are validated
/// (canonical form, endpoint bounds, global order) as they are decoded,
/// and the section checksum is verified before the last chunk reaches the
/// sink, so a flipped byte surfaces as a typed error before the pass
/// completes. Random access opens the file as a [`LoadedGraph`] once and
/// caches it — a v2 file is held as a zero-copy arena whose view borrows
/// the file bytes directly, a v1 file is decoded into an owned CSR —
/// unless the source was opened [`strict_streaming`](Self::strict_streaming),
/// in which case random access is refused and only bounded-memory passes
/// are allowed.
#[derive(Debug)]
pub struct BinaryFileSource {
    store: StoreReader,
    budget: usize,
    degrees: Vec<u32>,
    strict: bool,
    cached: Option<LoadedGraph>,
}

impl BinaryFileSource {
    /// Opens the file, reading header and degree metadata (but no edges).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from validating the file.
    pub fn open(path: &Path, budget: usize) -> Result<Self, StoreError> {
        let store = StoreReader::open(path)?;
        let degrees = store.read_degrees()?;
        Ok(BinaryFileSource {
            store,
            budget: budget.max(1),
            degrees,
            strict: false,
            cached: None,
        })
    }

    /// Toggles strict streaming: when `true`, random access is refused so
    /// peak edge memory stays `O(budget)`.
    pub fn strict_streaming(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }
}

impl EdgeSource for BinaryFileSource {
    fn describe(&self) -> String {
        format!("tlpg:{}", self.store.path().display())
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.store.header().num_vertices as usize)
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.store.header().num_edges as usize)
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        Some(self.degrees.clone())
    }

    fn supports_random_access(&self) -> bool {
        !self.strict
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        if self.strict {
            return Err(SourceError::NeedsRandomAccess {
                source: self.describe(),
            });
        }
        if self.cached.is_none() {
            self.cached = Some(LoadedGraph::open(self.store.path())?);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let num_vertices = self.store.header().num_vertices as usize;
        let mut out = ChunkedSink::new(sink, self.budget);
        let mut prev = None;
        let chunk_bytes = 8 * self.budget.min(CHUNK_EDGES);
        self.store
            .read_section(Section::Edges, chunk_bytes, "edge block", |bytes| {
                for (u, v) in edge_pairs(bytes) {
                    let edge = decode_edge(u, v, num_vertices, prev)?;
                    prev = Some(edge);
                    out.push(edge);
                }
                Ok(())
            })?;
        // `read_section` verified the checksum before returning, and the
        // last chunk is still held back: corruption fails the pass before
        // that chunk is handed over.
        Ok(out.finish())
    }
}

/// A SNAP-style text edge list as an [`EdgeSource`].
///
/// Passes parse the file on the fly through
/// [`tlp_graph::io::EdgeListReader`], the same parser random access
/// materializes with, so both number vertices identically and report a
/// malformed line as the same [`SourceError::Corrupt`]. Besides the id
/// table, a pass holds one read block and at most `budget` edges. Passes drop
/// self-loops but **not** duplicate edges, which a one-pass
/// bounded-memory stream cannot detect; convert to the binary format first
/// (`tlp-convert`) for exact parity with the materialized graph.
/// Vertex/edge counts are unknown up front, so consumers that need them
/// must either materialize or fail with [`SourceError::MissingMeta`].
#[derive(Debug)]
pub struct TextFileSource {
    path: PathBuf,
    budget: usize,
    cached: Option<CsrGraph>,
}

impl TextFileSource {
    /// Wraps a text edge-list path; the file is opened lazily per pass.
    pub fn new(path: &Path, budget: usize) -> Self {
        TextFileSource {
            path: path.to_path_buf(),
            budget,
            cached: None,
        }
    }
}

impl EdgeSource for TextFileSource {
    fn describe(&self) -> String {
        format!("text:{}", self.path.display())
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        None
    }

    fn num_edges_hint(&self) -> Option<usize> {
        None
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        None
    }

    fn supports_random_access(&self) -> bool {
        true
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        if self.cached.is_none() {
            self.cached = Some(tlp_graph::io::read_edge_list_file(&self.path)?.graph);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let mut edges = EdgeListReader::new(FaultFile::open(&self.path)?);
        let mut out = ChunkedSink::new(sink, self.budget);
        while let Some(edge) = edges.next_edge()? {
            out.push(edge);
        }
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_graph, WriteOptions};
    use tlp_graph::generators::chung_lu;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-sources-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn binary_source_streams_the_canonical_order_and_materializes() {
        let _guard = crate::faults::test_lock();
        let g = chung_lu(400, 1600, 2.2, 5);
        let dir = temp_dir("bin");
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).expect("write graph");

        let mut source = BinaryFileSource::open(&path, 64).expect("open");
        assert_eq!(source.num_vertices_hint(), Some(g.num_vertices()));
        assert_eq!(source.num_edges_hint(), Some(g.num_edges()));

        let mut seen = Vec::new();
        let stats = source
            .stream_pass(&mut |chunk| seen.extend_from_slice(chunk))
            .expect("pass");
        assert_eq!(seen, g.view().edge_iter().collect::<Vec<_>>());
        assert_eq!(stats.edges, g.num_edges());
        assert!(stats.peak_buffer <= 64);

        // Second pass replays identically.
        let mut again = Vec::new();
        source
            .stream_pass(&mut |chunk| again.extend_from_slice(chunk))
            .expect("pass 2");
        assert_eq!(again, seen);

        assert!(source.supports_random_access());
        let view = source.random_access().expect("materialize");
        assert_eq!(view, g.view());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_streaming_refuses_random_access() {
        let _guard = crate::faults::test_lock();
        let g = chung_lu(100, 400, 2.2, 9);
        let dir = temp_dir("strict");
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).expect("write graph");

        let mut source = BinaryFileSource::open(&path, 32)
            .expect("open")
            .strict_streaming(true);
        assert!(!source.supports_random_access());
        let err = source.random_access().expect_err("must refuse");
        assert!(matches!(err, SourceError::NeedsRandomAccess { .. }));
        // Streaming still works.
        let stats = source.stream_pass(&mut |_| {}).expect("pass");
        assert_eq!(stats.edges, g.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `contents` to a fresh text file and returns its source.
    fn text_source(tag: &str, contents: &str, budget: usize) -> (PathBuf, TextFileSource) {
        let dir = temp_dir(tag);
        let path = dir.join("g.txt");
        std::fs::write(&path, contents).expect("write");
        let source = TextFileSource::new(&path, budget);
        (dir, source)
    }

    #[test]
    fn text_pass_numbers_vertices_like_the_materialized_view() {
        let _guard = crate::faults::test_lock();
        // Comments, an extra column, and self-loops — one of them on a
        // vertex no other line mentions before it. The data lines are in
        // canonical order, so the view's edge order is the file's.
        let contents = "# header\n% note\n5 5\n1 2 999\n1 3\n2 3\n3 3\n\n2 7 1\n";
        for budget in [1usize, 2, 64] {
            let (dir, mut source) = text_source("parity", contents, budget);
            assert_eq!(source.num_vertices_hint(), None);
            let mut passed = Vec::new();
            let stats = source
                .stream_pass(&mut |chunk| passed.extend_from_slice(chunk))
                .expect("pass");
            assert!(stats.peak_buffer <= budget);
            assert_eq!(stats.edges, passed.len());
            let view = source.random_access().expect("materialize");
            assert_eq!(passed, view.edge_iter().collect::<Vec<_>>());
            assert_eq!(view.num_vertices(), 5);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn malformed_text_line_is_the_same_error_on_both_paths() {
        let _guard = crate::faults::test_lock();
        let (dir, mut source) = text_source("malformed", "1 2\nnot numbers\n", 16);
        let streamed = source.stream_pass(&mut |_| {}).expect_err("pass must fail");
        let materialized = source.random_access().expect_err("parse must fail");
        match (&streamed, &materialized) {
            (SourceError::Corrupt(a), SourceError::Corrupt(b)) => {
                assert_eq!(a, b);
                assert!(a.starts_with("parse error at line 2"), "{a}");
            }
            other => panic!("expected two Corrupt errors, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A text file of a few thousand edges, several of the reader's
    /// 64 KiB blocks long, so lines straddle block boundaries.
    fn multi_block_text(tag: &str, budget: usize) -> (PathBuf, PathBuf, TextFileSource) {
        let g = chung_lu(20_000, 60_000, 2.2, 3);
        let dir = temp_dir(tag);
        let path = dir.join("g.txt");
        let file = std::fs::File::create(&path).expect("create");
        tlp_graph::io::write_edge_list(&g, std::io::BufWriter::new(file)).expect("write");
        let len = std::fs::metadata(&path).expect("stat").len();
        assert!(len > 6 * 64 * 1024, "only {len} bytes");
        let source = TextFileSource::new(&path, budget);
        (dir, path, source)
    }

    #[test]
    fn text_pass_across_blocks_numbers_vertices_like_random_access() {
        let _guard = crate::faults::test_lock();
        let (dir, _, mut source) = multi_block_text("blocks", 1_000);
        let mut passed = Vec::new();
        let stats = source
            .stream_pass(&mut |chunk| passed.extend_from_slice(chunk))
            .expect("pass");
        assert!(stats.peak_buffer <= 1_000);
        passed.sort_unstable();
        let view = source.random_access().expect("materialize");
        assert_eq!(passed, view.edge_iter().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_error_fails_a_text_pass_midway() {
        let _guard = crate::faults::test_lock();
        let (dir, _, mut source) = multi_block_text("read-fault", 16);
        // Operation 0 opens the file and 1 reads the first block; the
        // second block's read fails.
        crate::faults::arm(crate::faults::FaultSchedule {
            at_op: 2,
            kind: crate::faults::FaultKind::Crash,
            seed: 0,
        });
        let mut delivered = 0;
        let result = source.stream_pass(&mut |chunk| delivered += chunk.len());
        crate::faults::disarm();
        let err = result.expect_err("the injected read error must fail the pass");
        assert!(matches!(err, SourceError::Io(_)), "{err:?}");
        assert!(delivered > 0, "the first block's edges reach the sink");
        let view = source.random_access().expect("materialize");
        assert!(delivered < view.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_checksum_is_verified_before_the_last_chunk_reaches_the_sink() {
        let _guard = crate::faults::test_lock();
        // Vertex 3 is isolated, so rewriting the last edge (0, 2) as
        // (0, 3) keeps it canonical, in order, and in bounds: only the
        // section checksum can catch it.
        let g = tlp_graph::GraphBuilder::new()
            .reserve_vertices(4)
            .add_edges([(0, 1), (0, 2)])
            .build();
        let dir = temp_dir("checksum");
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).expect("write graph");
        let mut source = BinaryFileSource::open(&path, 1).expect("open");
        let edges = source.store.find(Section::Edges).expect("edge section");
        let target = edges.payload_pos as usize + 8 + 4;
        let mut bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes[target], 2);
        bytes[target] = 3;
        std::fs::write(&path, &bytes).expect("write");

        let mut delivered = Vec::new();
        let err = source
            .stream_pass(&mut |chunk| delivered.extend_from_slice(chunk))
            .expect_err("corruption must fail the pass");
        assert!(
            err.to_string().contains("checksum mismatch in edges"),
            "{err}"
        );
        assert_eq!(delivered, vec![Edge::new(0, 1)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
