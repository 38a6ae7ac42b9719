//! Version-agnostic graph opening: [`LoadedGraph`].
//!
//! Callers that just want "the graph at this path" shouldn't care whether
//! the file is a v1 `.tlpg` (degrees + edge pairs, decoded into a fresh
//! [`CsrGraph`]) or a v2 `.tlpg` (embedded CSR, lent zero-copy from a
//! [`GraphBuf`] arena). `LoadedGraph::open` reads the header once,
//! dispatches on its version, and hands the open file to the chosen
//! reader, which walks the same section table either way; the result
//! serves a uniform [`GraphView`].

use crate::arena::GraphBuf;
use crate::format::VERSION_V2;
use crate::reader::{open_header, StoreReader};
use crate::StoreError;
use std::path::Path;
use tlp_graph::{CsrGraph, GraphView};

/// A graph opened from disk, regardless of on-disk format version.
#[derive(Clone, Debug)]
pub enum LoadedGraph {
    /// A v1 file, decoded edge-by-edge into an owned CSR graph.
    Decoded {
        /// The reconstructed graph.
        graph: CsrGraph,
        /// Original vertex ids, when the file carries them.
        original_ids: Option<Vec<u64>>,
        /// The on-disk format version this was decoded from.
        version: u32,
    },
    /// A v2 file held as a zero-copy arena.
    Arena(GraphBuf),
}

impl LoadedGraph {
    /// Opens `path`, dispatching on the header's format version: v2 files
    /// become a zero-copy [`GraphBuf`] arena, v1 files are decoded through
    /// [`StoreReader::read_graph`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from header validation or the chosen read path.
    pub fn open(path: &Path) -> Result<LoadedGraph, StoreError> {
        let (file, header) = open_header(path)?;
        if header.version == VERSION_V2 {
            let buf = GraphBuf::with_header(path, file, header)?;
            Ok(LoadedGraph::Arena(buf))
        } else {
            let reader = StoreReader::with_header(path, file, header)?;
            let stored = reader.read_graph()?;
            Ok(LoadedGraph::Decoded {
                graph: stored.graph,
                original_ids: stored.original_ids,
                version: reader.version(),
            })
        }
    }

    /// The graph as a borrowed [`GraphView`] — zero-copy for arenas,
    /// borrowing the owned CSR for decoded files.
    pub fn view(&self) -> GraphView<'_> {
        match self {
            LoadedGraph::Decoded { graph, .. } => graph.view(),
            LoadedGraph::Arena(buf) => buf.view(),
        }
    }

    /// Original vertex ids (`original_ids[v]` = id of `v` in the text
    /// source), when persisted.
    pub fn original_ids(&self) -> Option<&[u64]> {
        match self {
            LoadedGraph::Decoded { original_ids, .. } => original_ids.as_deref(),
            LoadedGraph::Arena(buf) => buf.original_ids(),
        }
    }

    /// The on-disk format version this graph was opened from.
    pub fn format_version(&self) -> u32 {
        match self {
            LoadedGraph::Decoded { version, .. } => *version,
            LoadedGraph::Arena(buf) => buf.header().version,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::format::FormatVersion;
    use crate::writer::{write_graph, WriteOptions};
    use std::path::PathBuf;
    use tlp_graph::GraphBuilder;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-loaded-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("g.tlpg")
    }

    #[test]
    fn open_dispatches_on_version_and_views_agree() {
        let _guard = crate::faults::test_lock();
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let ids: Vec<u64> = vec![100, 200, 300, 400];
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let path = tmp(&format!("v{}", version.number()));
            let options = WriteOptions {
                original_ids: Some(ids.clone()),
                version,
                ..WriteOptions::default()
            };
            write_graph(&path, &g, &options).unwrap();
            let loaded = LoadedGraph::open(&path).unwrap();
            assert_eq!(loaded.format_version(), version.number());
            match (&loaded, version) {
                (LoadedGraph::Decoded { .. }, FormatVersion::V1) => {}
                (LoadedGraph::Arena(_), FormatVersion::V2) => {}
                other => panic!("wrong dispatch: {other:?}"),
            }
            let view = loaded.view();
            assert_eq!(view.edge_iter().collect::<Vec<_>>(), g.edges().to_vec());
            for v in g.vertices() {
                assert_eq!(view.neighbors(v), g.neighbors(v));
            }
            assert_eq!(loaded.original_ids().unwrap(), ids.as_slice());
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
