//! The one owner of a graph held in memory: [`LoadedGraph`].
//!
//! A graph is either an owned [`CsrGraph`] (parsed from text, built in
//! memory, rebuilt from a partition store or decoded from a v1 `.tlpg`
//! file) or a [`GraphBuf`] arena holding a v2 `.tlpg` file as it lies on
//! disk. Both lend the same [`GraphView`], and both carry the original
//! vertex ids when they have them, so the CLI, the partition service and
//! `tlp-convert` hold their graph the same way whichever it is.
//! [`LoadedGraph::open`] reads a file's header once, dispatches on its
//! version, and hands the open file to the chosen reader, which walks the
//! same section table either way.

use crate::arena::GraphBuf;
use crate::format::VERSION_V2;
use crate::reader::{open_header, StoreReader};
use crate::StoreError;
use std::path::Path;
use tlp_graph::io::EdgeList;
use tlp_graph::{CsrGraph, GraphView};

/// A graph in memory, owned as a CSR or held as a `.tlpg` v2 arena.
#[derive(Clone, Debug)]
pub enum LoadedGraph {
    /// An owned CSR graph.
    Owned {
        /// The graph.
        graph: CsrGraph,
        /// `original_ids[v]` = id of `v` in its source file, when known.
        original_ids: Option<Vec<u64>>,
    },
    /// A v2 file held as a zero-copy arena.
    Arena(GraphBuf),
}

impl LoadedGraph {
    /// Opens `path`, dispatching on the header's format version: v2 files
    /// become a zero-copy [`GraphBuf`] arena, v1 files are decoded through
    /// [`StoreReader::read_graph`] into an owned graph.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from header validation or the chosen read path.
    pub fn open(path: &Path) -> Result<LoadedGraph, StoreError> {
        let (file, header) = open_header(path)?;
        if header.version == VERSION_V2 {
            return Ok(LoadedGraph::Arena(GraphBuf::with_header(
                path, file, header,
            )?));
        }
        let reader = StoreReader::with_header(path, file, header)?;
        Ok(LoadedGraph::Owned {
            graph: reader.read_graph()?,
            original_ids: reader.read_original_ids()?,
        })
    }

    /// The graph as a borrowed [`GraphView`]: the arena itself, or the
    /// owned CSR's arrays.
    pub fn view(&self) -> GraphView<'_> {
        match self {
            LoadedGraph::Owned { graph, .. } => graph.view(),
            LoadedGraph::Arena(buf) => buf.view(),
        }
    }

    /// Original vertex ids (`original_ids[v]` = id of `v` in the source
    /// file), when known.
    pub fn original_ids(&self) -> Option<&[u64]> {
        match self {
            LoadedGraph::Owned { original_ids, .. } => original_ids.as_deref(),
            LoadedGraph::Arena(buf) => buf.original_ids(),
        }
    }
}

/// A graph built in memory, with no original ids.
impl From<CsrGraph> for LoadedGraph {
    fn from(graph: CsrGraph) -> Self {
        LoadedGraph::Owned {
            graph,
            original_ids: None,
        }
    }
}

/// A parsed text edge list, keeping the file's vertex ids.
impl From<EdgeList> for LoadedGraph {
    fn from(list: EdgeList) -> Self {
        LoadedGraph::Owned {
            graph: list.graph,
            original_ids: Some(list.original_ids),
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
            match (&loaded, version) {
                (LoadedGraph::Owned { .. }, FormatVersion::V1) => {}
                (LoadedGraph::Arena(_), FormatVersion::V2) => {}
                other => panic!("wrong dispatch: {other:?}"),
            }
            assert_eq!(loaded.view(), g.view());
            assert_eq!(loaded.original_ids().unwrap(), ids.as_slice());
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn in_memory_graphs_keep_their_ids() {
        let list = tlp_graph::io::read_edge_list("10 20\n20 30\n".as_bytes()).unwrap();
        let graph = list.graph.clone();
        let loaded = LoadedGraph::from(list);
        assert_eq!(loaded.view(), graph.view());
        assert_eq!(loaded.original_ids().unwrap(), [10, 20, 30]);
        assert!(LoadedGraph::from(graph).original_ids().is_none());
    }
}
