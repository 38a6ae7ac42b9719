//! Reading and writing SNAP-style edge-list files.
//!
//! SNAP datasets (the paper's G1–G8) are whitespace-separated edge lists with
//! `#`-prefixed comment lines. Vertex ids in those files are arbitrary
//! integers; [`read_edge_list`] densifies them to `0..n` and returns the
//! mapping so results can be reported in original ids if needed.
//!
//! [`EdgeListReader`] is the one parser of the format: [`read_edge_list`]
//! builds a graph from it, and the bounded-memory text source in
//! `tlp-store` streams from it, so both number vertices identically and
//! report the same errors.

use crate::{CsrGraph, Edge, GraphBuilder, GraphError, GraphView, VertexId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// A parsed edge list: the graph plus the original-id mapping.
#[derive(Clone, Debug)]
pub struct EdgeList {
    /// The parsed, deduplicated, loop-free graph.
    pub graph: CsrGraph,
    /// `original_ids[v]` is the id vertex `v` had in the input file.
    pub original_ids: Vec<u64>,
}

/// Reads a SNAP-style edge list from any reader.
///
/// Lines starting with `#` or `%` and blank lines are skipped. Each other
/// line must contain at least two integers (extra columns such as weights or
/// timestamps are ignored). Directed inputs are symmetrized, duplicates and
/// self-loops dropped — matching the preprocessing the paper applies.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on read failure and [`GraphError::Parse`] on a
/// malformed line.
///
/// # Example
///
/// ```
/// use tlp_graph::io::read_edge_list;
///
/// let data = "# comment\n10 20\n20 30\n10 20\n";
/// let list = read_edge_list(data.as_bytes())?;
/// assert_eq!(list.graph.num_vertices(), 3);
/// assert_eq!(list.graph.num_edges(), 2);
/// assert_eq!(list.original_ids, vec![10, 20, 30]);
/// # Ok::<(), tlp_graph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<EdgeList, GraphError> {
    let mut edges = EdgeListReader::new(BufReader::new(reader));
    let mut builder = GraphBuilder::new();
    while let Some(edge) = edges.next_edge()? {
        builder.push_edge(edge.source(), edge.target());
    }
    let original_ids = edges.into_original_ids();
    Ok(EdgeList {
        graph: builder.reserve_vertices(original_ids.len()).build(),
        original_ids,
    })
}

/// Line-by-line reader of a SNAP-style edge list.
///
/// Skips blank and comment lines, ignores extra columns, and interns raw
/// ids to dense `0..n` in first-seen order. Both endpoints of every data
/// line are interned before a self-loop is dropped, so a vertex seen only
/// in a self-loop still gets its id. Duplicate edges are passed through;
/// [`read_edge_list`] removes them when it builds the graph.
#[derive(Debug)]
pub struct EdgeListReader<R> {
    reader: R,
    line: String,
    line_no: usize,
    remap: HashMap<u64, VertexId>,
    original_ids: Vec<u64>,
}

impl<R: BufRead> EdgeListReader<R> {
    /// Wraps a buffered reader positioned at the start of the list.
    pub fn new(reader: R) -> Self {
        EdgeListReader {
            reader,
            line: String::new(),
            line_no: 0,
            remap: HashMap::new(),
            original_ids: Vec::new(),
        }
    }

    /// The next non-loop edge in dense ids, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on read failure, [`GraphError::Parse`] on a
    /// malformed line, [`GraphError::Invalid`] past `u32::MAX` vertices.
    pub fn next_edge(&mut self) -> Result<Option<Edge>, GraphError> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut fields = trimmed.split_whitespace();
            let a = parse_field(fields.next(), self.line_no, "source vertex")?;
            let b = parse_field(fields.next(), self.line_no, "target vertex")?;
            let a = self.intern(a)?;
            let b = self.intern(b)?;
            if a != b {
                return Ok(Some(Edge::new(a, b)));
            }
        }
    }

    /// The raw id of each dense vertex, in first-seen order.
    pub fn into_original_ids(self) -> Vec<u64> {
        self.original_ids
    }

    fn intern(&mut self, raw: u64) -> Result<VertexId, GraphError> {
        if let Some(&id) = self.remap.get(&raw) {
            return Ok(id);
        }
        let id = VertexId::try_from(self.original_ids.len())
            .map_err(|_| GraphError::Invalid("more than u32::MAX vertices".into()))?;
        self.remap.insert(raw, id);
        self.original_ids.push(raw);
        Ok(id)
    }
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<u64, GraphError> {
    let text = field.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    text.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("{what} is not an unsigned integer: {text:?}"),
    })
}

/// Reads an edge list from a file path. See [`read_edge_list`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] if the file cannot be opened or read, and
/// [`GraphError::Parse`] on malformed content.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Writes `graph` as a SNAP-style edge list (one `u v` line per edge).
///
/// A mutable reference can be passed for `writer` (`&mut Vec<u8>`, `&mut
/// File`, …).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), GraphError> {
    write_edge_list_with_ids(graph.view(), None, writer)
}

/// Writes `graph` as a SNAP-style edge list, each vertex `v` written as
/// `original_ids[v]` when ids are given and as `v` otherwise, so a graph
/// read with [`read_edge_list`] is written back in its file's ids.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
///
/// # Panics
///
/// Panics if `original_ids` has fewer than `num_vertices` entries.
pub fn write_edge_list_with_ids<W: Write>(
    graph: GraphView<'_>,
    original_ids: Option<&[u64]>,
    mut writer: W,
) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# Undirected graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    let id = |v: VertexId| original_ids.map_or(u64::from(v), |ids| ids[v as usize]);
    for e in graph.edge_iter() {
        writeln!(writer, "{}\t{}", id(e.source()), id(e.target()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_format_with_comments_and_extra_columns() {
        let data = "# Directed graph\n% also a comment\n\n1 2 1000\n2 3\n3 1\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
    }

    #[test]
    fn symmetrizes_and_dedups_directed_input() {
        let data = "1 2\n2 1\n1 1\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        assert_eq!(loaded.graph.num_vertices(), 2);
    }

    #[test]
    fn self_loop_endpoints_are_numbered_before_the_loop_is_dropped() {
        let data = "5 5\n1 2\n2 3\n";
        let mut reader = EdgeListReader::new(data.as_bytes());
        let mut edges = Vec::new();
        while let Some(edge) = reader.next_edge().unwrap() {
            edges.push(edge);
        }
        assert_eq!(edges, vec![Edge::new(1, 2), Edge::new(2, 3)]);
        assert_eq!(reader.into_original_ids(), vec![5, 1, 2, 3]);
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 4);
        assert_eq!(loaded.graph.view().edge_iter().collect::<Vec<_>>(), edges);
    }

    #[test]
    fn preserves_first_seen_order_in_mapping() {
        let data = "100 7\n7 55\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.original_ids, vec![100, 7, 55]);
    }

    #[test]
    fn rejects_garbage_line_with_location() {
        let data = "1 2\nnot numbers\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_single_column_line() {
        let data = "1\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn roundtrip_write_then_read() {
        let g = crate::GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (0, 3)])
            .build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
    }

    #[test]
    fn write_with_ids_restores_the_file_ids() {
        let loaded = read_edge_list("100 7\n7 55\n100 55\n".as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_edge_list_with_ids(loaded.graph.view(), Some(&loaded.original_ids), &mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "# Undirected graph: 3 vertices, 3 edges\n100\t7\n100\t55\n7\t55\n"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_file("/nonexistent/definitely-not-here.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
