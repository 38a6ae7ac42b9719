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
//! report the same errors. It decodes raw bytes from fixed-size blocks;
//! the line-by-line `str` reader it replaced is kept, test-only, as the
//! oracle of its differential test.

use crate::{CsrGraph, Edge, GraphBuilder, GraphError, GraphView, VertexId};
use std::hash::{BuildHasher, RandomState};
use std::io::{self, Read, Write};
use std::path::Path;

/// Bytes the reader asks for per block. A line longer than this grows the
/// buffer to hold it.
const BLOCK_BYTES: usize = 64 * 1024;

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
/// self-loops dropped — matching the preprocessing the paper applies. The
/// reader is read in large blocks, so it needs no `BufReader`.
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
    let mut edges = EdgeListReader::new(reader);
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

/// Block-by-block reader of a SNAP-style edge list.
///
/// Skips blank and comment lines, ignores extra columns, and interns raw
/// ids to dense `0..n` in first-seen order. Both endpoints of every data
/// line are interned before a self-loop is dropped, so a vertex seen only
/// in a self-loop still gets its id. Duplicate edges are passed through;
/// [`read_edge_list`] removes them when it builds the graph.
///
/// It pulls fixed-size blocks straight from its [`Read`], carries a
/// block's unfinished last line over to the next one, and decodes ASCII
/// lines byte by byte. A line holding a byte of 0x80 or above, or one the
/// byte path declines (a `+` sign, a malformed or missing field), is
/// checked as UTF-8 and parsed with `str` methods instead. The accepted
/// language and every error are therefore those of a `read_line` +
/// `split_whitespace` reader: fields are separated by any Unicode
/// whitespace, and invalid UTF-8 on any line, a comment included, is
/// [`GraphError::Io`] of kind [`io::ErrorKind::InvalidData`].
#[derive(Debug)]
pub struct EdgeListReader<R> {
    reader: R,
    /// `buf[pos..lines_end]` holds whole lines not yet parsed, and
    /// `buf[lines_end..filled]` the start of a line a later read ends.
    buf: Vec<u8>,
    pos: usize,
    lines_end: usize,
    filled: usize,
    /// Whether `buf[..lines_end]` is all ASCII, so none of its lines needs
    /// the UTF-8 check.
    ascii: bool,
    at_eof: bool,
    line_no: usize,
    ids: IdTable,
    original_ids: Vec<u64>,
}

impl<R: Read> EdgeListReader<R> {
    /// Wraps a reader positioned at the start of the list. The reader is
    /// read in large blocks, so it needs no `BufReader`.
    pub fn new(reader: R) -> Self {
        Self::with_block_size(reader, BLOCK_BYTES)
    }

    /// A reader that asks its source for `block` bytes at a time.
    fn with_block_size(reader: R, block: usize) -> Self {
        EdgeListReader {
            reader,
            buf: vec![0; block.max(1)],
            pos: 0,
            lines_end: 0,
            filled: 0,
            ascii: true,
            at_eof: false,
            line_no: 0,
            ids: IdTable::new(),
            original_ids: Vec::new(),
        }
    }

    /// The next non-loop edge in dense ids, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on read failure or invalid UTF-8,
    /// [`GraphError::Parse`] on a malformed line, [`GraphError::Invalid`]
    /// past `u32::MAX` vertices.
    pub fn next_edge(&mut self) -> Result<Option<Edge>, GraphError> {
        loop {
            if self.pos == self.lines_end && !self.refill()? {
                return Ok(None);
            }
            let rest = &self.buf[self.pos..self.lines_end];
            let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            let line = &rest[..len];
            self.pos += (len + 1).min(rest.len());
            self.line_no += 1;
            let fast = if self.ascii || line.is_ascii() {
                ascii_fields(line)
            } else {
                None
            };
            let fields = match fast {
                Some(fields) => fields,
                None => str_fields(line, self.line_no)?,
            };
            if let Some((a, b)) = fields {
                let a = self.intern(a)?;
                let b = self.intern(b)?;
                if a != b {
                    return Ok(Some(Edge::new(a, b)));
                }
            }
        }
    }

    /// The raw id of each dense vertex, in first-seen order.
    pub fn into_original_ids(self) -> Vec<u64> {
        self.original_ids
    }

    /// Moves the unfinished line to the front of the buffer and reads
    /// until the buffer holds a whole line, the input's last line being
    /// whole at end of input. `Ok(false)` once no line is left.
    fn refill(&mut self) -> io::Result<bool> {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        loop {
            if self.at_eof {
                self.lines_end = self.filled;
                break;
            }
            if self.filled == self.buf.len() {
                // One line is longer than the buffer.
                self.buf.resize(2 * self.buf.len(), 0);
            }
            let start = self.filled;
            match self.reader.read(&mut self.buf[start..]) {
                Ok(0) => self.at_eof = true,
                Ok(n) => {
                    self.filled += n;
                    let read = &self.buf[start..self.filled];
                    if let Some(last) = read.iter().rposition(|&b| b == b'\n') {
                        self.lines_end = start + last + 1;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.ascii = self.buf[..self.lines_end].is_ascii();
        Ok(self.lines_end > 0)
    }

    fn intern(&mut self, raw: u64) -> Result<VertexId, GraphError> {
        let slot = match self.ids.find(raw) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        let id = VertexId::try_from(self.original_ids.len())
            .map_err(|_| GraphError::Invalid("more than u32::MAX vertices".into()))?;
        self.ids.insert_at(slot, raw, id);
        self.original_ids.push(raw);
        Ok(id)
    }
}

/// Raw id → dense id, by open addressing with linear probing. The hash is
/// multiply-shift with a random odd multiplier drawn per table, so which
/// ids collide changes from table to table and an input cannot choose
/// them. The table stays at most 3/4 full.
#[derive(Debug)]
struct IdTable {
    /// `(raw, dense)` pairs. A free slot's `dense` is [`FREE_SLOT`], which
    /// no `u32` dense id equals, so every raw id and every dense id fits.
    slots: Vec<(u64, u64)>,
    len: usize,
    multiplier: u64,
    /// `64 - log2(slots.len())`: the product's top bits pick the slot.
    shift: u32,
}

const FREE_SLOT: u64 = u64::MAX;

impl IdTable {
    const INITIAL_SLOTS: usize = 1 << 10;

    fn new() -> Self {
        IdTable {
            slots: vec![(0, FREE_SLOT); Self::INITIAL_SLOTS],
            len: 0,
            multiplier: RandomState::new().hash_one(0u64) | 1,
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
        }
    }

    fn home(&self, raw: u64) -> usize {
        (raw.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The dense id of `raw`, or the free slot where it belongs.
    fn find(&self, raw: u64) -> Result<VertexId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(raw);
        loop {
            let (key, dense) = self.slots[i];
            if dense == FREE_SLOT {
                return Err(i);
            }
            if key == raw {
                return Ok(dense as VertexId);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `raw → dense` in the free slot [`IdTable::find`] returned,
    /// doubling the table once it is more than 3/4 full.
    fn insert_at(&mut self, slot: usize, raw: u64, dense: VertexId) {
        self.slots[slot] = (raw, u64::from(dense));
        self.len += 1;
        if 4 * self.len <= 3 * self.slots.len() {
            return;
        }
        let doubled = vec![(0, FREE_SLOT); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (raw, dense) in old.into_iter().filter(|&(_, dense)| dense != FREE_SLOT) {
            let mut i = self.home(raw);
            while self.slots[i].1 != FREE_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = (raw, dense);
        }
    }
}

/// The bytes `char::is_whitespace` accepts below 0x80. Not
/// `u8::is_ascii_whitespace`, which leaves out `\x0b`.
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r')
}

/// The first two fields of an ASCII line as plain decimal numbers:
/// `Some(None)` for a blank or comment line, and `None` when the line
/// needs [`str_fields`] (a `+` sign, a malformed or missing field, a value
/// past `u64::MAX`).
fn ascii_fields(line: &[u8]) -> Option<Option<(u64, u64)>> {
    let start = skip_spaces(line, 0);
    match line.get(start) {
        None | Some(b'#' | b'%') => return Some(None),
        Some(_) => {}
    }
    let (a, end) = decimal(line, start)?;
    let (b, _) = decimal(line, skip_spaces(line, end))?;
    Some(Some((a, b)))
}

fn skip_spaces(line: &[u8], mut i: usize) -> usize {
    while i < line.len() && is_space(line[i]) {
        i += 1;
    }
    i
}

/// The digits from `line[i]` up to a separator or the line's end, as a
/// number and the index past them; `None` if there are none, another
/// byte comes first, or the value overflows `u64`.
fn decimal(line: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut i = start;
    while let Some(&byte) = line.get(i) {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            if is_space(byte) {
                break;
            }
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        i += 1;
    }
    (i > start).then_some((value, i))
}

/// One line the byte path declined, parsed with `str` methods: the UTF-8
/// check `read_line` makes, then `trim`, the comment test,
/// `split_whitespace` and `str::parse`.
fn str_fields(line: &[u8], line_no: usize) -> Result<Option<(u64, u64)>, GraphError> {
    let line = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let a = parse_field(fields.next(), line_no, "source vertex")?;
    let b = parse_field(fields.next(), line_no, "target vertex")?;
    Ok(Some((a, b)))
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
mod reference {
    //! The line-by-line reader [`super::EdgeListReader`] replaced, kept
    //! unchanged as the oracle of its differential test.

    use crate::{Edge, GraphError, VertexId};
    use std::collections::HashMap;
    use std::io::BufRead;

    /// Line-by-line reader of a SNAP-style edge list.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// What a reader made of an input: the edges it yielded, the error
    /// that stopped it (variant, line and message, or kind and message),
    /// and its raw ids.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        edges: Vec<Edge>,
        error: Option<String>,
        original_ids: Vec<u64>,
    }

    fn drain(
        mut next: impl FnMut() -> Result<Option<Edge>, GraphError>,
    ) -> (Vec<Edge>, Option<String>) {
        let mut edges = Vec::new();
        loop {
            match next() {
                Ok(Some(edge)) => edges.push(edge),
                Ok(None) => return (edges, None),
                Err(GraphError::Io(e)) => return (edges, Some(format!("Io({:?}, {e})", e.kind()))),
                Err(GraphError::Parse { line, message }) => {
                    return (edges, Some(format!("Parse({line}, {message})")))
                }
                Err(GraphError::Invalid(message)) => {
                    return (edges, Some(format!("Invalid({message})")))
                }
            }
        }
    }

    /// A reader that hands out at most `step` bytes per call, so lines
    /// straddle reads as well as blocks.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn read_reference(bytes: &[u8]) -> Outcome {
        let mut reader = reference::EdgeListReader::new(bytes);
        let (edges, error) = drain(|| reader.next_edge());
        Outcome {
            edges,
            error,
            original_ids: reader.into_original_ids(),
        }
    }

    fn read_blocks(bytes: &[u8], block: usize, step: usize) -> Outcome {
        let mut reader = EdgeListReader::with_block_size(Trickle { bytes, step }, block);
        let (edges, error) = drain(|| reader.next_edge());
        Outcome {
            edges,
            error,
            original_ids: reader.into_original_ids(),
        }
    }

    /// Asserts that the byte reader agrees with the reference at tiny,
    /// odd and default block sizes, and returns what they read.
    fn same_as_reference(bytes: &[u8]) -> Outcome {
        let expected = read_reference(bytes);
        for (block, step) in [(1, 1), (3, 2), (7, 64), (BLOCK_BYTES, usize::MAX)] {
            assert_eq!(
                read_blocks(bytes, block, step),
                expected,
                "block {block}, step {step}"
            );
        }
        expected
    }

    fn parse_error(line: usize, message: &str) -> Option<String> {
        Some(format!("Parse({line}, {message})"))
    }

    #[test]
    fn plus_sign_is_accepted_and_bare_signs_are_not() {
        let read = same_as_reference(b"+7 8\n");
        assert_eq!(read.edges, vec![Edge::new(0, 1)]);
        assert_eq!(read.original_ids, vec![7, 8]);
        let read = same_as_reference(b"1 2\n+ 8\n");
        assert_eq!(
            read.error,
            parse_error(2, r#"source vertex is not an unsigned integer: "+""#)
        );
        let read = same_as_reference(b"1 -0\n");
        assert_eq!(
            read.error,
            parse_error(1, r#"target vertex is not an unsigned integer: "-0""#)
        );
    }

    #[test]
    fn u64_overflow_is_a_parse_error() {
        let read = same_as_reference(b"18446744073709551615 1\n");
        assert_eq!(read.original_ids, vec![u64::MAX, 1]);
        let read = same_as_reference(b"18446744073709551616 1\n");
        assert_eq!(
            read.error,
            parse_error(
                1,
                r#"source vertex is not an unsigned integer: "18446744073709551616""#
            )
        );
    }

    #[test]
    fn carriage_returns_end_lines_and_separate_fields() {
        let read = same_as_reference(b"1 2\r\n2 3\r\n");
        assert_eq!(read.edges, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let read = same_as_reference(b"1\r2\n");
        assert_eq!(read.edges, vec![Edge::new(0, 1)]);
        assert_eq!(read.error, None);
    }

    #[test]
    fn vertical_tab_and_form_feed_separate_fields() {
        let read = same_as_reference(b"\x0b1\x0b2\n3\x0c4\x0c\n");
        assert_eq!(read.original_ids, vec![1, 2, 3, 4]);
        assert_eq!(read.error, None);
    }

    #[test]
    fn tabs_extra_columns_and_one_field_lines() {
        let read = same_as_reference(b"1\t2\t99 x y\n5\n");
        assert_eq!(read.edges, vec![Edge::new(0, 1)]);
        assert_eq!(read.error, parse_error(2, "missing target vertex"));
    }

    #[test]
    fn comments_blank_lines_and_an_unterminated_last_line() {
        let read = same_as_reference(b"# c\n% c\n\n  \t\n1 2\n   # indented\n3 4");
        assert_eq!(read.original_ids, vec![1, 2, 3, 4]);
        assert_eq!(read.error, None);
        let read = same_as_reference(b"\n\n1 2\nx");
        assert_eq!(
            read.error,
            parse_error(4, r#"source vertex is not an unsigned integer: "x""#)
        );
    }

    #[test]
    fn no_break_space_separates_fields() {
        let read = same_as_reference("1\u{a0}2\n3 4\u{a0}\n".as_bytes());
        assert_eq!(read.original_ids, vec![1, 2, 3, 4]);
        assert_eq!(read.error, None);
    }

    #[test]
    fn invalid_utf8_fails_even_in_a_comment() {
        let read = same_as_reference(b"1 2\n# caf\xe9\n3 4\n");
        assert_eq!(read.edges, vec![Edge::new(0, 1)]);
        let error = read.error.expect("invalid UTF-8 is an error");
        assert!(error.starts_with("Io(InvalidData, "), "{error}");
    }

    #[test]
    fn lines_longer_than_a_block_are_read_whole() {
        let long_column = "7".repeat(2 * BLOCK_BYTES + 3);
        let long_comment = "#".repeat(BLOCK_BYTES + 1);
        let text = format!("1 2 {long_column}\n{long_comment}\n3 4\n");
        let read = same_as_reference(text.as_bytes());
        assert_eq!(read.original_ids, vec![1, 2, 3, 4]);
        assert_eq!(read.error, None);
    }

    #[test]
    fn many_blocks_and_a_growing_id_table_match_the_reference() {
        let mut text = String::from("# header\n");
        for i in 0u64..20_000 {
            let a = i.wrapping_mul(2_654_435_761) % 1_000_000_007;
            let b = (i / 3).wrapping_mul(40_503) % 65_537;
            text.push_str(&format!("{a}\t{b} {i}\n"));
        }
        let expected = read_reference(text.as_bytes());
        assert!(expected.original_ids.len() > 20_000);
        assert_eq!(
            read_blocks(text.as_bytes(), BLOCK_BYTES, usize::MAX),
            expected
        );
        assert_eq!(read_blocks(text.as_bytes(), 4096, 1000), expected);
    }

    /// One field of a mixed line: mostly small ids, else any `u64`, a
    /// signed, overflowing or comment-like field, or any byte at all.
    fn field() -> impl Strategy<Value = Vec<u8>> {
        const ODD: &[&[u8]] = &[
            b"+7",
            b"+",
            b"-0",
            b"#",
            b"%",
            b"x",
            b"",
            b"18446744073709551615",
            b"18446744073709551616",
            b"\xff",
            b"\xc2",
            b"\x80",
        ];
        prop_oneof![
            (0u64..20).prop_map(|n| n.to_string().into_bytes()),
            (0u64..20).prop_map(|n| n.to_string().into_bytes()),
            any::<u64>().prop_map(|n| n.to_string().into_bytes()),
            (0usize..ODD.len()).prop_map(|i| ODD[i].to_vec()),
            any::<u8>().prop_map(|b| vec![b]),
        ]
    }

    /// What goes between fields: ASCII and multi-byte Unicode whitespace,
    /// and control bytes that are not whitespace.
    fn separator() -> impl Strategy<Value = Vec<u8>> {
        const SEPARATORS: &[&[u8]] = &[
            b" ",
            b"\t",
            b" \t ",
            b"\x0b",
            b"\x0c",
            b"\r",
            "\u{a0}".as_bytes(),
            "\u{85}".as_bytes(),
            "\u{3000}".as_bytes(),
            b"\x1c",
            b"\x1f",
            b"\0",
        ];
        (0usize..SEPARATORS.len()).prop_map(|i| SEPARATORS[i].to_vec())
    }

    /// A mixed line: separated fields, then `\n`, `\r\n` or nothing, so
    /// that it runs on into the next line.
    fn mixed_line() -> impl Strategy<Value = Vec<u8>> {
        let parts = prop::collection::vec((separator(), field()), 0..5);
        (parts, 0usize..4).prop_map(|(parts, end)| {
            let mut line: Vec<u8> = parts
                .into_iter()
                .flat_map(|(s, f)| [s, f])
                .flatten()
                .collect();
            line.extend_from_slice([&b"\n"[..], b"\r\n", b"\n", b""][end]);
            line
        })
    }

    /// One line of a well-formed list: two ids, a separator, an optional
    /// extra column and a line end.
    fn edge_line() -> impl Strategy<Value = Vec<u8>> {
        let extra = prop::option::of(any::<u32>());
        (0u64..300, 0u64..300, 0usize..12, extra).prop_map(|(a, b, style, extra)| {
            let sep = [" ", "\t", "  ", " \t"][style % 4];
            let end = ["\n", "\r\n", " \n"][style / 4];
            let extra = extra.map_or(String::new(), |w| format!("{sep}{w}"));
            format!("{a}{sep}{b}{extra}{end}").into_bytes()
        })
    }

    proptest! {
        #[test]
        fn byte_reader_matches_reference_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            block in 1usize..48,
            step in 1usize..40,
        ) {
            let expected = read_reference(&bytes);
            prop_assert_eq!(read_blocks(&bytes, block, step), expected);
        }

        #[test]
        fn byte_reader_matches_reference_on_mixed_lines(
            lines in prop::collection::vec(mixed_line(), 0..24),
            block in 1usize..48,
            step in 1usize..40,
        ) {
            let bytes = lines.concat();
            let expected = read_reference(&bytes);
            prop_assert_eq!(&read_blocks(&bytes, block, step), &expected);
            prop_assert_eq!(read_blocks(&bytes, BLOCK_BYTES, usize::MAX), expected);
        }

        #[test]
        fn byte_reader_matches_reference_on_edge_lists(
            lines in prop::collection::vec(edge_line(), 0..400),
            block in 1usize..256,
            step in 1usize..512,
        ) {
            let bytes = lines.concat();
            let expected = read_reference(&bytes);
            prop_assert_eq!(&expected.error, &None);
            prop_assert_eq!(read_blocks(&bytes, block, step), expected);
        }
    }
}
