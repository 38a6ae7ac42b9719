//! Reading `.tlpg` binary graph files (v1 and v2).

use crate::faults::FaultFile;
use crate::format::{
    read_exact_or_truncated, tag_name, Header, SectionFrame, SectionHasher, CHUNK_EDGES,
    HEADER_LEN, SECTION_FRAME_LEN, TAG_ADJ_EDGE, TAG_ADJ_VERTEX, TAG_DEGREES, TAG_EDGES,
    TAG_OFFSETS, TAG_ORIGINAL_IDS, VERSION,
};
use crate::StoreError;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use tlp_graph::{CsrGraph, Edge, VertexId};

/// A fully loaded binary store: the graph plus optional original ids.
#[derive(Clone, Debug)]
pub struct StoredGraph {
    /// The reconstructed graph, bit-identical to the one written.
    pub graph: CsrGraph,
    /// `original_ids[v]` = id of `v` in the text source, when persisted.
    pub original_ids: Option<Vec<u64>>,
}

/// Section location inside an open store file.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SectionAt {
    pub(crate) frame: SectionFrame,
    pub(crate) payload_pos: u64,
}

/// Per-version section table of an open store.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Layout {
    /// v1: per-vertex degrees + canonical edge pairs.
    V1 {
        degrees: SectionAt,
        edges: SectionAt,
    },
    /// v2: the CSR arrays verbatim, then the canonical edge pairs.
    V2 {
        offsets: SectionAt,
        adj_vertex: SectionAt,
        adj_edge: SectionAt,
        edges: SectionAt,
    },
}

/// Descriptive metadata for one section of an open store, as reported by
/// [`StoreReader::section_infos`] (e.g. for `tlp-convert info`).
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Human-readable section name (`"DEGS"`, `"OFFS"`, ...).
    pub name: &'static str,
    /// Payload length in bytes (excludes the 24-byte frame).
    pub payload_len: u64,
    /// Declared payload checksum.
    pub checksum: u64,
    /// Byte offset of the payload in the file.
    pub payload_pos: u64,
}

/// An opened (header-validated) binary graph store.
///
/// Opening validates the magic, version, header checksum, section framing,
/// and that the file is long enough for every declared section — so a
/// truncated file fails here with a typed error, not mid-read. Both format
/// versions are supported: v1 files carry degrees + edge pairs and are
/// decoded into a fresh [`CsrGraph`]; v2 files additionally embed the CSR
/// arrays (the zero-copy open path lives in [`crate::GraphBuf`], which
/// lends them without rebuilding — this reader's [`read_graph`] works on
/// both versions via the shared edge payload).
///
/// [`read_graph`]: StoreReader::read_graph
///
/// # Example
///
/// ```no_run
/// use tlp_store::StoreReader;
///
/// let reader = StoreReader::open("graph.tlpg".as_ref())?;
/// let stored = reader.read_graph()?;
/// println!("{} edges", stored.graph.num_edges());
/// # Ok::<(), tlp_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct StoreReader {
    path: PathBuf,
    header: Header,
    pub(crate) layout: Layout,
    pub(crate) original_ids: Option<SectionAt>,
}

impl StoreReader {
    /// Opens and validates a store file's header and section framing.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::ChecksumMismatch`] (header), [`StoreError::Truncated`],
    /// or [`StoreError::Corrupt`] for structural defects.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let file = FaultFile::open(path).map_err(StoreError::Io)?;
        let file_len = file.metadata().map_err(StoreError::Io)?.len();
        let mut reader = BufReader::new(file);

        let mut header_bytes = [0u8; HEADER_LEN];
        read_exact_or_truncated(&mut reader, &mut header_bytes, "header")?;
        let header = Header::decode(&header_bytes)?;

        let n = header.num_vertices;
        let m = header.num_edges;
        let mut pos = HEADER_LEN as u64;
        let mut section =
            |tag: u32, what: &'static str, expected_len: u64| -> Result<SectionAt, StoreError> {
                reader.seek(SeekFrom::Start(pos)).map_err(StoreError::Io)?;
                let frame = SectionFrame::read_expecting(&mut reader, tag, what)?;
                if frame.payload_len != expected_len {
                    return Err(StoreError::Corrupt(format!(
                        "{what} section declares {} bytes, expected {expected_len}",
                        frame.payload_len
                    )));
                }
                let payload_pos = pos + SECTION_FRAME_LEN as u64;
                pos = payload_pos + frame.payload_len;
                if pos > file_len {
                    return Err(StoreError::Truncated { what });
                }
                Ok(SectionAt { frame, payload_pos })
            };

        let layout = if header.version == VERSION {
            let degrees = section(TAG_DEGREES, "degrees", 4 * n)?;
            let edges = section(TAG_EDGES, "edges", 8 * m)?;
            Layout::V1 { degrees, edges }
        } else {
            let offsets = section(TAG_OFFSETS, "offsets", 8 * (n + 1))?;
            let adj_vertex = section(TAG_ADJ_VERTEX, "adjacency vertices", 8 * m)?;
            let adj_edge = section(TAG_ADJ_EDGE, "adjacency edges", 8 * m)?;
            let edges = section(TAG_EDGES, "edges", 8 * m)?;
            Layout::V2 {
                offsets,
                adj_vertex,
                adj_edge,
                edges,
            }
        };
        let original_ids = if header.has_original_ids {
            Some(section(TAG_ORIGINAL_IDS, "original ids", 8 * n)?)
        } else {
            None
        };

        Ok(StoreReader {
            path: path.to_path_buf(),
            header,
            layout,
            original_ids,
        })
    }

    /// The decoded file header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The on-disk format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.header.version
    }

    /// The path this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Name, size, and checksum of every section, in file order.
    pub fn section_infos(&self) -> Vec<SectionInfo> {
        let info = |at: &SectionAt| SectionInfo {
            name: tag_name(at.frame.tag),
            payload_len: at.frame.payload_len,
            checksum: at.frame.checksum,
            payload_pos: at.payload_pos,
        };
        let mut out = match &self.layout {
            Layout::V1 { degrees, edges } => vec![info(degrees), info(edges)],
            Layout::V2 {
                offsets,
                adj_vertex,
                adj_edge,
                edges,
            } => vec![info(offsets), info(adj_vertex), info(adj_edge), info(edges)],
        };
        if let Some(oids) = &self.original_ids {
            out.push(info(oids));
        }
        out
    }

    /// A fresh section hasher matching this file's format version.
    pub(crate) fn section_hasher(&self) -> SectionHasher {
        SectionHasher::for_version(self.header.version)
    }

    /// Reads and checksums per-vertex degrees: the `DEGS` section of a v1
    /// file, or consecutive differences of the `OFFS` array of a v2 file.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] or I/O/truncation errors.
    pub fn read_degrees(&self) -> Result<Vec<u32>, StoreError> {
        match &self.layout {
            Layout::V1 { degrees, .. } => {
                let mut reader = self.reader_at(degrees.payload_pos)?;
                let n = self.header.num_vertices as usize;
                let mut out = Vec::with_capacity(n);
                let mut checksum = self.section_hasher();
                let mut remaining = n;
                let mut buf = vec![0u8; 4 * CHUNK_EDGES.min(n.max(1))];
                while remaining > 0 {
                    let take = remaining.min(CHUNK_EDGES);
                    let bytes = &mut buf[..4 * take];
                    read_exact_or_truncated(&mut reader, bytes, "degrees")?;
                    checksum.update(bytes);
                    for chunk in bytes.chunks_exact(4) {
                        out.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
                    }
                    remaining -= take;
                }
                self.check(&degrees.frame, checksum.value(), "degrees")?;
                Ok(out)
            }
            Layout::V2 { offsets, .. } => {
                let mut reader = self.reader_at(offsets.payload_pos)?;
                let n = self.header.num_vertices as usize;
                let mut out = Vec::with_capacity(n);
                let mut checksum = self.section_hasher();
                let mut remaining = n + 1;
                let mut prev: Option<u64> = None;
                let mut buf = vec![0u8; 8 * CHUNK_EDGES.min(n + 1)];
                while remaining > 0 {
                    let take = remaining.min(CHUNK_EDGES);
                    let bytes = &mut buf[..8 * take];
                    read_exact_or_truncated(&mut reader, bytes, "offsets")?;
                    checksum.update(bytes);
                    for chunk in bytes.chunks_exact(8) {
                        let off = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                        if let Some(p) = prev {
                            let degree = off.checked_sub(p).ok_or_else(|| {
                                StoreError::Corrupt(format!(
                                    "offsets section not monotone: {p} then {off}"
                                ))
                            })?;
                            out.push(degree as u32);
                        }
                        prev = Some(off);
                    }
                    remaining -= take;
                }
                self.check(&offsets.frame, checksum.value(), "offsets")?;
                Ok(out)
            }
        }
    }

    /// Reads the whole store back into memory: edge blocks are read in
    /// bounded chunks, validated (canonical order, endpoint bounds, no
    /// self-loops), checksummed, cross-checked against the per-vertex
    /// degrees, and reassembled into a [`CsrGraph`] bit-identical to the
    /// one written. Works on both format versions; for the zero-copy v2
    /// open path see [`crate::GraphBuf`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] variant matching the defect found.
    pub fn read_graph(&self) -> Result<StoredGraph, StoreError> {
        let n = self.header.num_vertices as usize;
        let m = self.header.num_edges as usize;
        let stored_degrees = self.read_degrees()?;

        let edges_at = self.edges_at();
        let mut reader = self.reader_at(edges_at.payload_pos)?;
        let mut edges: Vec<Edge> = Vec::with_capacity(m);
        let mut checksum = self.section_hasher();
        let mut remaining = m;
        let mut buf = vec![0u8; 8 * CHUNK_EDGES.min(m.max(1))];
        while remaining > 0 {
            let take = remaining.min(CHUNK_EDGES);
            let bytes = &mut buf[..8 * take];
            read_exact_or_truncated(&mut reader, bytes, "edges")?;
            checksum.update(bytes);
            // Validation (canonical form, bounds, strict order) happens once,
            // in `from_sorted_canonical_edges` below, after the checksum gate.
            for pair in bytes.chunks_exact(8) {
                let u = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
                let v = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
                edges.push(Edge::new(u, v));
            }
            remaining -= take;
        }
        self.check(&edges_at.frame, checksum.value(), "edges")?;

        let graph = CsrGraph::from_sorted_canonical_edges(n, edges)?;
        for (v, &stored) in stored_degrees.iter().enumerate() {
            let actual = graph.degree(v as VertexId) as u32;
            if actual != stored {
                return Err(StoreError::Corrupt(format!(
                    "degree section disagrees with edge blocks at vertex {v}: \
                     stored {stored}, edges imply {actual}"
                )));
            }
        }

        let original_ids = self.read_original_ids()?;

        Ok(StoredGraph {
            graph,
            original_ids,
        })
    }

    /// Reads and checksums the optional original-ids section.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] or I/O/truncation errors.
    pub(crate) fn read_original_ids(&self) -> Result<Option<Vec<u64>>, StoreError> {
        let n = self.header.num_vertices as usize;
        match &self.original_ids {
            None => Ok(None),
            Some(section) => {
                let mut reader = self.reader_at(section.payload_pos)?;
                let mut ids = Vec::with_capacity(n);
                let mut checksum = self.section_hasher();
                let mut remaining = n;
                let mut buf = vec![0u8; 8 * CHUNK_EDGES.min(n.max(1))];
                while remaining > 0 {
                    let take = remaining.min(CHUNK_EDGES);
                    let bytes = &mut buf[..8 * take];
                    read_exact_or_truncated(&mut reader, bytes, "original ids")?;
                    checksum.update(bytes);
                    for chunk in bytes.chunks_exact(8) {
                        ids.push(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
                    }
                    remaining -= take;
                }
                self.check(&section.frame, checksum.value(), "original ids")?;
                Ok(Some(ids))
            }
        }
    }

    /// A fresh buffered reader positioned at `pos` in the store file.
    pub(crate) fn reader_at(&self, pos: u64) -> Result<BufReader<FaultFile>, StoreError> {
        let mut reader = BufReader::new(FaultFile::open(&self.path).map_err(StoreError::Io)?);
        reader.seek(SeekFrom::Start(pos)).map_err(StoreError::Io)?;
        Ok(reader)
    }

    /// Location of the canonical edge-pair section (shared by v1 and v2).
    pub(crate) fn edges_at(&self) -> SectionAt {
        match self.layout {
            Layout::V1 { edges, .. } => edges,
            Layout::V2 { edges, .. } => edges,
        }
    }

    /// Byte offset of the edge payload (for streaming readers).
    pub(crate) fn edges_payload_pos(&self) -> u64 {
        self.edges_at().payload_pos
    }

    /// Declared checksum of the edge payload (for streaming readers).
    pub(crate) fn edges_checksum(&self) -> u64 {
        self.edges_at().frame.checksum
    }

    pub(crate) fn check(
        &self,
        frame: &SectionFrame,
        actual: u64,
        section: &'static str,
    ) -> Result<(), StoreError> {
        if frame.checksum != actual {
            return Err(StoreError::ChecksumMismatch {
                section,
                expected: frame.checksum,
                actual,
            });
        }
        Ok(())
    }
}

/// Decodes and validates one edge against canonical-form invariants.
pub(crate) fn decode_edge(
    u: u32,
    v: u32,
    num_vertices: usize,
    prev: Option<Edge>,
) -> Result<Edge, StoreError> {
    if u > v {
        return Err(StoreError::Corrupt(format!(
            "edge ({u}, {v}) is not in canonical (u <= v) form"
        )));
    }
    if u == v {
        return Err(StoreError::Corrupt(format!(
            "self-loop ({u}, {v}) in edge block"
        )));
    }
    if v as usize >= num_vertices {
        return Err(StoreError::Corrupt(format!(
            "edge ({u}, {v}) endpoint out of range (num_vertices = {num_vertices})"
        )));
    }
    let edge = Edge::new(u, v);
    if let Some(p) = prev {
        if p >= edge {
            return Err(StoreError::Corrupt(format!(
                "edge block out of order: {p:?} then {edge:?}"
            )));
        }
    }
    Ok(edge)
}
