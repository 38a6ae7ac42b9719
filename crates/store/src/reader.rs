//! Reading `.tlpg` binary graph files (v1 and v2): [`StoreReader::open`]
//! walks the section table without reading payloads, and every later
//! section read goes through one chunked read-and-verify routine.

use crate::faults::FaultFile;
use crate::format::{
    check_checksum, edge_pairs, le_u32, le_u64, read_exact_or_truncated, tag_name, walk_sections,
    FrameBytes, Header, Section, SectionAt, SectionHasher, SectionSource, CHUNK_EDGES, HEADER_LEN,
    SECTION_FRAME_LEN, VERSION,
};
use crate::StoreError;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use tlp_graph::{CsrGraph, Edge, VertexId};

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

/// Opens `path` and reads its validated header: the start every graph
/// reader shares, so a dispatching caller reads the header only once.
pub(crate) fn open_header(path: &Path) -> Result<(FaultFile, Header), StoreError> {
    let mut file = FaultFile::open(path).map_err(StoreError::Io)?;
    let mut bytes = [0u8; HEADER_LEN];
    read_exact_or_truncated(&mut file, &mut bytes, "header")?;
    Ok((file, Header::decode(&bytes)?))
}

/// The reader's walk reads only the frames, seeking to each one.
impl SectionSource for BufReader<FaultFile> {
    fn frame(&mut self, pos: u64, what: &'static str) -> Result<FrameBytes, StoreError> {
        self.seek(SeekFrom::Start(pos)).map_err(StoreError::Io)?;
        let mut bytes = [0u8; SECTION_FRAME_LEN];
        read_exact_or_truncated(self, &mut bytes, what)?;
        Ok(bytes)
    }
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
/// let graph = reader.read_graph()?;
/// println!("{} edges", graph.num_edges());
/// # Ok::<(), tlp_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct StoreReader {
    path: PathBuf,
    header: Header,
    sections: Vec<SectionAt>,
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
        let (file, header) = open_header(path)?;
        StoreReader::with_header(path, file, header)
    }

    /// Finishes [`StoreReader::open`] on a file whose header `open_header`
    /// has already read.
    pub(crate) fn with_header(
        path: &Path,
        file: FaultFile,
        header: Header,
    ) -> Result<StoreReader, StoreError> {
        let file_len = file.metadata().map_err(StoreError::Io)?.len();
        let sections = walk_sections(&header, file_len, &mut BufReader::new(file))?;
        Ok(StoreReader {
            path: path.to_path_buf(),
            header,
            sections,
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
        self.sections
            .iter()
            .map(|at| SectionInfo {
                name: tag_name(at.frame.tag),
                payload_len: at.frame.payload_len,
                checksum: at.frame.checksum,
                payload_pos: at.payload_pos,
            })
            .collect()
    }

    /// Where `section` lives, if this file has it.
    pub(crate) fn find(&self, section: Section) -> Option<&SectionAt> {
        self.sections.iter().find(|at| at.section == section)
    }

    /// The one chunked read of a section payload: reads `section` in reads
    /// of at most `chunk_bytes` (a short file is `Truncated { what }`),
    /// folds each chunk into the checksum, hands it to `visit`, and
    /// verifies the checksum before returning `Ok` — so output a caller
    /// still holds back never comes from an unverified payload.
    pub(crate) fn read_section(
        &self,
        section: Section,
        chunk_bytes: usize,
        what: &'static str,
        mut visit: impl FnMut(&[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let at = self
            .find(section)
            .expect("callers read only sections the header declares");
        let mut reader = BufReader::new(FaultFile::open(&self.path).map_err(StoreError::Io)?);
        reader
            .seek(SeekFrom::Start(at.payload_pos))
            .map_err(StoreError::Io)?;
        let mut hasher = SectionHasher::for_version(self.header.version);
        let mut remaining = at.frame.payload_len as usize;
        let mut buf = vec![0u8; chunk_bytes.min(remaining)];
        while remaining > 0 {
            let bytes = &mut buf[..chunk_bytes.min(remaining)];
            read_exact_or_truncated(&mut reader, bytes, what)?;
            hasher.update(bytes);
            visit(bytes)?;
            remaining -= bytes.len();
        }
        check_checksum(section.what(), at.frame.checksum, hasher.value())
    }

    /// Reads and checksums per-vertex degrees: the `DEGS` section of a v1
    /// file, or consecutive differences of the `OFFS` array of a v2 file.
    ///
    /// The section is checked against the header, in O(n) and with no
    /// extra read: the degrees must sum to `2m`, and `OFFS` must start at
    /// 0, never decrease, end at `2m`, and have every gap fit a `u32`. A
    /// corruption that preserves those (say, one offset shifted between
    /// two vertices) is caught only by the cross-check against `EDGE` in
    /// [`StoreReader::read_graph`].
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`], [`StoreError::Corrupt`] when the
    /// section disagrees with the header, or I/O/truncation errors.
    pub fn read_degrees(&self) -> Result<Vec<u32>, StoreError> {
        let mut degrees = Vec::with_capacity(self.header.num_vertices as usize);
        let section = if self.header.version == VERSION {
            self.read_section(Section::Degrees, 4 * CHUNK_EDGES, "degrees", |bytes| {
                degrees.extend(bytes.chunks_exact(4).map(|d| le_u32(d, 0)));
                Ok(())
            })?;
            Section::Degrees
        } else {
            let mut prev: Option<u64> = None;
            self.read_section(Section::Offsets, 8 * CHUNK_EDGES, "offsets", |bytes| {
                for off in bytes.chunks_exact(8).map(|word| le_u64(word, 0)) {
                    let Some(p) = prev.replace(off) else {
                        if off != 0 {
                            let message = format!("offsets section starts at {off}, not 0");
                            return Err(StoreError::Corrupt(message));
                        }
                        continue;
                    };
                    let gap = off.checked_sub(p).ok_or_else(|| {
                        StoreError::Corrupt(format!("offsets section not monotone: {p} then {off}"))
                    })?;
                    let degree = u32::try_from(gap).map_err(|_| {
                        let v = degrees.len();
                        StoreError::Corrupt(format!(
                            "offsets section gives vertex {v} degree {gap}"
                        ))
                    })?;
                    degrees.push(degree);
                }
                Ok(())
            })?;
            Section::Offsets
        };
        // With OFFS[0] = 0 and no gap truncated, the degrees sum to OFFS[n].
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        let arcs = self.header.num_edges.saturating_mul(2);
        if total != arcs {
            return Err(StoreError::Corrupt(format!(
                "{} section implies {total} arcs, header implies 2m = {arcs}",
                section.what()
            )));
        }
        Ok(degrees)
    }

    /// Reads the graph back into memory: edge blocks are read in bounded
    /// chunks, validated (canonical order, endpoint bounds, no
    /// self-loops), checksummed, cross-checked against the per-vertex
    /// degrees, and reassembled into a [`CsrGraph`] bit-identical to the
    /// one written. Works on both format versions; for the zero-copy v2
    /// open path see [`crate::GraphBuf`], and for the original ids
    /// [`StoreReader::read_original_ids`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] variant matching the defect found.
    pub fn read_graph(&self) -> Result<CsrGraph, StoreError> {
        let n = self.header.num_vertices as usize;
        let stored_degrees = self.read_degrees()?;

        let mut edges: Vec<Edge> = Vec::with_capacity(self.header.num_edges as usize);
        // Validation (canonical form, bounds, strict order) happens once,
        // in `from_sorted_canonical_edges` below, after the checksum gate.
        self.read_section(Section::Edges, 8 * CHUNK_EDGES, "edges", |bytes| {
            edges.extend(edge_pairs(bytes).map(|(u, v)| Edge::new(u, v)));
            Ok(())
        })?;

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
        Ok(graph)
    }

    /// Reads and checksums the optional original-ids section
    /// (`original_ids[v]` = id of `v` in the text source); `None` when the
    /// file carries none.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] or I/O/truncation errors.
    pub fn read_original_ids(&self) -> Result<Option<Vec<u64>>, StoreError> {
        if !self.header.has_original_ids {
            return Ok(None);
        }
        let mut ids = Vec::with_capacity(self.header.num_vertices as usize);
        let oids = Section::OriginalIds;
        self.read_section(oids, 8 * CHUNK_EDGES, oids.what(), |bytes| {
            ids.extend(bytes.chunks_exact(8).map(|id| le_u64(id, 0)));
            Ok(())
        })?;
        Ok(Some(ids))
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
