//! Zero-copy arena for `.tlpg` v2 files: [`GraphBuf`].
//!
//! A v2 file embeds the CSR arrays verbatim, 8-byte-aligned. `GraphBuf`
//! opens such a file with **one streaming pass** into an 8-byte-aligned
//! arena (a `Vec<u64>` viewed as bytes): it walks the same section table
//! as [`crate::StoreReader`], reading the file in cache-sized chunks, and
//! each section checksum folds over the chunk just read while it is still
//! hot, so the data is swept exactly once. Header, section framing, and
//! per-section checksums are all validated during that pass; afterwards
//! `GraphBuf` lends [`GraphView`]s that borrow the arena directly — no
//! per-edge decode, no CSR construction, no copies.
//!
//! Ids are range-checked in the same pass: every `ADJV` and `EDGE` entry
//! must be a vertex id `< n` and every `ADJE` entry an edge id `< m`, so
//! the triangle table, the engine and the placers can index by them. The
//! maximum of each chunk is folded while it is hot and judged once the
//! section's checksum has passed, so damaged bytes still report as a
//! checksum mismatch and consistent-but-invalid ids as
//! [`StoreError::Corrupt`]. Structural validation of the CSR arrays runs
//! exactly once at open via [`GraphView::from_sections`]; subsequent
//! [`GraphBuf::view`] calls re-slice the arena through the trusted
//! constructor in O(1). That validation checks shape (offsets start at 0,
//! never decrease and end at `2m`; the parallel arrays have equal lengths;
//! `EDGE` holds `m` pairs).
//!
//! The cast from arena bytes to `u64`/`u32` slices assumes a little-endian
//! host (asserted in the vendored `bytemuck` tests); the write path stays
//! portable via explicit little-endian encoding.

use crate::faults::FaultFile;
use crate::format::{
    check_checksum, read_exact_or_truncated, walk_sections, FrameBytes, Header, Section, SectionAt,
    SectionHasher, SectionSource, HEADER_LEN, SECTION_FRAME_LEN, VERSION_V2,
};
use crate::reader::open_header;
use crate::StoreError;
use std::ops::Range;
use std::path::{Path, PathBuf};
use tlp_graph::{GraphView, VertexId};

/// Bytes appended to the arena per read while streaming a section in.
/// Sized to stay L2-resident so the checksum of each chunk runs over
/// cache-hot data instead of re-sweeping the arena from DRAM; must be a
/// multiple of 64 so chunk boundaries land on whole checksum blocks.
const STREAM_CHUNK: usize = 256 << 10;

/// The arena while the file streams into it.
struct Fill {
    storage: Vec<u64>,
    file: FaultFile,
    /// `(n, m)` from the header: the exclusive bounds of vertex and edge ids.
    ids: (u64, u64),
}

impl Fill {
    /// Zero-extends the arena through byte `upto` and fills the new bytes
    /// from the file. The incremental zeroing is deliberate: it replaces
    /// one arena-wide memset with per-chunk clears of memory the following
    /// read immediately overwrites while it is still in cache.
    fn fetch(&mut self, upto: usize, what: &'static str) -> Result<&[u8], StoreError> {
        debug_assert!(
            upto.is_multiple_of(8),
            "section boundaries are word-aligned"
        );
        let from = self.storage.len() * 8;
        self.storage.resize(upto / 8, 0);
        let bytes = bytemuck::cast_slice_mut::<u64, u8>(&mut self.storage);
        read_exact_or_truncated(&mut self.file, &mut bytes[from..upto], what)?;
        Ok(&bytes[from..upto])
    }
}

/// The arena's walk reads every payload as it goes, folding each chunk
/// into the section checksum right after it lands, while it is still
/// cache-hot.
impl SectionSource for Fill {
    fn frame(&mut self, pos: u64, what: &'static str) -> Result<FrameBytes, StoreError> {
        let bytes = self.fetch(pos as usize + SECTION_FRAME_LEN, what)?;
        Ok(bytes.try_into().expect("one frame"))
    }

    fn payload(&mut self, at: &SectionAt) -> Result<(), StoreError> {
        let what = at.section.what();
        let bound = match at.section {
            Section::AdjVertex | Section::Edges => Some(self.ids.0),
            Section::AdjEdge => Some(self.ids.1),
            _ => None,
        };
        let mut hasher = SectionHasher::for_version(VERSION_V2);
        let mut bad_id = None;
        let Range { start, end } = at.payload();
        let mut cur = start;
        while cur < end {
            let next = (cur + STREAM_CHUNK).min(end);
            let chunk = self.fetch(next, what)?;
            hasher.update(chunk);
            if let (Some(bound), None) = (bound, bad_id) {
                bad_id = first_out_of_range(bytemuck::cast_slice(chunk), bound);
            }
            cur = next;
        }
        check_checksum(what, at.frame.checksum, hasher.value())?;
        match (bound, bad_id) {
            (Some(bound), Some(id)) => Err(StoreError::Corrupt(format!(
                "{what} section holds id {id}, out of range for {bound} ids"
            ))),
            _ => Ok(()),
        }
    }
}

/// The first id in `ids` that is `>= bound`, if any. The common all-valid
/// case is one branch-free pass, which vectorizes; only a chunk known to
/// hold a bad id is searched.
fn first_out_of_range(ids: &[u32], bound: u64) -> Option<u32> {
    let bound = u32::try_from(bound).ok()?;
    if !ids.iter().fold(false, |out, &id| out | (id >= bound)) {
        return None;
    }
    ids.iter().copied().find(|&id| id >= bound)
}

/// The four CSR sections a [`GraphView`] borrows: offsets, neighbor ids,
/// arc edge ids and `(u, v)` edge pairs.
type CsrSections<'a> = (&'a [u64], &'a [u32], &'a [u32], &'a [[VertexId; 2]]);

/// An owned, aligned, checksum-verified arena holding a `.tlpg` v2 file.
///
/// # Example
///
/// ```no_run
/// use tlp_store::GraphBuf;
///
/// let buf = GraphBuf::open("graph.tlpg".as_ref())?;
/// let view = buf.view();
/// println!("{} edges", view.num_edges());
/// # Ok::<(), tlp_store::StoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuf {
    /// Backing storage as `u64` words so the base address is 8-aligned;
    /// every v2 payload starts at a multiple of 8 within it.
    storage: Vec<u64>,
    path: PathBuf,
    header: Header,
    offsets: Range<usize>,
    adj_vertex: Range<usize>,
    adj_edge: Range<usize>,
    edges: Range<usize>,
    original_ids: Option<Range<usize>>,
}

impl GraphBuf {
    /// Opens a v2 store file as a zero-copy arena.
    ///
    /// Streams the whole file into the arena in one pass, validating the
    /// header, section framing, per-section checksums, and the CSR
    /// structure as the bytes arrive. After `open` succeeds,
    /// [`view`](Self::view) is O(1).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] variant matching the defect found; a v1 file is
    /// rejected with [`StoreError::Corrupt`] (open v1 files through
    /// [`crate::StoreReader`] or [`crate::LoadedGraph`] instead).
    pub fn open(path: &Path) -> Result<GraphBuf, StoreError> {
        let (file, header) = open_header(path)?;
        GraphBuf::with_header(path, file, header)
    }

    /// Finishes [`GraphBuf::open`] on a file whose header `open_header`
    /// has already read.
    pub(crate) fn with_header(
        path: &Path,
        file: FaultFile,
        header: Header,
    ) -> Result<GraphBuf, StoreError> {
        if header.version != VERSION_V2 {
            return Err(StoreError::Corrupt(format!(
                "arena open requires format v2, file is v{} (use StoreReader)",
                header.version
            )));
        }
        let file_len = file.metadata().map_err(StoreError::Io)?.len();
        // The arena grows in cache-sized chunks as the file streams in —
        // one pass over the data, no arena-wide memset, no second checksum
        // sweep from DRAM. The header was decoded already, so its words
        // stay zero.
        let mut storage = Vec::with_capacity((file_len as usize).div_ceil(8));
        storage.resize(HEADER_LEN / 8, 0);
        let mut fill = Fill {
            storage,
            file,
            ids: (header.num_vertices, header.num_edges),
        };
        let sections = walk_sections(&header, file_len, &mut fill)?;
        let range = |section| Some(sections.iter().find(|at| at.section == section)?.payload());
        let csr = |section| range(section).expect("every v2 file has the CSR sections");
        let buf = GraphBuf {
            path: path.to_path_buf(),
            header,
            offsets: csr(Section::Offsets),
            adj_vertex: csr(Section::AdjVertex),
            adj_edge: csr(Section::AdjEdge),
            edges: csr(Section::Edges),
            original_ids: range(Section::OriginalIds),
            storage: fill.storage,
        };
        // Structural validation of the CSR arrays, exactly once; later
        // `view()` calls go through the trusted constructor.
        let (offsets, adj_vertex, adj_edge, edges) = buf.csr();
        GraphView::from_sections(offsets, adj_vertex, adj_edge, edges)
            .map_err(|e| StoreError::Corrupt(format!("embedded CSR is inconsistent: {e}")))?;
        Ok(buf)
    }

    /// The arena bytes in `range`, cast to `T`.
    fn slice<T: bytemuck::Pod>(&self, range: &Range<usize>) -> &[T] {
        bytemuck::cast_slice(&bytemuck::cast_slice::<u64, u8>(&self.storage)[range.clone()])
    }

    /// The CSR sections in the order [`GraphView`]'s constructors take.
    /// `EDGE` is `8m` bytes (the section walk checks every length), so it
    /// splits into whole `(u, v)` pairs.
    fn csr(&self) -> CsrSections<'_> {
        let edges = self.slice::<u32>(&self.edges).as_chunks().0;
        let (offsets, adj_vertex) = (self.slice(&self.offsets), self.slice(&self.adj_vertex));
        (offsets, adj_vertex, self.slice(&self.adj_edge), edges)
    }

    /// Lends a [`GraphView`] borrowing the arena directly. O(1): no
    /// validation, no decoding, no allocation.
    pub fn view(&self) -> GraphView<'_> {
        let (offsets, adj_vertex, adj_edge, edges) = self.csr();
        GraphView::from_sections_trusted(offsets, adj_vertex, adj_edge, edges)
    }

    /// The decoded file header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The path this arena was read from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Original vertex ids (`original_ids[v]` = id of `v` in the text
    /// source), when the file carries them — borrowed from the arena.
    pub fn original_ids(&self) -> Option<&[u64]> {
        self.original_ids.as_ref().map(|range| self.slice(range))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::format::FormatVersion;
    use crate::writer::{write_graph, WriteOptions};
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2)])
            .build()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-arena-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("g.tlpg")
    }

    #[test]
    fn arena_view_matches_written_graph() {
        let _guard = crate::faults::test_lock();
        let g = graph();
        let path = tmp("match");
        write_graph(&path, &g, &WriteOptions::default()).unwrap();
        let buf = GraphBuf::open(&path).unwrap();
        let view = buf.view();
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(view.neighbors(v), g.neighbors(v));
            assert_eq!(
                view.incident(v).collect::<Vec<_>>(),
                g.incident(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(view, g.view());
        assert!(buf.original_ids().is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn arena_preserves_original_ids() {
        let _guard = crate::faults::test_lock();
        let g = graph();
        let ids: Vec<u64> = (0..g.num_vertices() as u64).map(|v| v * 10 + 7).collect();
        let path = tmp("oids");
        let options = WriteOptions {
            original_ids: Some(ids.clone()),
            ..WriteOptions::default()
        };
        write_graph(&path, &g, &options).unwrap();
        let buf = GraphBuf::open(&path).unwrap();
        assert_eq!(buf.original_ids().unwrap(), ids.as_slice());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn arena_rejects_v1_files() {
        let _guard = crate::faults::test_lock();
        let g = graph();
        let path = tmp("v1");
        let options = WriteOptions {
            version: FormatVersion::V1,
            ..WriteOptions::default()
        };
        write_graph(&path, &g, &options).unwrap();
        let err = GraphBuf::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn arena_detects_bit_flips_in_every_section() {
        let _guard = crate::faults::test_lock();
        let g = graph();
        let path = tmp("flip");
        write_graph(&path, &g, &WriteOptions::default()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte in each section payload region and expect a
        // checksum mismatch (or structural rejection) every time.
        let mut pos = HEADER_LEN;
        let mut payloads = Vec::new();
        while pos + SECTION_FRAME_LEN <= pristine.len() {
            let len = u64::from_le_bytes(pristine[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let start = pos + SECTION_FRAME_LEN;
            if len > 0 {
                payloads.push(start);
            }
            pos = start + len;
        }
        assert!(payloads.len() >= 4);
        for &p in &payloads {
            let mut corrupt = pristine.clone();
            corrupt[p] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let err = GraphBuf::open(&path).unwrap_err();
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "byte {p}: {err:?}"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn arena_reports_truncation() {
        let _guard = crate::faults::test_lock();
        let g = graph();
        let path = tmp("trunc");
        write_graph(&path, &g, &WriteOptions::default()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for cut in [10, HEADER_LEN + 4, pristine.len() - 8] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let err = GraphBuf::open(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
