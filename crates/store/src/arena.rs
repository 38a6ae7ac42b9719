//! Zero-copy arena for `.tlpg` v2 files: [`GraphBuf`].
//!
//! A v2 file embeds the CSR arrays verbatim, 8-byte-aligned. `GraphBuf`
//! opens such a file with **one streaming pass** into an 8-byte-aligned
//! arena (a `Vec<u64>` viewed as bytes): the file is read in cache-sized
//! chunks and each section checksum folds over the chunk just read while
//! it is still hot, so the data is swept exactly once. Header, section
//! framing, and per-section checksums are all validated during that pass;
//! afterwards `GraphBuf` lends [`GraphView`]s that borrow the arena
//! directly — no per-edge decode, no CSR construction, no copies.
//!
//! Structural validation of the CSR arrays (offset monotonicity, parallel
//! array lengths, edge-table shape) runs exactly once at open via
//! [`GraphView::from_sections`]; subsequent [`GraphBuf::view`] calls
//! re-slice the arena through the trusted constructor in O(1).
//!
//! The cast from arena bytes to `u64`/`u32` slices assumes a little-endian
//! host (asserted in the vendored `bytemuck` tests); the write path stays
//! portable via explicit little-endian encoding.

use crate::faults::FaultFile;
use crate::format::{
    read_exact_or_truncated, Header, SectionFrame, SectionHasher, HEADER_LEN, SECTION_FRAME_LEN,
    TAG_ADJ_EDGE, TAG_ADJ_VERTEX, TAG_EDGES, TAG_OFFSETS, TAG_ORIGINAL_IDS, VERSION_V2,
};
use crate::StoreError;
use std::ops::Range;
use std::path::{Path, PathBuf};
use tlp_graph::{EdgeTable, GraphView};

/// Bytes appended to the arena per read while streaming a section in.
/// Sized to stay L2-resident so the checksum of each chunk runs over
/// cache-hot data instead of re-sweeping the arena from DRAM; must be a
/// multiple of 64 so chunk boundaries land on whole checksum blocks.
const STREAM_CHUNK: usize = 256 << 10;

/// Zero-extends `storage` through byte `upto` and fills the new bytes
/// from `file`. The incremental zeroing is deliberate: it replaces one
/// arena-wide memset with per-chunk clears of memory the following read
/// immediately overwrites while it is still in cache.
fn fetch(
    storage: &mut Vec<u64>,
    file: &mut FaultFile,
    upto: usize,
    what: &'static str,
) -> Result<(), StoreError> {
    debug_assert!(
        upto.is_multiple_of(8),
        "section boundaries are word-aligned"
    );
    let from = storage.len() * 8;
    storage.resize(upto / 8, 0);
    let bytes = bytemuck::cast_slice_mut::<u64, u8>(storage);
    read_exact_or_truncated(file, &mut bytes[from..upto], what)
}

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
        let mut file = FaultFile::open(path).map_err(StoreError::Io)?;
        let file_len = file.metadata().map_err(StoreError::Io)?.len() as usize;
        if file_len < HEADER_LEN {
            return Err(StoreError::Truncated { what: "header" });
        }

        // The arena grows in cache-sized chunks as the file streams in,
        // and each section checksum folds over the chunk just read while
        // it is still cache-hot — one pass over the data, no arena-wide
        // memset, no second checksum sweep from DRAM.
        let mut storage: Vec<u64> = Vec::with_capacity(file_len.div_ceil(8));
        fetch(&mut storage, &mut file, HEADER_LEN, "header")?;
        let mut header_bytes = [0u8; HEADER_LEN];
        header_bytes.copy_from_slice(&bytemuck::cast_slice::<u64, u8>(&storage)[..HEADER_LEN]);
        let header = Header::decode(&header_bytes)?;
        if header.version != VERSION_V2 {
            return Err(StoreError::Corrupt(format!(
                "arena open requires format v2, file is v{} (use StoreReader)",
                header.version
            )));
        }

        let n = header.num_vertices;
        let m = header.num_edges;
        let mut pos = HEADER_LEN;
        let mut section = |storage: &mut Vec<u64>,
                           file: &mut FaultFile,
                           tag: u32,
                           what: &'static str,
                           expected_len: u64|
         -> Result<Range<usize>, StoreError> {
            if pos + SECTION_FRAME_LEN > file_len {
                return Err(StoreError::Truncated { what });
            }
            fetch(storage, file, pos + SECTION_FRAME_LEN, what)?;
            let bytes = bytemuck::cast_slice::<u64, u8>(storage.as_slice());
            let mut frame_bytes = &bytes[pos..pos + SECTION_FRAME_LEN];
            let frame = SectionFrame::read_expecting(&mut frame_bytes, tag, what)?;
            if frame.payload_len != expected_len {
                return Err(StoreError::Corrupt(format!(
                    "{what} section declares {} bytes, expected {expected_len}",
                    frame.payload_len
                )));
            }
            let start = pos + SECTION_FRAME_LEN;
            let end = start + frame.payload_len as usize;
            if end > file_len {
                return Err(StoreError::Truncated { what });
            }
            // Fold each chunk into the section checksum right after it
            // lands in the arena, while it is still cache-hot.
            let mut hasher = SectionHasher::for_version(VERSION_V2);
            let mut cur = start;
            while cur < end {
                let next = (cur + STREAM_CHUNK).min(end);
                fetch(storage, file, next, what)?;
                hasher.update(&bytemuck::cast_slice::<u64, u8>(storage.as_slice())[cur..next]);
                cur = next;
            }
            let actual = hasher.value();
            if actual != frame.checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: what,
                    expected: frame.checksum,
                    actual,
                });
            }
            pos = end;
            Ok(start..end)
        };

        let offsets = section(&mut storage, &mut file, TAG_OFFSETS, "offsets", 8 * (n + 1))?;
        let adj_vertex = section(
            &mut storage,
            &mut file,
            TAG_ADJ_VERTEX,
            "adjacency vertices",
            8 * m,
        )?;
        let adj_edge = section(
            &mut storage,
            &mut file,
            TAG_ADJ_EDGE,
            "adjacency edges",
            8 * m,
        )?;
        let edges = section(&mut storage, &mut file, TAG_EDGES, "edges", 8 * m)?;
        let original_ids = if header.has_original_ids {
            Some(section(
                &mut storage,
                &mut file,
                TAG_ORIGINAL_IDS,
                "original ids",
                8 * n,
            )?)
        } else {
            None
        };
        drop(file);

        let buf = GraphBuf {
            storage,
            path: path.to_path_buf(),
            header,
            offsets,
            adj_vertex,
            adj_edge,
            edges,
            original_ids,
        };
        // Structural validation of the CSR arrays, exactly once; later
        // `view()` calls go through the trusted constructor.
        GraphView::from_sections(
            buf.offsets_slice(),
            buf.adj_vertex_slice(),
            buf.adj_edge_slice(),
            EdgeTable::Pairs(buf.edges_slice()),
        )
        .map_err(|e| StoreError::Corrupt(format!("embedded CSR is inconsistent: {e}")))?;
        Ok(buf)
    }

    fn bytes(&self) -> &[u8] {
        bytemuck::cast_slice::<u64, u8>(&self.storage)
    }

    fn offsets_slice(&self) -> &[u64] {
        bytemuck::cast_slice(&self.bytes()[self.offsets.clone()])
    }

    fn adj_vertex_slice(&self) -> &[u32] {
        bytemuck::cast_slice(&self.bytes()[self.adj_vertex.clone()])
    }

    fn adj_edge_slice(&self) -> &[u32] {
        bytemuck::cast_slice(&self.bytes()[self.adj_edge.clone()])
    }

    fn edges_slice(&self) -> &[u32] {
        bytemuck::cast_slice(&self.bytes()[self.edges.clone()])
    }

    /// Lends a [`GraphView`] borrowing the arena directly. O(1): no
    /// validation, no decoding, no allocation.
    pub fn view(&self) -> GraphView<'_> {
        GraphView::from_sections_trusted(
            self.offsets_slice(),
            self.adj_vertex_slice(),
            self.adj_edge_slice(),
            EdgeTable::Pairs(self.edges_slice()),
        )
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
        self.original_ids
            .clone()
            .map(|r| bytemuck::cast_slice(&self.bytes()[r]))
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
        assert_eq!(view.edge_iter().collect::<Vec<_>>(), g.edges().to_vec());
        assert!(buf.original_ids().is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn arena_preserves_original_ids() {
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
