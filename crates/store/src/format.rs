//! The framing every `tlp-store` binary file shares — the `.tlpg` graph,
//! the checkpoint, the partition-store segments and the placement WAL —
//! and the `.tlpg` layout. Each file opens with an 8-byte magic, stores
//! little-endian fixed fields (`le_u32`/`le_u64`) and guards a byte range
//! with a checksum; `check_magic`, `checksummed`/`seal` and
//! `check_checksum` are the only code that raises [`StoreError::BadMagic`]
//! or [`StoreError::ChecksumMismatch`]. Each file keeps its own field
//! layout and checksum scope.
//!
//! # `.tlpg` layout (all integers little-endian)
//!
//! ```text
//! [ 0.. 8)  magic           b"TLPSTORE"
//! [ 8..12)  version         u32 (1 or 2)
//! [12..16)  flags           u32 (bit 0: original-ids section present)
//! [16..24)  num_vertices    u64
//! [24..32)  num_edges       u64
//! [32..40)  source_len      u64 (byte length of the text source, 0 = unknown)
//! [40..48)  source_mtime    u64 (mtime of the text source in unix seconds)
//! [48..56)  header_checksum u64 ([`Checksum`] over bytes [0..48))
//! ```
//!
//! followed by sections, each framed as
//!
//! ```text
//! tag u32 | reserved u32 | payload_len u64 | payload_checksum u64 | payload
//! ```
//!
//! Sections, order and lengths are one table per version (`Section`),
//! which the writer emits and every reader walks (`walk_sections`).
//! **Version 1**: `DEGS` (one `u32` degree per
//! vertex — the CSR offset array in delta form), `EDGE` (the canonical
//! sorted edge table, one `(u: u32, v: u32)` pair per undirected edge,
//! written and read in bounded-size chunks of [`CHUNK_EDGES`]), and
//! optionally `OIDS` (one `u64` original id per vertex, for graphs
//! densified from text files). Opening a v1 file decodes the edge table
//! and rebuilds the CSR arrays in memory.
//!
//! **Version 2** embeds the CSR arrays themselves so opening is one bulk
//! read plus checksum validation — zero per-edge decode, no CSR rebuild.
//! `OFFS` (`(n+1) × u64` vertex offsets — degrees are
//! derived by differencing, so `DEGS` is dropped), `ADJV` (`2m × u32`
//! neighbor ids, sorted ascending per vertex), `ADJE` (`2m × u32` arc edge
//! ids, parallel to `ADJV`), `EDGE` (identical payload to v1, which keeps
//! sequential streaming format-agnostic), and optionally `OIDS`. Every v2
//! payload length is a multiple of 8 and the header (56) plus frame (24)
//! bytes sum to 80, so **every v2 payload begins 8-byte-aligned** — the
//! invariant that lets a reader lend `u64`/`u32` slices straight out of
//! one aligned arena ([`crate::GraphBuf`]).
//!
//! Every section carries its own checksum so a single flipped byte
//! anywhere in the file is detected as a typed
//! [`StoreError::ChecksumMismatch`], never as a wrong answer. v1 sections
//! use [`Checksum`] (word-folded FNV-1a 64); v2 sections use
//! [`WideChecksum`] (eight interleaved rotate-add lanes), which drops the
//! serial multiply dependency chain entirely and checksums the much larger
//! embedded CSR payloads at memory bandwidth.
//! [`SectionHasher`] picks the right one for a file's version.

use crate::StoreError;
use std::io::Read;
use tlp_graph::Edge;

/// File magic for the binary graph format.
pub const MAGIC: [u8; 8] = *b"TLPSTORE";
/// Format version 1: degree + edge sections, CSR rebuilt on open.
pub const VERSION: u32 = 1;
/// Format version 2: embedded CSR sections, zero-copy open.
pub const VERSION_V2: u32 = 2;
/// Header flag: the file carries an `OIDS` section.
pub const FLAG_ORIGINAL_IDS: u32 = 1;
/// Byte length of the fixed header (including its checksum).
pub const HEADER_LEN: usize = 56;
/// Edges per write/read chunk: bounds writer and reader buffers to
/// `CHUNK_EDGES * 8` bytes (512 KiB) regardless of graph size.
pub const CHUNK_EDGES: usize = 65_536;

/// Section tag: per-vertex degrees (v1 only).
pub const TAG_DEGREES: u32 = u32::from_le_bytes(*b"DEGS");
/// Section tag: canonical edge table.
pub const TAG_EDGES: u32 = u32::from_le_bytes(*b"EDGE");
/// Section tag: original vertex ids.
pub const TAG_ORIGINAL_IDS: u32 = u32::from_le_bytes(*b"OIDS");
/// Section tag: CSR vertex offsets, `(n+1) × u64` (v2 only).
pub const TAG_OFFSETS: u32 = u32::from_le_bytes(*b"OFFS");
/// Section tag: CSR neighbor ids, `2m × u32` (v2 only).
pub const TAG_ADJ_VERTEX: u32 = u32::from_le_bytes(*b"ADJV");
/// Section tag: CSR arc edge ids, `2m × u32` (v2 only).
pub const TAG_ADJ_EDGE: u32 = u32::from_le_bytes(*b"ADJE");

/// Which on-disk layout to write.
///
/// New writes default to [`FormatVersion::V2`]; v1 remains writable for
/// compatibility fixtures and for tools that must interoperate with old
/// readers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Version 1: degree + edge sections, CSR rebuilt on open.
    V1,
    /// Version 2: embedded CSR sections, zero-copy open.
    #[default]
    V2,
}

impl FormatVersion {
    /// The version number written to the header.
    pub fn number(self) -> u32 {
        match self {
            FormatVersion::V1 => VERSION,
            FormatVersion::V2 => VERSION_V2,
        }
    }
}

/// Incremental FNV-1a 64 checksum, folded one little-endian `u64` word at
/// a time; a tail shorter than a word is folded byte-wise. Word folding
/// keeps the serial multiply chain ~8x shorter than the classic per-byte
/// variant, which matters on multi-megabyte edge sections. Each step is a
/// bijection of the running hash, so any single flipped byte changes the
/// final value. The result is independent of how the input is split
/// across [`Checksum::update`] calls.
#[derive(Clone, Copy, Debug)]
pub struct Checksum {
    hash: u64,
    pending: [u8; 8],
    pending_len: usize,
}

impl Checksum {
    pub(crate) const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    pub(crate) const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Checksum {
            hash: Self::OFFSET,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(Self::PRIME)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.hash = Self::fold(self.hash, u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut h = self.hash;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            h = Self::fold(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        self.hash = h;
        let tail = words.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The checksum of everything folded in so far.
    pub fn value(&self) -> u64 {
        self.pending[..self.pending_len]
            .iter()
            .fold(self.hash, |h, &b| Self::fold(h, u64::from(b)))
    }

    /// One-shot convenience: the checksum of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum::new();
        c.update(bytes);
        c.value()
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Eight interleaved rotate-add lanes: the v2 section checksum.
///
/// Input is consumed in 64-byte blocks; word `i` of each block folds into
/// lane `i` with a multiply-free xor–rotate–add step, so the eight chains
/// are independent, every operation is single-cycle, and the sweep runs
/// at memory bandwidth — several times the throughput of the serial FNV
/// chain in [`Checksum`] on the multi-megabyte embedded CSR sections. The
/// final value folds the lanes together in order, then the total byte
/// length (which also disambiguates trailing zeros). Like [`Checksum`],
/// each step is a bijection of its lane, so any single flipped byte
/// changes the final value, and the result is independent of how input is
/// split across [`WideChecksum::update`] calls.
#[derive(Clone, Copy, Debug)]
pub struct WideChecksum {
    lanes: [u64; 8],
    pending: [u8; 64],
    pending_len: usize,
    total: u64,
}

impl WideChecksum {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            // Distinct offsets per lane so permuting equal-valued words
            // across lanes still perturbs the final fold.
            *lane = Checksum::OFFSET ^ (i as u64);
        }
        WideChecksum {
            lanes,
            pending: [0; 64],
            pending_len: 0,
            total: 0,
        }
    }

    /// One lane step: inject the word, rotate, add an odd constant. Each
    /// step is a bijection of the lane (xor, rotation, and addition are
    /// all invertible), so any single corrupted word still guarantees a
    /// different final value. Unlike the FNV fold in [`Checksum`] there
    /// is no multiply: the 64-bit multiply chain tops out well below
    /// single-core memory bandwidth, while rotate + add sweeps sections
    /// as fast as they can be read.
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).rotate_left(29).wrapping_add(Checksum::PRIME)
    }

    fn fold_block(lanes: &mut [u64; 8], block: &[u8]) {
        for (i, word) in block.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            lanes[i] = Self::fold(lanes[i], w);
        }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (64 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 64 {
                return;
            }
            let block = self.pending;
            Self::fold_block(&mut self.lanes, &block);
            self.pending_len = 0;
        }
        // Fast path: when the input is 8-byte aligned in memory (every
        // arena payload and writer buffer is), fold whole 64-byte blocks
        // straight from `u64` words, keeping the eight lanes in
        // registers. `u64::from_le` makes the value match the byte-wise
        // path on any host.
        let whole = bytes.len() - bytes.len() % 64;
        if let Ok(words) = bytemuck::try_cast_slice::<u8, u64>(&bytes[..whole]) {
            // Named locals (not an indexed array) so the eight lanes live
            // in registers across the loop instead of spilling.
            let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = self.lanes;
            for block in words.chunks_exact(8) {
                let block: &[u64; 8] = block.try_into().expect("8 words");
                l0 = Self::fold(l0, u64::from_le(block[0]));
                l1 = Self::fold(l1, u64::from_le(block[1]));
                l2 = Self::fold(l2, u64::from_le(block[2]));
                l3 = Self::fold(l3, u64::from_le(block[3]));
                l4 = Self::fold(l4, u64::from_le(block[4]));
                l5 = Self::fold(l5, u64::from_le(block[5]));
                l6 = Self::fold(l6, u64::from_le(block[6]));
                l7 = Self::fold(l7, u64::from_le(block[7]));
            }
            self.lanes = [l0, l1, l2, l3, l4, l5, l6, l7];
            bytes = &bytes[whole..];
        }
        let mut blocks = bytes.chunks_exact(64);
        for block in &mut blocks {
            Self::fold_block(&mut self.lanes, block);
        }
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The checksum of everything folded in so far.
    pub fn value(&self) -> u64 {
        let mut lanes = self.lanes;
        let pending = &self.pending[..self.pending_len];
        let mut words = pending.chunks_exact(8);
        for (i, word) in (&mut words).enumerate() {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            lanes[i] = Self::fold(lanes[i], w);
        }
        let mut h = Checksum::OFFSET;
        for lane in lanes {
            h = Self::fold(h, lane);
        }
        for &b in words.remainder() {
            h = Self::fold(h, u64::from(b));
        }
        Self::fold(h, self.total)
    }

    /// One-shot convenience: the checksum of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = WideChecksum::new();
        c.update(bytes);
        c.value()
    }
}

impl Default for WideChecksum {
    fn default() -> Self {
        WideChecksum::new()
    }
}

/// The section checksum algorithm for a given format version:
/// [`Checksum`] for v1 sections, [`WideChecksum`] for v2.
#[derive(Clone, Copy, Debug)]
pub enum SectionHasher {
    /// Single-lane word-folded FNV-1a 64 (v1).
    Plain(Checksum),
    /// Eight-lane interleaved rotate-add (v2).
    Wide(WideChecksum),
}

impl SectionHasher {
    /// The hasher used by section payloads of `version`.
    pub fn for_version(version: u32) -> SectionHasher {
        if version >= VERSION_V2 {
            SectionHasher::Wide(WideChecksum::new())
        } else {
            SectionHasher::Plain(Checksum::new())
        }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        match self {
            SectionHasher::Plain(c) => c.update(bytes),
            SectionHasher::Wide(c) => c.update(bytes),
        }
    }

    /// The checksum of everything folded in so far.
    pub fn value(&self) -> u64 {
        match self {
            SectionHasher::Plain(c) => c.value(),
            SectionHasher::Wide(c) => c.value(),
        }
    }
}

/// Provenance stamp of the text file a binary store was converted from,
/// used to detect stale caches. `UNKNOWN` marks stores not derived from a
/// text source (e.g. written straight from a generator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceStamp {
    /// Byte length of the source file (0 = unknown).
    pub len: u64,
    /// Modification time of the source in unix seconds (0 = unknown).
    pub mtime: u64,
}

impl SourceStamp {
    /// A stamp for stores without a text provenance.
    pub const UNKNOWN: SourceStamp = SourceStamp { len: 0, mtime: 0 };

    /// Reads the stamp of a file on disk (len + mtime in unix seconds).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file's metadata is unreadable.
    pub fn of_file(path: &std::path::Path) -> Result<SourceStamp, StoreError> {
        let meta = std::fs::metadata(path).map_err(StoreError::Io)?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Ok(SourceStamp {
            len: meta.len(),
            mtime,
        })
    }
}

/// The decoded fixed header of a `.tlpg` file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version ([`VERSION`] or [`VERSION_V2`]).
    pub version: u32,
    /// Number of vertices (including isolated ones).
    pub num_vertices: u64,
    /// Number of undirected edges.
    pub num_edges: u64,
    /// Whether an original-ids section follows the edge section.
    pub has_original_ids: bool,
    /// Provenance stamp of the converted text source.
    pub source: SourceStamp,
}

impl Header {
    /// Encodes the header, including its trailing checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        let flags = if self.has_original_ids {
            FLAG_ORIGINAL_IDS
        } else {
            0
        };
        out[12..16].copy_from_slice(&flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_vertices.to_le_bytes());
        out[24..32].copy_from_slice(&self.num_edges.to_le_bytes());
        out[32..40].copy_from_slice(&self.source.len.to_le_bytes());
        out[40..48].copy_from_slice(&self.source.mtime.to_le_bytes());
        seal(&mut out);
        out
    }

    /// Decodes and validates a header read from the start of a file.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`], or
    /// [`StoreError::ChecksumMismatch`] for the respective defects.
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Header, StoreError> {
        check_magic(bytes, &MAGIC)?;
        let version = le_u32(bytes, 8);
        if version != VERSION && version != VERSION_V2 {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        checksummed(bytes, "header")?;
        Ok(Header {
            version,
            num_vertices: le_u64(bytes, 16),
            num_edges: le_u64(bytes, 24),
            has_original_ids: le_u32(bytes, 12) & FLAG_ORIGINAL_IDS != 0,
            source: SourceStamp {
                len: le_u64(bytes, 32),
                mtime: le_u64(bytes, 40),
            },
        })
    }

    /// The sections a file with this header holds, in file order: the
    /// version's table, then `OIDS` when the header flags it.
    pub(crate) fn sections(&self) -> impl Iterator<Item = Section> {
        let table = if self.version == VERSION {
            V1_SECTIONS
        } else {
            V2_SECTIONS
        };
        let oids = self.has_original_ids.then_some(Section::OriginalIds);
        table.iter().copied().chain(oids)
    }
}

/// A decoded section frame (tag + length + declared checksum).
#[derive(Clone, Copy, Debug)]
pub struct SectionFrame {
    /// Section tag (one of the `TAG_*` constants).
    pub tag: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Declared checksum of the payload: a [`Checksum`] in a v1 file, a
    /// [`WideChecksum`] in a v2 file (see [`SectionHasher`]).
    pub checksum: u64,
}

/// Byte length of an encoded section frame.
pub const SECTION_FRAME_LEN: usize = 24;

impl SectionFrame {
    /// Encodes the frame header preceding a section payload.
    pub fn encode(&self) -> [u8; SECTION_FRAME_LEN] {
        let mut out = [0u8; SECTION_FRAME_LEN];
        out[0..4].copy_from_slice(&self.tag.to_le_bytes());
        out[8..16].copy_from_slice(&self.payload_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Reads a frame, verifying it carries the expected tag.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] on short read, [`StoreError::Corrupt`] on a
    /// tag mismatch.
    pub fn read_expecting<R: Read>(
        reader: &mut R,
        expected_tag: u32,
        what: &'static str,
    ) -> Result<SectionFrame, StoreError> {
        let mut bytes = [0u8; SECTION_FRAME_LEN];
        read_exact_or_truncated(reader, &mut bytes, what)?;
        let tag = le_u32(&bytes, 0);
        if tag != expected_tag {
            return Err(StoreError::Corrupt(format!(
                "expected section {:?}, found tag {tag:#010x}",
                tag_name(expected_tag)
            )));
        }
        Ok(SectionFrame {
            tag,
            payload_len: le_u64(&bytes, 8),
            checksum: le_u64(&bytes, 16),
        })
    }
}

/// Human-readable name of a section tag.
pub fn tag_name(tag: u32) -> &'static str {
    match tag {
        TAG_DEGREES => "DEGS",
        TAG_EDGES => "EDGE",
        TAG_ORIGINAL_IDS => "OIDS",
        TAG_OFFSETS => "OFFS",
        TAG_ADJ_VERTEX => "ADJV",
        TAG_ADJ_EDGE => "ADJE",
        _ => "unknown",
    }
}

/// One kind of `.tlpg` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Section {
    Degrees,
    Offsets,
    AdjVertex,
    AdjEdge,
    Edges,
    OriginalIds,
}

/// Version 1 sections in file order (before the optional `OIDS`).
const V1_SECTIONS: &[Section] = &[Section::Degrees, Section::Edges];
/// Version 2 sections in file order (before the optional `OIDS`).
const V2_SECTIONS: &[Section] = &[
    Section::Offsets,
    Section::AdjVertex,
    Section::AdjEdge,
    Section::Edges,
];

impl Section {
    /// The table row: tag, the name errors use, and the payload length as
    /// bytes per vertex, per edge, and fixed.
    fn row(self) -> (u32, &'static str, [u64; 3]) {
        match self {
            Section::Degrees => (TAG_DEGREES, "degrees", [4, 0, 0]),
            Section::Offsets => (TAG_OFFSETS, "offsets", [8, 0, 8]),
            Section::AdjVertex => (TAG_ADJ_VERTEX, "adjacency vertices", [0, 8, 0]),
            Section::AdjEdge => (TAG_ADJ_EDGE, "adjacency edges", [0, 8, 0]),
            Section::Edges => (TAG_EDGES, "edges", [0, 8, 0]),
            Section::OriginalIds => (TAG_ORIGINAL_IDS, "original ids", [8, 0, 0]),
        }
    }

    /// The on-disk tag.
    pub(crate) fn tag(self) -> u32 {
        self.row().0
    }

    /// The name errors about this section use.
    pub(crate) fn what(self) -> &'static str {
        self.row().1
    }

    /// Payload bytes for `n` vertices and `m` edges (saturating, so a
    /// hostile header fails the length check instead of overflowing).
    fn len(self, n: u64, m: u64) -> u64 {
        let [per_vertex, per_edge, fixed] = self.row().2;
        n.saturating_mul(per_vertex)
            .saturating_add(m.saturating_mul(per_edge))
            .saturating_add(fixed)
    }
}

/// A section located by [`walk_sections`]: its kind, its checked frame,
/// and where its payload starts in the file.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SectionAt {
    pub(crate) section: Section,
    pub(crate) frame: SectionFrame,
    pub(crate) payload_pos: u64,
}

impl SectionAt {
    /// The payload's byte range in the file.
    pub(crate) fn payload(&self) -> std::ops::Range<usize> {
        self.payload_pos as usize..(self.payload_pos + self.frame.payload_len) as usize
    }
}

/// The bytes of one encoded section frame.
pub(crate) type FrameBytes = [u8; SECTION_FRAME_LEN];

/// Where a section walk gets its bytes from.
pub(crate) trait SectionSource {
    /// The frame bytes at file offset `pos` ([`StoreError::Truncated`]
    /// with `what` when the file ends first).
    fn frame(&mut self, pos: u64, what: &'static str) -> Result<FrameBytes, StoreError>;

    /// Called once a section's frame is checked; readers that fetch
    /// payloads lazily do nothing here.
    fn payload(&mut self, _at: &SectionAt) -> Result<(), StoreError> {
        Ok(())
    }
}

/// The one walk over a `.tlpg` file's sections: for each row of `header`'s
/// table, fetches the frame from `source`, checks tag and length against
/// the row and that the payload fits in `file_len` (else
/// [`StoreError::Corrupt`] / [`StoreError::Truncated`]), then hands the
/// section to [`SectionSource::payload`].
pub(crate) fn walk_sections(
    header: &Header,
    file_len: u64,
    source: &mut impl SectionSource,
) -> Result<Vec<SectionAt>, StoreError> {
    let mut pos = HEADER_LEN as u64;
    header
        .sections()
        .map(|section| {
            let what = section.what();
            let bytes = source.frame(pos, what)?;
            let frame = SectionFrame::read_expecting(&mut &bytes[..], section.tag(), what)?;
            let expected = section.len(header.num_vertices, header.num_edges);
            if frame.payload_len != expected {
                return Err(StoreError::Corrupt(format!(
                    "{what} section declares {} bytes, expected {expected}",
                    frame.payload_len
                )));
            }
            let at = SectionAt {
                section,
                frame,
                payload_pos: pos + SECTION_FRAME_LEN as u64,
            };
            pos = at.payload_pos.saturating_add(expected);
            if pos > file_len {
                return Err(StoreError::Truncated { what });
            }
            source.payload(&at)?;
            Ok(at)
        })
        .collect()
}

/// Checks that `bytes` (at least 8 long) opens with `magic`.
pub(crate) fn check_magic(bytes: &[u8], magic: &[u8; 8]) -> Result<(), StoreError> {
    match bytes.first_chunk::<8>() {
        Some(found) if found != magic => Err(StoreError::BadMagic { found: *found }),
        _ => Ok(()),
    }
}

/// Compares the checksum a file declares for `section` with the one
/// computed over the bytes it covers.
pub(crate) fn check_checksum(
    section: &'static str,
    expected: u64,
    actual: u64,
) -> Result<(), StoreError> {
    if expected != actual {
        return Err(StoreError::ChecksumMismatch {
            section,
            expected,
            actual,
        });
    }
    Ok(())
}

/// Verifies that the last 8 bytes of `bytes` (at least 8 long) hold the
/// [`Checksum`] of the rest, and returns the rest.
pub(crate) fn checksummed<'a>(
    bytes: &'a [u8],
    section: &'static str,
) -> Result<&'a [u8], StoreError> {
    let (covered, stored) = bytes.split_at(bytes.len() - 8);
    check_checksum(section, le_u64(stored, 0), Checksum::of(covered))?;
    Ok(covered)
}

/// The write side of [`checksummed`]: fills the last 8 bytes of `bytes`
/// with the [`Checksum`] of the rest.
pub(crate) fn seal(bytes: &mut [u8]) {
    let (covered, trailer) = bytes.split_at_mut(bytes.len() - 8);
    trailer.copy_from_slice(&Checksum::of(covered).to_le_bytes());
}

/// The little-endian `u32` at byte `at` of `bytes`.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// The little-endian `u64` at byte `at` of `bytes`.
pub(crate) fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One edge as stored in an edge payload: `u` then `v`, little-endian.
pub(crate) fn edge_pair(edge: Edge) -> [u8; 8] {
    let (u, v) = edge.endpoints();
    (u64::from(u) | (u64::from(v) << 32)).to_le_bytes()
}

/// The `(u, v)` pairs of an edge payload (8 bytes per edge).
pub(crate) fn edge_pairs(bytes: &[u8]) -> impl Iterator<Item = (u32, u32)> + '_ {
    bytes
        .chunks_exact(8)
        .map(|pair| (le_u32(pair, 0), le_u32(pair, 4)))
}

/// `read_exact` that reports a short read as [`StoreError::Truncated`]
/// (with context) instead of a bare I/O error.
pub fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), StoreError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { what }
        } else {
            StoreError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn checksum_is_deterministic_and_incremental() {
        let oneshot = Checksum::of(b"hello world");
        let mut inc = Checksum::new();
        inc.update(b"hello ");
        inc.update(b"world");
        assert_eq!(oneshot, inc.value());
        assert_ne!(oneshot, Checksum::of(b"hello worle"));
        // Known FNV-1a 64 vector.
        assert_eq!(Checksum::of(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn header_roundtrip() {
        for version in [VERSION, VERSION_V2] {
            let h = Header {
                version,
                num_vertices: 10,
                num_edges: 25,
                has_original_ids: true,
                source: SourceStamp { len: 99, mtime: 7 },
            };
            let decoded = Header::decode(&h.encode()).unwrap();
            assert_eq!(h, decoded);
        }
    }

    #[test]
    fn header_rejects_bad_magic_version_and_checksum() {
        let h = Header {
            version: VERSION,
            num_vertices: 1,
            num_edges: 0,
            has_original_ids: false,
            source: SourceStamp::UNKNOWN,
        };
        let good = h.encode();

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(
            Header::decode(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad_version = good;
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Header::decode(&bad_version),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));

        let mut flipped = good;
        flipped[20] ^= 0x40; // inside num_vertices
        assert!(matches!(
            Header::decode(&flipped),
            Err(StoreError::ChecksumMismatch {
                section: "header",
                ..
            })
        ));
    }

    #[test]
    fn section_frame_roundtrip_and_tag_check() {
        let frame = SectionFrame {
            tag: TAG_EDGES,
            payload_len: 80,
            checksum: 0xdead_beef,
        };
        let bytes = frame.encode();
        let mut cursor = &bytes[..];
        let back = SectionFrame::read_expecting(&mut cursor, TAG_EDGES, "edges").unwrap();
        assert_eq!(back.payload_len, 80);
        assert_eq!(back.checksum, 0xdead_beef);

        let mut cursor = &bytes[..];
        let err = SectionFrame::read_expecting(&mut cursor, TAG_DEGREES, "degrees").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));

        let mut short = &bytes[..10];
        let err = SectionFrame::read_expecting(&mut short, TAG_EDGES, "edges").unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }));
    }

    #[test]
    fn tag_names() {
        assert_eq!(tag_name(TAG_DEGREES), "DEGS");
        assert_eq!(tag_name(TAG_EDGES), "EDGE");
        assert_eq!(tag_name(TAG_ORIGINAL_IDS), "OIDS");
        assert_eq!(tag_name(TAG_OFFSETS), "OFFS");
        assert_eq!(tag_name(TAG_ADJ_VERTEX), "ADJV");
        assert_eq!(tag_name(TAG_ADJ_EDGE), "ADJE");
        assert_eq!(tag_name(0), "unknown");
    }

    #[test]
    fn wide_checksum_is_split_invariant() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        let oneshot = WideChecksum::of(&data);
        // Every awkward split boundary must produce the same value.
        for split in [0, 1, 7, 8, 63, 64, 65, 100, 999, data.len()] {
            let mut inc = WideChecksum::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.value(), oneshot, "split at {split}");
        }
        let mut dribble = WideChecksum::new();
        for b in &data {
            dribble.update(std::slice::from_ref(b));
        }
        assert_eq!(dribble.value(), oneshot);
    }

    #[test]
    fn wide_checksum_detects_single_bit_flips_and_length() {
        let data = vec![0xA5u8; 512];
        let base = WideChecksum::of(&data);
        for pos in [0, 7, 8, 63, 64, 200, 511] {
            let mut flipped = data.clone();
            flipped[pos] ^= 1;
            assert_ne!(WideChecksum::of(&flipped), base, "flip at {pos}");
        }
        // Same content, different length (trailing zeros) must differ.
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(WideChecksum::of(&longer), base);
        // Swapping two equal-position words across lanes changes the value.
        let mut swapped = data.clone();
        swapped[..8].copy_from_slice(&1u64.to_le_bytes());
        swapped[8..16].copy_from_slice(&2u64.to_le_bytes());
        let a = WideChecksum::of(&swapped);
        swapped[..8].copy_from_slice(&2u64.to_le_bytes());
        swapped[8..16].copy_from_slice(&1u64.to_le_bytes());
        assert_ne!(WideChecksum::of(&swapped), a);
    }

    #[test]
    fn section_hasher_matches_version() {
        let data = b"some payload bytes".as_slice();
        let mut v1 = SectionHasher::for_version(VERSION);
        v1.update(data);
        assert_eq!(v1.value(), Checksum::of(data));
        let mut v2 = SectionHasher::for_version(VERSION_V2);
        v2.update(data);
        assert_eq!(v2.value(), WideChecksum::of(data));
        assert_ne!(v1.value(), v2.value());
    }

    #[test]
    fn format_version_numbers() {
        assert_eq!(FormatVersion::default(), FormatVersion::V2);
        assert_eq!(FormatVersion::V1.number(), VERSION);
        assert_eq!(FormatVersion::V2.number(), VERSION_V2);
    }
}
