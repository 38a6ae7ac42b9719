//! Writing `.tlpg` binary graph files (v1 and v2).

use crate::format::{
    edge_pair, FormatVersion, Header, Section, SectionFrame, SectionHasher, SourceStamp,
    CHUNK_EDGES, SECTION_FRAME_LEN,
};
use crate::StoreError;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use tlp_graph::GraphView;

/// Options for [`write_graph`].
#[derive(Clone, Debug, Default)]
pub struct WriteOptions {
    /// Original vertex ids to persist (`original_ids[v]` = id of `v` in the
    /// text source), written as an `OIDS` section when present.
    pub original_ids: Option<Vec<u64>>,
    /// Provenance stamp of the converted text source (for cache staleness
    /// checks); defaults to [`SourceStamp::UNKNOWN`].
    pub source: Option<SourceStamp>,
    /// On-disk layout to write; defaults to [`FormatVersion::V2`].
    pub version: FormatVersion,
}

/// Writes `graph` to `path` in the versioned binary format.
///
/// Accepts `&CsrGraph` or any [`GraphView`]. By default the v2 layout is
/// written: the CSR offset/adjacency arrays are persisted verbatim
/// (8-byte-aligned, individually checksummed), so a later open is one bulk
/// read with no per-edge decode and no CSR rebuild. Pass
/// [`FormatVersion::V1`] in the options to emit the legacy degree+edge
/// layout.
///
/// All payloads are emitted in bounded-size chunks, so the writer's buffer
/// stays bounded regardless of graph size. Section checksums are computed
/// incrementally while writing; the section frames are back-patched once
/// the payload sizes are known.
///
/// The file is written crash-safely: the payload goes to a sibling temp
/// file that is fsynced and atomically renamed onto `path`, so an
/// interrupted write leaves the previous file (or nothing) in place,
/// never a torn `.tlpg`.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on any write failure.
pub fn write_graph<'a>(
    path: &Path,
    graph: impl Into<GraphView<'a>>,
    options: &WriteOptions,
) -> Result<(), StoreError> {
    let graph = graph.into();
    if let Some(ids) = &options.original_ids {
        if ids.len() != graph.num_vertices() {
            return Err(StoreError::Corrupt(format!(
                "original_ids has {} entries for {} vertices",
                ids.len(),
                graph.num_vertices()
            )));
        }
    }
    crate::atomic::atomic_write(path, |out| write_graph_payload(out, graph, options))
}

/// Emits the full `.tlpg` byte stream (header + framed sections) to `out`.
fn write_graph_payload<W: Write + Seek>(
    out: &mut BufWriter<W>,
    graph: GraphView<'_>,
    options: &WriteOptions,
) -> Result<(), StoreError> {
    let version = options.version.number();
    let header = Header {
        version,
        num_vertices: graph.num_vertices() as u64,
        num_edges: graph.num_edges() as u64,
        has_original_ids: options.original_ids.is_some(),
        source: options.source.unwrap_or(SourceStamp::UNKNOWN),
    };
    out.write_all(&header.encode()).map_err(StoreError::Io)?;

    let degree = |v| (graph.degree(v) as u32).to_le_bytes();
    let ids = options.original_ids.as_deref().unwrap_or_default();
    for section in header.sections() {
        write_section(out, version, section.tag(), |sink| match section {
            // DEGS (v1): one u32 per vertex.
            Section::Degrees => write_items(sink, graph.vertices().map(degree)),
            // OFFS / ADJV / ADJE (v2): the CSR arrays verbatim.
            Section::Offsets => write_items(sink, graph.offsets().iter().map(|x| x.to_le_bytes())),
            Section::AdjVertex => {
                write_items(sink, graph.adj_vertex().iter().map(|x| x.to_le_bytes()))
            }
            Section::AdjEdge => write_items(sink, graph.adj_edge().iter().map(|x| x.to_le_bytes())),
            // EDGE: canonical sorted (u, v) pairs — identical payload in
            // both versions, which keeps edge streaming format-agnostic.
            Section::Edges => write_items(sink, graph.edge_iter().map(edge_pair)),
            Section::OriginalIds => write_items(sink, ids.iter().map(|x| x.to_le_bytes())),
        })?;
    }

    out.flush().map_err(StoreError::Io)?;
    Ok(())
}

/// Streams `N`-byte items through `sink`, `CHUNK_EDGES` items per write.
fn write_items<const N: usize, W: Write + Seek>(
    sink: &mut SectionSink<'_, BufWriter<W>>,
    items: impl Iterator<Item = [u8; N]>,
) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(N * CHUNK_EDGES);
    for item in items {
        buf.extend_from_slice(&item);
        if buf.len() >= N * CHUNK_EDGES {
            sink.write(&buf)?;
            buf.clear();
        }
    }
    sink.write(&buf)
}

/// Incrementally checksummed section payload sink.
struct SectionSink<'a, W: Write + Seek> {
    out: &'a mut W,
    checksum: SectionHasher,
    written: u64,
}

impl<W: Write + Seek> SectionSink<'_, W> {
    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.checksum.update(bytes);
        self.written += bytes.len() as u64;
        self.out.write_all(bytes).map_err(StoreError::Io)
    }
}

/// Writes one framed section: reserves the frame, streams the payload
/// through a checksumming sink, then back-patches the frame with the final
/// length and checksum.
fn write_section<W, F>(
    out: &mut BufWriter<W>,
    version: u32,
    tag: u32,
    emit: F,
) -> Result<(), StoreError>
where
    W: Write + Seek,
    F: FnOnce(&mut SectionSink<'_, BufWriter<W>>) -> Result<(), StoreError>,
{
    let frame_pos = out.stream_position().map_err(StoreError::Io)?;
    out.write_all(&[0u8; SECTION_FRAME_LEN])
        .map_err(StoreError::Io)?;
    let mut sink = SectionSink {
        out,
        checksum: SectionHasher::for_version(version),
        written: 0,
    };
    emit(&mut sink)?;
    let frame = SectionFrame {
        tag,
        payload_len: sink.written,
        checksum: sink.checksum.value(),
    };
    let end = out.stream_position().map_err(StoreError::Io)?;
    out.seek(SeekFrom::Start(frame_pos))
        .map_err(StoreError::Io)?;
    out.write_all(&frame.encode()).map_err(StoreError::Io)?;
    out.seek(SeekFrom::Start(end)).map_err(StoreError::Io)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::format::{TAG_ADJ_EDGE, TAG_ADJ_VERTEX, TAG_EDGES, TAG_OFFSETS};
    use tlp_graph::GraphBuilder;

    #[test]
    fn rejects_mismatched_original_ids() {
        let _guard = crate::faults::test_lock();
        let g = GraphBuilder::new().add_edge(0, 1).build();
        let dir = std::env::temp_dir().join(format!("tlp-store-w-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tlpg");
        let options = WriteOptions {
            original_ids: Some(vec![1, 2, 3]), // graph has 2 vertices
            ..WriteOptions::default()
        };
        assert!(matches!(
            write_graph(&path, &g, &options),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_payloads_are_aligned_multiples_of_eight() {
        let _guard = crate::faults::test_lock();
        use crate::format::{HEADER_LEN, SECTION_FRAME_LEN};
        let g = GraphBuilder::new()
            .reserve_vertices(5) // odd n exercises the offsets length
            .add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
            .build();
        let dir = std::env::temp_dir().join(format!("tlp-store-align-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Walk the frames and assert every payload starts 8-byte-aligned.
        let mut pos = HEADER_LEN;
        let mut seen = Vec::new();
        while pos + SECTION_FRAME_LEN <= bytes.len() {
            let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let payload_pos = pos + SECTION_FRAME_LEN;
            assert_eq!(payload_pos % 8, 0, "section {tag:#x} payload misaligned");
            assert_eq!(len % 8, 0, "section {tag:#x} payload length not 8-aligned");
            seen.push(tag);
            pos = payload_pos + len;
        }
        assert_eq!(pos, bytes.len());
        assert_eq!(
            seen,
            vec![TAG_OFFSETS, TAG_ADJ_VERTEX, TAG_ADJ_EDGE, TAG_EDGES]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
