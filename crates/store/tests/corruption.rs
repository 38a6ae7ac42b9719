//! Corruption robustness: every class of damaged store file must surface a
//! typed [`StoreError`], never a panic or a silently wrong graph.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tlp_graph::generators::erdos_renyi;
use tlp_graph::CsrGraph;
use tlp_store::{
    write_graph, FormatVersion, GraphBuf, LoadedGraph, StoreError, StoreReader, WriteOptions,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_store(graph: &CsrGraph) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-store-corruption-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tlpg");
    write_graph(&path, graph, &WriteOptions::default()).unwrap();
    path
}

fn temp_store_v1(graph: &CsrGraph) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-store-corruption-v1-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tlpg");
    let options = WriteOptions {
        version: FormatVersion::V1,
        ..WriteOptions::default()
    };
    write_graph(&path, graph, &options).unwrap();
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

fn test_graph() -> CsrGraph {
    erdos_renyi(200, 800, 7)
}

#[test]
fn truncated_file_is_typed_not_a_panic() {
    let g = test_graph();
    let path = temp_store(&g);
    let bytes = std::fs::read(&path).unwrap();
    // Cut at several depths: inside the header, inside the degree section,
    // inside the edge payload, and one byte short of complete.
    for cut in [10, 40, 80, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = StoreReader::open(&path).and_then(|r| r.read_graph().map(|_| ()));
        assert!(
            matches!(
                result,
                Err(StoreError::Truncated { .. })
                    | Err(StoreError::ChecksumMismatch { .. })
                    | Err(StoreError::Corrupt(_))
            ),
            "cut at {cut}: unexpected {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn bad_magic_is_rejected() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..8].copy_from_slice(b"NOTAGRPH");
    std::fs::write(&path, &bytes).unwrap();
    match StoreReader::open(&path) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOTAGRPH"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn unsupported_version_is_rejected() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    // Version lives right after the magic; bump it and re-stamp the header
    // checksum so the version check (not the checksum) is what fires.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let checksum = tlp_store::format::Checksum::of(&bytes[0..48]);
    bytes[48..56].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match StoreReader::open(&path) {
        Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn flipped_payload_byte_fails_a_checksum_v1() {
    let g = test_graph();
    let path = temp_store_v1(&g);
    let clean = std::fs::read(&path).unwrap();
    // The only bytes a flip may legitimately go unnoticed in are the 4
    // reserved bytes of each section frame (ignored by readers for forward
    // compatibility). v1 frames sit at offsets 56 and 56+24+4n.
    let degs_frame = 56usize;
    let edge_frame = degs_frame + 24 + 4 * g.num_vertices();
    let reserved = |o: usize| {
        (degs_frame + 4..degs_frame + 8).contains(&o)
            || (edge_frame + 4..edge_frame + 8).contains(&o)
    };
    // Flip a byte in every other region past the header. Anywhere in a
    // payload the section checksum must catch it; in a frame the structural
    // checks fire.
    for offset in (60..clean.len()).step_by(101).filter(|&o| !reserved(o)) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let result = StoreReader::open(&path).and_then(|r| r.read_graph().map(|_| ()));
        assert!(
            result.is_err(),
            "flip at {offset} was not detected: {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn flipped_payload_byte_fails_a_checksum_v2() {
    let g = test_graph();
    let path = temp_store(&g);
    let clean = std::fs::read(&path).unwrap();
    // v2 layout: OFFS | ADJV | ADJE | EDGE frames, each with 4 reserved
    // bytes at frame+4. The zero-copy arena open (the production v2 path)
    // checksums every section, so a flip anywhere else must surface.
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut frames = Vec::new();
    let mut pos = 56usize;
    for payload in [8 * (n + 1), 8 * m, 8 * m, 8 * m] {
        frames.push(pos);
        pos += 24 + payload;
    }
    let reserved = |o: usize| frames.iter().any(|&f| (f + 4..f + 8).contains(&o));
    for offset in (60..clean.len()).step_by(101).filter(|&o| !reserved(o)) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let result = LoadedGraph::open(&path).map(|_| ());
        assert!(
            result.is_err(),
            "flip at {offset} was not detected: {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn header_corruption_fails_header_checksum() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16] ^= 0x01; // inside num_vertices
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::ChecksumMismatch {
            section: "header",
            ..
        })
    ));
    cleanup(&path);
}

#[test]
fn empty_file_is_truncated() {
    let g = test_graph();
    let path = temp_store(&g);
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    cleanup(&path);
}

/// A graph in which every vertex has at least one edge.
fn small_graph() -> CsrGraph {
    tlp_graph::GraphBuilder::new()
        .add_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
        .build()
}

/// Rewrites entry `index` of the degree-bearing section (v2 `OFFS` as
/// `u64`s, v1 `DEGS` as `u32`s) with `patch(old)`, then re-stamps the
/// section checksum so that only the structural checks can object.
fn patch_degree_section(path: &Path, index: usize, patch: impl Fn(u64) -> u64) {
    let mut bytes = std::fs::read(path).unwrap();
    let (frame, payload) = (56, 80);
    let len = u64::from_le_bytes(bytes[frame + 8..frame + 16].try_into().unwrap()) as usize;
    let v2 = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) == 2;
    let width = if v2 { 8 } else { 4 };
    let at = payload + width * index;
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(&bytes[at..at + width]);
    let new = patch(u64::from_le_bytes(word)).to_le_bytes();
    bytes[at..at + width].copy_from_slice(&new[..width]);
    let section = &bytes[payload..payload + len];
    let checksum = if v2 {
        tlp_store::format::WideChecksum::of(section)
    } else {
        tlp_store::format::Checksum::of(section)
    };
    bytes[frame + 16..frame + 24].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

/// Every reader that trusts the degrees must reject the patched file with
/// a `Corrupt` error mentioning `needle`.
fn assert_degrees_rejected(path: &Path, needle: &str) {
    let reader = StoreReader::open(path).unwrap();
    match reader.read_degrees() {
        Err(StoreError::Corrupt(message)) => assert!(message.contains(needle), "{message}"),
        other => panic!("expected Corrupt({needle}), got {other:?}"),
    }
    assert!(matches!(reader.read_graph(), Err(StoreError::Corrupt(_))));
    assert!(matches!(
        tlp_store::BinaryFileSource::open(path, 64),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn degrees_reject_offsets_not_starting_at_zero() {
    let g = small_graph();
    let path = temp_store(&g);
    patch_degree_section(&path, 0, |off| off + 1);
    assert_degrees_rejected(&path, "starts at 1");
    cleanup(&path);
}

#[test]
fn degrees_reject_offsets_not_ending_at_2m() {
    let g = small_graph();
    let path = temp_store(&g);
    patch_degree_section(&path, g.num_vertices(), |off| off + 5);
    assert_degrees_rejected(&path, "implies 17 arcs");
    cleanup(&path);
}

#[test]
fn degrees_reject_a_gap_wider_than_u32() {
    // Without the check, the last vertex's degree 2 + 2^32 + 40 would be
    // truncated to 42 and handed to degree-based placers as-is.
    let g = small_graph();
    let path = temp_store(&g);
    patch_degree_section(&path, g.num_vertices(), |off| off + (1 << 32) + 40);
    assert_degrees_rejected(&path, "gives vertex 4 degree 4294967338");
    cleanup(&path);
}

#[test]
fn v1_degrees_must_sum_to_2m() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/graph_v1.tlpg");
    let dir = std::env::temp_dir().join(format!("tlp-store-degsum-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tlpg");
    std::fs::copy(&golden, &path).unwrap();
    let m = StoreReader::open(&path).unwrap().header().num_edges;
    patch_degree_section(&path, 3, |d| d + 1);
    assert_degrees_rejected(&path, &format!("implies {} arcs", 2 * m + 1));
    cleanup(&path);
}

/// Overwrites the first `u32` of v2 section `index` (0 = `OFFS`, 1 = `ADJV`,
/// 2 = `ADJE`, 3 = `EDGE`) with `id`, then re-stamps that section's
/// checksum so that only the id range check can object.
fn patch_v2_id(path: &Path, index: usize, id: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    let mut frame = 56;
    for _ in 0..index {
        let len = u64::from_le_bytes(bytes[frame + 8..frame + 16].try_into().unwrap()) as usize;
        frame += 24 + len;
    }
    let len = u64::from_le_bytes(bytes[frame + 8..frame + 16].try_into().unwrap()) as usize;
    let payload = frame + 24;
    bytes[payload..payload + 4].copy_from_slice(&id.to_le_bytes());
    let checksum = tlp_store::format::WideChecksum::of(&bytes[payload..payload + len]);
    bytes[frame + 16..frame + 24].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

/// A v2 file whose section `index` holds the out-of-range `id` must open
/// as `Corrupt` naming `section`, through the arena and `LoadedGraph`.
fn assert_id_rejected(index: usize, id: u32, section: &str) {
    let g = small_graph();
    let path = temp_store(&g);
    patch_v2_id(&path, index, id);
    match GraphBuf::open(&path) {
        Err(StoreError::Corrupt(message)) => {
            assert!(message.contains(section), "{message}");
            assert!(message.contains(&format!("id {id}")), "{message}");
        }
        other => panic!("expected Corrupt for {section}, got {other:?}"),
    }
    assert!(matches!(
        LoadedGraph::open(&path),
        Err(StoreError::Corrupt(_))
    ));
    cleanup(&path);
}

#[test]
fn v2_adjacency_vertex_id_out_of_range_is_corrupt() {
    let n = small_graph().num_vertices() as u32;
    assert_id_rejected(1, n, "adjacency vertices");
}

#[test]
fn v2_adjacency_edge_id_out_of_range_is_corrupt() {
    let m = small_graph().num_edges() as u32;
    assert_id_rejected(2, m, "adjacency edges");
}

#[test]
fn v2_edge_endpoint_out_of_range_is_corrupt() {
    assert_id_rejected(3, u32::MAX, "edges");
}
