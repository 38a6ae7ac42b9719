//! On-disk partition stores: per-partition edge segments plus a manifest
//! from which every headline metric is recomputable.
//!
//! A store directory holds one segment file per partition (the edges that
//! partition owns, in canonical order) and a `MANIFEST.tlp` describing the
//! segments together with the replica/ownership summary (`Σ_k |V(P_k)|`
//! and the covered-vertex count). Replication factor and balance are
//! recomputable **from the manifest alone**; loading the segments
//! reconstructs the exact `(graph, assignment)` pair, so the full
//! [`PartitionMetrics`] — including the paper's Claim 1 modularity — round
//! trips bit-identically.
//!
//! The manifest is a versioned, line-oriented text format parsed by this
//! module (the vendored `serde_json` is serialize-only, so JSON is not an
//! option for data we must read back).
//!
//! # Crash safety
//!
//! Stores are written transactionally: every segment file is staged through
//! a temp file and atomically renamed into place, and the manifest — the
//! *commit record* — is written last, the same way. A crash at any point
//! therefore leaves either a committed store (manifest present, all
//! segments it names present and checksummed) or an uncommitted directory
//! with no manifest. [`PartitionStoreReader::open`] detects the latter
//! (segment data present, manifest missing or unreadable), renames the
//! whole directory aside to `<dir>.quarantine[.N]`, and reports
//! [`StoreError::TornStore`] — a torn store is never parsed as data and
//! never silently shadows a later rewrite.

use crate::atomic::atomic_write;
use crate::format::{check_magic, checksummed, edge_pair, edge_pairs, le_u32, le_u64, Checksum};
use crate::StoreError;
use std::io::Write;
use std::path::{Path, PathBuf};
use tlp_core::{EdgePartition, PartitionId, PartitionMetrics};
use tlp_graph::{CsrGraph, Edge, GraphView};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.tlp";
/// First line of a valid manifest.
const MANIFEST_HEADER: &str = "tlp-partition-store v1";
/// Magic prefix of a segment file.
const SEGMENT_MAGIC: [u8; 8] = *b"TLPSEG\x00\x01";
/// Segment header: magic, partition id `u32`, reserved `u32`, edge count
/// `u64`. The edge pairs and a [`Checksum`] over them follow.
const SEGMENT_HEADER_LEN: usize = 24;

/// One per-partition edge segment as recorded in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The partition this segment holds.
    pub partition: PartitionId,
    /// File name inside the store directory.
    pub file: String,
    /// Number of edges in the segment.
    pub edges: usize,
    /// FNV-1a 64 checksum of the segment's edge payload.
    pub checksum: u64,
}

/// The parsed replica/ownership manifest of a partition store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionManifest {
    /// Number of partitions `p`.
    pub num_partitions: usize,
    /// Number of vertices of the partitioned graph (including isolated).
    pub num_vertices: usize,
    /// Number of edges of the partitioned graph.
    pub num_edges: usize,
    /// Vertices incident to at least one edge (the RF denominator).
    pub covered_vertices: usize,
    /// `Σ_k |V(P_k)|` (the RF numerator).
    pub total_replicas: usize,
    /// One entry per partition, ordered by partition id.
    pub segments: Vec<SegmentEntry>,
}

impl PartitionManifest {
    /// Replication factor recomputed purely from the manifest, delegating
    /// to the canonical [`PartitionMetrics::replication_factor_of`] — the
    /// exact expression the live run uses, so the value is bit-identical.
    pub fn replication_factor(&self) -> f64 {
        PartitionMetrics::replication_factor_of(self.total_replicas, self.covered_vertices)
    }

    /// Load balance recomputed purely from the manifest, delegating to the
    /// canonical [`PartitionMetrics::balance_of`] (max segment size over
    /// ideal `m / p`).
    pub fn balance(&self) -> f64 {
        let max_edges = self.segments.iter().map(|s| s.edges).max().unwrap_or(0);
        PartitionMetrics::balance_of(max_edges, self.num_edges, self.num_partitions)
    }

    /// Renders the manifest in its on-disk format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("partitions {}\n", self.num_partitions));
        out.push_str(&format!("vertices {}\n", self.num_vertices));
        out.push_str(&format!("edges {}\n", self.num_edges));
        out.push_str(&format!("covered {}\n", self.covered_vertices));
        out.push_str(&format!("replicas {}\n", self.total_replicas));
        for s in &self.segments {
            out.push_str(&format!(
                "segment {} {} {} {:016x}\n",
                s.partition, s.file, s.edges, s.checksum
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a manifest from its on-disk text.
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] naming the offending line, or
    /// [`StoreError::Truncated`] if the `end` sentinel is missing.
    pub fn parse(text: &str) -> Result<PartitionManifest, StoreError> {
        let bad = |line: usize, message: String| StoreError::Manifest { line, message };
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

        let (line, header) = lines
            .next()
            .ok_or(StoreError::Truncated { what: "manifest" })?;
        if header.trim() != MANIFEST_HEADER {
            return Err(bad(line, format!("expected {MANIFEST_HEADER:?}")));
        }

        let mut fields: [Option<usize>; 5] = [None; 5];
        const NAMES: [&str; 5] = ["partitions", "vertices", "edges", "covered", "replicas"];
        let mut segments: Vec<SegmentEntry> = Vec::new();
        let mut ended = false;

        for (line, raw) in lines {
            let tokens: Vec<&str> = raw.split_whitespace().collect();
            match tokens.as_slice() {
                [] => continue,
                ["end"] => {
                    ended = true;
                    break;
                }
                [name, value] if NAMES.contains(name) => {
                    let idx = NAMES.iter().position(|n| n == name).expect("checked");
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| bad(line, format!("{name} is not an integer: {value:?}")))?;
                    if fields[idx].replace(parsed).is_some() {
                        return Err(bad(line, format!("duplicate {name} line")));
                    }
                }
                ["segment", k, file, edges, checksum] => {
                    let partition: PartitionId = k
                        .parse()
                        .map_err(|_| bad(line, format!("bad partition id {k:?}")))?;
                    let edges: usize = edges
                        .parse()
                        .map_err(|_| bad(line, format!("bad edge count {edges:?}")))?;
                    let checksum = u64::from_str_radix(checksum, 16)
                        .map_err(|_| bad(line, format!("bad checksum {checksum:?}")))?;
                    if partition as usize != segments.len() {
                        return Err(bad(
                            line,
                            format!(
                                "segment {partition} out of order (expected {})",
                                segments.len()
                            ),
                        ));
                    }
                    segments.push(SegmentEntry {
                        partition,
                        file: (*file).to_string(),
                        edges,
                        checksum,
                    });
                }
                _ => return Err(bad(line, format!("unrecognized line {raw:?}"))),
            }
        }
        if !ended {
            return Err(StoreError::Truncated { what: "manifest" });
        }
        let [partitions, vertices, edges, covered, replicas] = fields;
        let require =
            |name: &str, v: Option<usize>| v.ok_or_else(|| bad(0, format!("missing {name} line")));
        let manifest = PartitionManifest {
            num_partitions: require("partitions", partitions)?,
            num_vertices: require("vertices", vertices)?,
            num_edges: require("edges", edges)?,
            covered_vertices: require("covered", covered)?,
            total_replicas: require("replicas", replicas)?,
            segments,
        };
        if manifest.segments.len() != manifest.num_partitions {
            return Err(bad(
                0,
                format!(
                    "manifest declares {} partitions but lists {} segments",
                    manifest.num_partitions,
                    manifest.segments.len()
                ),
            ));
        }
        let listed: usize = manifest.segments.iter().map(|s| s.edges).sum();
        if listed != manifest.num_edges {
            return Err(bad(
                0,
                format!(
                    "segment edge counts sum to {listed}, manifest declares {}",
                    manifest.num_edges
                ),
            ));
        }
        Ok(manifest)
    }
}

/// Writes `partition` of `graph` as an on-disk partition store in `dir`.
///
/// One segment file per partition plus `MANIFEST.tlp`. Every file is
/// written atomically (temp + fsync + rename), and the manifest is written
/// last as the commit record: a crash mid-write leaves an uncommitted
/// directory that [`PartitionStoreReader::open`] quarantines instead of
/// parsing. Returns the written manifest.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if the partition does not cover the graph,
/// [`StoreError::Io`] on write failures.
pub fn write_partition_store<'a>(
    dir: &Path,
    graph: impl Into<GraphView<'a>>,
    partition: &EdgePartition,
) -> Result<PartitionManifest, StoreError> {
    let graph = graph.into();
    if partition.num_edges() != graph.num_edges() {
        return Err(StoreError::Corrupt(format!(
            "partition covers {} edges but graph has {}",
            partition.num_edges(),
            graph.num_edges()
        )));
    }
    std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
    // A rewrite must not look committed while its segments are being
    // replaced: retract the commit record first.
    match std::fs::remove_file(dir.join(MANIFEST_NAME)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::Io(e)),
    }
    let metrics = PartitionMetrics::compute(graph, partition);
    let p = partition.num_partitions();

    let mut segments = Vec::with_capacity(p);
    for k in 0..p {
        let file = format!("part-{k:05}.seg");
        let seg_path = dir.join(&file);
        let edge_count = metrics.edge_counts[k];
        let mut checksum = Checksum::new();

        atomic_write(&seg_path, |out| {
            let mut head = [0u8; SEGMENT_HEADER_LEN];
            head[0..8].copy_from_slice(&SEGMENT_MAGIC);
            head[8..12].copy_from_slice(&(k as u32).to_le_bytes());
            head[16..24].copy_from_slice(&(edge_count as u64).to_le_bytes());
            out.write_all(&head).map_err(StoreError::Io)?;

            let mut written = 0usize;
            for (eid, edge) in graph.edge_iter().enumerate() {
                if partition.partition_of(eid as u32) as usize != k {
                    continue;
                }
                let pair = edge_pair(edge);
                checksum.update(&pair);
                out.write_all(&pair).map_err(StoreError::Io)?;
                written += 1;
            }
            debug_assert_eq!(written, edge_count);
            out.write_all(&checksum.value().to_le_bytes())
                .map_err(StoreError::Io)
        })?;

        segments.push(SegmentEntry {
            partition: k as PartitionId,
            file,
            edges: edge_count,
            checksum: checksum.value(),
        });
    }

    let manifest = PartitionManifest {
        num_partitions: p,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        covered_vertices: metrics.covered_vertices,
        total_replicas: metrics.total_replicas,
        segments,
    };
    // Commit record: only after this rename is the store readable.
    atomic_write(&dir.join(MANIFEST_NAME), |out| {
        out.write_all(manifest.render().as_bytes())
            .map_err(StoreError::Io)
    })?;
    Ok(manifest)
}

/// True if `dir` holds partition-store content (segments or in-flight temp
/// files) without necessarily having a manifest.
fn has_store_content(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name.starts_with("part-") || name.ends_with(".tmp")
    })
}

/// Renames `dir` aside to `<dir>.quarantine` (or `.quarantine.N` if taken).
fn quarantine_dir(dir: &Path) -> Result<PathBuf, StoreError> {
    let base = {
        let mut name = dir.file_name().unwrap_or_default().to_os_string();
        name.push(".quarantine");
        dir.with_file_name(name)
    };
    let mut target = base.clone();
    let mut n = 0u32;
    while target.exists() {
        n += 1;
        if n > 1000 {
            return Err(StoreError::Corrupt(format!(
                "too many quarantined stores next to {}",
                dir.display()
            )));
        }
        let mut name = base.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{n}"));
        target = base.with_file_name(name);
    }
    std::fs::rename(dir, &target).map_err(StoreError::Io)?;
    Ok(target)
}

/// Reader over an on-disk partition store.
#[derive(Debug)]
pub struct PartitionStoreReader {
    dir: PathBuf,
    manifest: PartitionManifest,
}

impl PartitionStoreReader {
    /// Opens a store directory and parses its manifest.
    ///
    /// A directory holding segment data but no readable commit record (the
    /// writer crashed before or while writing `MANIFEST.tlp`) is a *torn
    /// store*: it is renamed aside to `<dir>.quarantine[.N]` and reported
    /// as [`StoreError::TornStore`], never parsed as data.
    ///
    /// # Errors
    ///
    /// [`StoreError::TornStore`] for an uncommitted/corrupt store (after
    /// quarantining it), [`StoreError::Io`] if the directory itself is
    /// missing or unreadable.
    pub fn open(dir: &Path) -> Result<PartitionStoreReader, StoreError> {
        let manifest = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
            Ok(text) => match PartitionManifest::parse(&text) {
                Ok(manifest) => manifest,
                Err(cause) => return Err(Self::quarantine(dir, cause)),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && has_store_content(dir) => {
                return Err(Self::quarantine(
                    dir,
                    StoreError::Manifest {
                        line: 0,
                        message: "commit record MANIFEST.tlp is missing".into(),
                    },
                ));
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Ok(PartitionStoreReader {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Quarantines a torn store and wraps `cause` in the typed error.
    fn quarantine(dir: &Path, cause: StoreError) -> StoreError {
        match quarantine_dir(dir) {
            Ok(quarantined) => StoreError::TornStore {
                quarantined,
                cause: Box::new(cause),
            },
            Err(rename_err) => rename_err,
        }
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &PartitionManifest {
        &self.manifest
    }

    /// Loads every segment and reconstructs the exact `(graph, assignment)`
    /// pair the store was written from.
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for missing/corrupt segments or inconsistent
    /// edge sets.
    pub fn load(&self) -> Result<(CsrGraph, EdgePartition), StoreError> {
        let labeled = self.load_labeled()?;
        let edges: Vec<Edge> = labeled.iter().map(|&(e, _)| e).collect();
        let assignment: Vec<PartitionId> = labeled.iter().map(|&(_, pid)| pid).collect();
        let graph = CsrGraph::from_sorted_canonical_edges(self.manifest.num_vertices, edges)?;
        let partition = EdgePartition::new(self.manifest.num_partitions, assignment)
            .map_err(|e| StoreError::Corrupt(format!("invalid stored assignment: {e}")))?;
        Ok((graph, partition))
    }

    /// Loads only the edge assignment, validated against an existing
    /// `graph` instead of rebuilding a CSR from the segments. Edge `i` of
    /// the canonical table must appear in exactly one segment; the
    /// returned partition maps it to that segment's id.
    ///
    /// This is the zero-copy companion of [`PartitionStoreReader::load`]:
    /// a service holding a `.tlpg` v2 arena can pair it with the store's
    /// assignment without ever materializing a second copy of the graph.
    ///
    /// # Errors
    ///
    /// Everything [`PartitionStoreReader::load`] reports, plus
    /// [`StoreError::Corrupt`] when the stored edge set differs from
    /// `graph`'s (the store and the graph file do not belong together).
    pub fn load_assignment<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> Result<EdgePartition, StoreError> {
        let graph = graph.into();
        let labeled = self.load_labeled()?;
        if labeled.len() != graph.num_edges() {
            return Err(StoreError::Corrupt(format!(
                "store holds {} edges but the graph has {}",
                labeled.len(),
                graph.num_edges()
            )));
        }
        // Both sides are in canonical sorted order, so edge ids line up.
        for (eid, (&(stored, _), edge)) in labeled.iter().zip(graph.edge_iter()).enumerate() {
            if stored != edge {
                return Err(StoreError::Corrupt(format!(
                    "edge {eid} is {:?} in the store but {:?} in the graph — \
                     store and graph do not belong together",
                    stored.endpoints(),
                    edge.endpoints()
                )));
            }
        }
        let assignment: Vec<PartitionId> = labeled.iter().map(|&(_, pid)| pid).collect();
        EdgePartition::new(self.manifest.num_partitions, assignment)
            .map_err(|e| StoreError::Corrupt(format!("invalid stored assignment: {e}")))
    }

    /// Reads every segment, returning `(edge, partition)` pairs in
    /// canonical edge order, with duplicate edges rejected.
    fn load_labeled(&self) -> Result<Vec<(Edge, PartitionId)>, StoreError> {
        let m = self.manifest.num_edges;
        let mut labeled: Vec<(Edge, PartitionId)> = Vec::with_capacity(m);
        for entry in &self.manifest.segments {
            self.read_segment(entry, &mut labeled)?;
        }
        labeled.sort_unstable();
        for pair in labeled.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(StoreError::Corrupt(format!(
                    "edge {:?} appears in partitions {} and {}",
                    pair[0].0, pair[0].1, pair[1].1
                )));
            }
        }
        Ok(labeled)
    }

    /// Recomputes the full quality metrics (RF, balance, per-partition
    /// Claim 1 modularity, replica counts) from the stored segments. The
    /// result is bit-identical to [`PartitionMetrics::compute`] on the live
    /// run that wrote the store.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionStoreReader::load`] errors.
    pub fn recompute_metrics(&self) -> Result<PartitionMetrics, StoreError> {
        let (graph, partition) = self.load()?;
        Ok(PartitionMetrics::compute(&graph, &partition))
    }

    fn read_segment(
        &self,
        entry: &SegmentEntry,
        out: &mut Vec<(Edge, PartitionId)>,
    ) -> Result<(), StoreError> {
        let bytes = std::fs::read(self.dir.join(&entry.file)).map_err(StoreError::Io)?;
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "segment header",
            });
        }
        check_magic(&bytes, &SEGMENT_MAGIC)?;
        let partition = le_u32(&bytes, 8);
        if partition != entry.partition {
            return Err(StoreError::Corrupt(format!(
                "segment file {} labels itself partition {partition}, manifest says {}",
                entry.file, entry.partition
            )));
        }
        let count = le_u64(&bytes, 16) as usize;
        if count != entry.edges {
            return Err(StoreError::Corrupt(format!(
                "segment {} holds {count} edges, manifest says {}",
                entry.file, entry.edges
            )));
        }
        if bytes.len() != SEGMENT_HEADER_LEN + 8 * count + 8 {
            return Err(StoreError::Truncated {
                what: "segment payload",
            });
        }
        // The checksum covers the edge pairs only, not the header.
        let pairs = checksummed(&bytes[SEGMENT_HEADER_LEN..], "segment")?;
        for (u, v) in edge_pairs(pairs) {
            if u >= v || v as usize >= self.manifest.num_vertices {
                return Err(StoreError::Corrupt(format!(
                    "segment {} contains invalid edge ({u}, {v})",
                    entry.file
                )));
            }
            out.push((Edge::new(u, v), entry.partition));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tlp_graph::GraphBuilder;

    fn graph_and_partition() -> (CsrGraph, EdgePartition) {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
            .build();
        let part = EdgePartition::new(2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        (g, part)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-pstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_load_roundtrip_is_exact() {
        let _guard = crate::faults::test_lock();
        let (g, part) = graph_and_partition();
        let dir = temp_dir("rt");
        let manifest = write_partition_store(&dir, &g, &part).unwrap();
        assert_eq!(manifest.num_partitions, 2);

        let reader = PartitionStoreReader::open(&dir).unwrap();
        assert_eq!(reader.manifest(), &manifest);
        let (g2, part2) = reader.load().unwrap();
        assert_eq!(g, g2);
        assert_eq!(part, part2);

        let live = PartitionMetrics::compute(&g, &part);
        assert_eq!(reader.recompute_metrics().unwrap(), live);
        assert_eq!(manifest.replication_factor(), live.replication_factor);
        assert_eq!(manifest.balance(), live.balance);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_text_roundtrip() {
        let _guard = crate::faults::test_lock();
        let (g, part) = graph_and_partition();
        let dir = temp_dir("mt");
        let manifest = write_partition_store(&dir, &g, &part).unwrap();
        let reparsed = PartitionManifest::parse(&manifest.render()).unwrap();
        assert_eq!(manifest, reparsed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        let _guard = crate::faults::test_lock();
        assert!(matches!(
            PartitionManifest::parse("not a manifest\n"),
            Err(StoreError::Manifest { line: 1, .. })
        ));
        // Missing `end` sentinel = truncated.
        let text = "tlp-partition-store v1\npartitions 1\nvertices 2\nedges 1\ncovered 2\nreplicas 2\nsegment 0 part-00000.seg 1 0000000000000000\n";
        assert!(matches!(
            PartitionManifest::parse(text),
            Err(StoreError::Truncated { .. })
        ));
        // Garbage line.
        let text = "tlp-partition-store v1\nwat 3 4\nend\n";
        assert!(matches!(
            PartitionManifest::parse(text),
            Err(StoreError::Manifest { line: 2, .. })
        ));
    }

    #[test]
    fn segment_corruption_is_typed() {
        let _guard = crate::faults::test_lock();
        let (g, part) = graph_and_partition();
        let dir = temp_dir("sc");
        write_partition_store(&dir, &g, &part).unwrap();

        // Flip one payload byte in segment 0.
        let seg = dir.join("part-00000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let reader = PartitionStoreReader::open(&dir).unwrap();
        let err = reader.load().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
            ),
            "unexpected error {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_typed() {
        let _guard = crate::faults::test_lock();
        let (g, part) = graph_and_partition();
        let dir = temp_dir("ts");
        write_partition_store(&dir, &g, &part).unwrap();
        let seg = dir.join("part-00001.seg");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();
        let reader = PartitionStoreReader::open(&dir).unwrap();
        assert!(matches!(
            reader.load().unwrap_err(),
            StoreError::Truncated { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
