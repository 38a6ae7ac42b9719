//! The streaming baselines' pipeline run function.
//!
//! [`run_streaming`] drives the [`StreamingKind`] placers
//! (Random, DBH, Greedy, HDRF) for the `tlp-core` pipeline: it consumes
//! any [`EdgeSource`] in two bounded-memory passes — pass 1 places every
//! edge in arrival order, pass 2 replays the stream through the canonical
//! [`StreamedMetrics`] accumulator — and emits a [`RunArtifact`] whose
//! metrics are bit-identical to
//! [`PartitionMetrics::compute`](tlp_core::PartitionMetrics::compute) on
//! the materialized graph (pinned by the conformance tests). Because
//! arrival order over every canonical-order source equals `EdgeId` order,
//! the streamed assignments double as an [`EdgePartition`], and streamed
//! runs agree bit-for-bit with
//! [`StreamingPartitioner`](crate::StreamingPartitioner) driven in natural
//! order.

use crate::streaming::StreamingKind;
use crate::util::degrees;
use tlp_core::{EdgePartition, PartitionId, PipelineError, RunArtifact, StreamedMetrics};
use tlp_graph::{EdgeSource, SourceError};

/// Number of vertices, from the hint or by materializing.
fn resolve_num_vertices(source: &mut dyn EdgeSource) -> Result<usize, PipelineError> {
    if let Some(n) = source.num_vertices_hint() {
        return Ok(n);
    }
    if !source.supports_random_access() {
        return Err(PipelineError::Source(SourceError::MissingMeta {
            what: "num_vertices",
            source: source.describe(),
        }));
    }
    Ok(source.random_access()?.num_vertices())
}

/// Final degrees, from the hint or by materializing.
fn resolve_degrees(source: &mut dyn EdgeSource) -> Result<Vec<u32>, PipelineError> {
    if let Some(degrees) = source.degrees_hint() {
        return Ok(degrees);
    }
    if !source.supports_random_access() {
        return Err(PipelineError::Source(SourceError::MissingMeta {
            what: "degrees",
            source: source.describe(),
        }));
    }
    Ok(degrees(source.random_access()?))
}

/// Runs the `kind` heuristic over `source` in arrival order (seeded by
/// `seed` where the heuristic draws randomness), with at most the source's
/// budget of edges in memory.
///
/// # Errors
///
/// [`SourceError::MissingMeta`] when the source can neither hint nor
/// materialize the vertex count (or, for DBH, the degrees); otherwise
/// source and placer errors.
pub fn run_streaming(
    kind: StreamingKind,
    seed: u64,
    source: &mut dyn EdgeSource,
    num_partitions: usize,
) -> Result<RunArtifact, PipelineError> {
    let _run = tlp_core::run_span(kind.label(), num_partitions);
    let _trial = tlp_core::trial_span(0, Some(seed));
    let num_vertices = resolve_num_vertices(source)?;
    let degrees = kind
        .needs_degrees()
        .then(|| resolve_degrees(source))
        .transpose()?;
    let mut placer = kind.placer(num_vertices, num_partitions, seed, degrees)?;

    // Pass 1: place every edge in arrival order, recording assignments
    // and the replica/load sides of the metrics.
    let mut metrics = StreamedMetrics::new(num_vertices, num_partitions);
    let mut assignments: Vec<PartitionId> = Vec::new();
    let start = std::time::Instant::now();
    let stats = {
        let _pass = tlp_obs::span("pass");
        source.stream_pass(&mut |chunk| {
            tlp_obs::counter("stream.chunk", 1);
            tlp_obs::counter("stream.edges", chunk.len() as u64);
            for e in chunk {
                let q = placer.place(e.source(), e.target());
                metrics.observe_assignment(e.source(), e.target(), q);
                assignments.push(q);
            }
        })?
    };
    let seconds = start.elapsed().as_secs_f64();

    // Pass 2: replay the (deterministic) stream to count external
    // incidences against the final replica sets.
    let mut index = 0usize;
    {
        let _pass = tlp_obs::span("pass");
        source.stream_pass(&mut |chunk| {
            tlp_obs::counter("stream.chunk", 1);
            tlp_obs::counter("stream.edges", chunk.len() as u64);
            for e in chunk {
                if let Some(&q) = assignments.get(index) {
                    metrics.observe_external(e.source(), e.target(), q);
                }
                index += 1;
            }
        })?;
    }
    if index != assignments.len() {
        return Err(PipelineError::Source(SourceError::Corrupt(format!(
            "stream replay mismatch: pass 1 delivered {} edges, pass 2 delivered {index}",
            assignments.len()
        ))));
    }

    tlp_obs::counter("run.edges", assignments.len() as u64);
    let partition = EdgePartition::new(num_partitions, assignments)?;
    let metrics = metrics.finish();
    let mut artifact = RunArtifact::new(kind.label(), partition, metrics, seconds);
    artifact.peak_stream_buffer = Some(stats.peak_buffer);
    Ok(artifact)
}
