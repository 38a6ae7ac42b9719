//! The unified partitioning pipeline: [`AlgorithmRegistry`] and
//! [`RunArtifact`].
//!
//! Every partitioner in the workspace — TLP and its ablations, the
//! streaming baselines, NE, METIS — is one registry row: an
//! [`AlgorithmEntry`] whose `run` function takes one [`AlgoConfig`],
//! consumes any [`EdgeSource`] and emits one [`RunArtifact`] (assignment +
//! canonical [`PartitionMetrics`] + timing + trial data). Call sites (the
//! CLI, the experiment harness, tests, CI scripts) look algorithms up **by
//! name** in an [`AlgorithmRegistry`] instead of wiring concrete types per
//! binary. [`run_partitioner`] is the run function of every materialized
//! [`EdgePartitioner`] row, and [`run_tlp`] that of TLP, with its
//! kill-and-resume hooks.
//!
//! Capability: a row declares [`Capability::RandomAccess`] (needs the
//! materialized [`CsrGraph`](tlp_graph::CsrGraph)) or
//! [`Capability::Streaming`] (bounded-memory passes suffice). Running a
//! random-access algorithm against a streaming-only source fails with the
//! typed [`PipelineError::NeedsRandomAccess`] — never a silent fallback.
//!
//! This module defines the mechanism; the `tlp-pipeline` crate lists the
//! workspace's built-in rows (it can see every algorithm crate, which
//! `tlp-core` cannot).

use crate::engine::CheckpointSink;
use crate::{
    EdgePartition, EdgePartitioner, EngineCheckpoint, ParallelTrialRunner, PartitionError,
    PartitionMetrics, TlpConfig, TwoStageLocalPartitioner,
};
use std::collections::BTreeMap;
use std::time::Instant;
use tlp_graph::{EdgeSource, SourceError};

/// What kind of edge access an algorithm needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Needs the whole graph materialized (CSR) — cannot run from a
    /// strictly budgeted stream.
    RandomAccess,
    /// Runs in sequential bounded-memory passes; works from any source.
    Streaming,
}

/// Error from running a pipeline algorithm.
#[derive(Debug)]
pub enum PipelineError {
    /// The underlying partitioner failed.
    Partition(PartitionError),
    /// The edge source failed.
    Source(SourceError),
    /// A random-access algorithm was run against a streaming-only source.
    NeedsRandomAccess {
        /// The algorithm's label.
        algorithm: String,
        /// The refusing source's description.
        source: String,
    },
    /// No registered algorithm has this name.
    UnknownAlgorithm(String),
    /// The algorithm spec string or its parameter is invalid.
    Spec(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Partition(e) => write!(f, "{e}"),
            PipelineError::Source(e) => write!(f, "{e}"),
            PipelineError::NeedsRandomAccess { algorithm, source } => write!(
                f,
                "algorithm {algorithm} needs random access, but source {source} is streaming-only"
            ),
            PipelineError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            PipelineError::Spec(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Partition(e) => Some(e),
            PipelineError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for PipelineError {
    fn from(e: PartitionError) -> Self {
        PipelineError::Partition(e)
    }
}

impl From<SourceError> for PipelineError {
    fn from(e: SourceError) -> Self {
        PipelineError::Source(e)
    }
}

/// The unified configuration every registry row runs with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlgoConfig {
    /// Base RNG seed.
    pub seed: u64,
    /// Worker-thread cap for multi-trial runs (0 = all available cores).
    pub threads: usize,
    /// Number of independently seeded trials (TLP only; best RF wins).
    pub trials: usize,
    /// Algorithm parameter from a `name=VALUE` spec (e.g. the `R` of
    /// `tlp-r=0.3`); filled in by [`AlgorithmRegistry::run`].
    pub param: Option<f64>,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig {
            seed: 42,
            threads: 0,
            trials: 1,
            param: None,
        }
    }
}

impl AlgoConfig {
    /// A default config with the given seed.
    pub fn seeded(seed: u64) -> Self {
        AlgoConfig {
            seed,
            ..AlgoConfig::default()
        }
    }
}

/// What one pipeline run produced — the single result type every
/// algorithm emits and every consumer (harness reporters, the CLI,
/// `tlp-sim`) reads.
#[derive(Clone, Debug)]
pub struct RunArtifact {
    /// The algorithm's display label (e.g. "TLP", "HDRF").
    pub algorithm: String,
    /// Number of partitions requested.
    pub num_partitions: usize,
    /// The assignment. For streaming runs the indices are arrival order,
    /// which for every canonical-order source coincides with `EdgeId`s.
    pub partition: EdgePartition,
    /// Canonical quality metrics (single-sourced in [`PartitionMetrics`]).
    pub metrics: PartitionMetrics,
    /// Wall-clock partitioning time (excludes metric computation).
    pub seconds: f64,
    /// Peak edge-buffer length of the placement pass, for streaming runs.
    pub peak_stream_buffer: Option<usize>,
    /// Per-trial replication factors of a multi-trial run (empty for
    /// single runs); failed trials hold `NaN`.
    pub trial_rfs: Vec<f64>,
    /// Winning trial index of a multi-trial run.
    pub best_trial: Option<usize>,
    /// Folded observability report, when the run was observed (see
    /// [`AlgorithmRegistry::run_recorded`]).
    pub obs: Option<tlp_obs::ObsReport>,
}

impl RunArtifact {
    /// Assembles the common fields; the streaming and trial extras start
    /// empty and are filled by the producer.
    pub fn new(
        algorithm: impl Into<String>,
        partition: EdgePartition,
        metrics: PartitionMetrics,
        seconds: f64,
    ) -> Self {
        RunArtifact {
            algorithm: algorithm.into(),
            num_partitions: partition.num_partitions(),
            partition,
            metrics,
            seconds,
            peak_stream_buffer: None,
            trial_rfs: Vec::new(),
            best_trial: None,
            obs: None,
        }
    }

    /// The headline replication factor.
    pub fn rf(&self) -> f64 {
        self.metrics.replication_factor
    }

    /// The load balance.
    pub fn balance(&self) -> f64 {
        self.metrics.balance
    }

    /// `(min, max)` replication factor over this run's trials (`NaN`
    /// slots are skipped). Falls back to `(rf, rf)` for single runs.
    pub fn rf_spread(&self) -> (f64, f64) {
        if self.trial_rfs.is_empty() {
            return (self.rf(), self.rf());
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &rf in &self.trial_rfs {
            min = min.min(rf);
            max = max.max(rf);
        }
        (min, max)
    }
}

/// Opens the mandatory `run` span every registry run emits (fields:
/// algorithm label and partition count). The span skeleton instrumented
/// runs guarantee is `run` → `trial` → `round`/`pass`.
pub fn run_span(label: &str, num_partitions: usize) -> tlp_obs::SpanGuard {
    tlp_obs::span_with(
        "run",
        vec![
            (
                "algorithm".to_string(),
                tlp_obs::Field::Str(label.to_string()),
            ),
            ("p".to_string(), tlp_obs::Field::U64(num_partitions as u64)),
        ],
    )
}

/// Opens a `trial` span: once for a single-trial (non-raced) run, and
/// once per trial inside [`crate::ParallelTrialRunner`]. `seed` is
/// annotated when the algorithm is seeded.
pub fn trial_span(index: usize, seed: Option<u64>) -> tlp_obs::SpanGuard {
    let mut fields = vec![("index".to_string(), tlp_obs::Field::U64(index as u64))];
    if let Some(seed) = seed {
        fields.push(("seed".to_string(), tlp_obs::Field::U64(seed)));
    }
    tlp_obs::span_with("trial", fields)
}

/// Materializes the source or maps the refusal to the typed capability
/// error.
fn materialize<'s>(
    source: &'s mut dyn EdgeSource,
    algorithm: &str,
) -> Result<tlp_graph::GraphView<'s>, PipelineError> {
    let description = source.describe();
    if !source.supports_random_access() {
        return Err(PipelineError::NeedsRandomAccess {
            algorithm: algorithm.to_string(),
            source: description,
        });
    }
    source.random_access().map_err(PipelineError::Source)
}

/// Runs any [`EdgePartitioner`] over the materialized `source`: one trial
/// holding one `pass`. The artifact's label is the partitioner's `name()`.
///
/// # Errors
///
/// [`PipelineError::NeedsRandomAccess`] when `source` is streaming-only,
/// otherwise source and partitioner errors.
pub fn run_partitioner(
    partitioner: &dyn EdgePartitioner,
    source: &mut dyn EdgeSource,
    num_partitions: usize,
) -> Result<RunArtifact, PipelineError> {
    let label = partitioner.name();
    let graph = materialize(source, label)?;
    let _run = run_span(label, num_partitions);
    let start = Instant::now();
    let partition = {
        let _trial = trial_span(0, None);
        let _pass = tlp_obs::span("pass");
        partitioner.partition_view(graph, num_partitions)?
    };
    let seconds = start.elapsed().as_secs_f64();
    tlp_obs::counter("run.edges", partition.num_edges() as u64);
    let metrics = PartitionMetrics::compute(graph, &partition);
    Ok(RunArtifact::new(label, partition, metrics, seconds))
}

/// Runs TLP over the materialized `source`: the `tlp` registry row when
/// `resume` and `sink` are `None`.
///
/// With `config.trials > 1` it races independently seeded runs and keeps
/// the best RF. A single trial continues from `resume` when given and
/// hands `sink` a snapshot after every round (see
/// [`TwoStageLocalPartitioner::partition_with_checkpoints`]); either way
/// the run emits the same `run` → `trial` → `round` skeleton.
///
/// # Errors
///
/// [`PipelineError::NeedsRandomAccess`] when `source` is streaming-only,
/// [`PartitionError::Checkpoint`] when a multi-trial run is given a
/// checkpoint hook or `resume` does not fit, otherwise TLP's own errors.
pub fn run_tlp(
    config: &AlgoConfig,
    source: &mut dyn EdgeSource,
    num_partitions: usize,
    resume: Option<&EngineCheckpoint>,
    sink: Option<CheckpointSink<'_>>,
) -> Result<RunArtifact, PipelineError> {
    let graph = materialize(source, "TLP")?;
    let tlp = TlpConfig::new()
        .seed(config.seed)
        .trials(config.trials)
        .threads(config.threads);
    tlp.validate()?;
    let raced = tlp.trials_value() > 1;
    if raced && (resume.is_some() || sink.is_some()) {
        return Err(
            PartitionError::Checkpoint("a multi-trial run cannot be checkpointed".into()).into(),
        );
    }
    let _run = run_span("TLP", num_partitions);
    let start = Instant::now();
    let (partition, trial_rfs, best_trial) = if raced {
        let report = ParallelTrialRunner::new(tlp).run(graph, num_partitions)?;
        (report.partition, report.trial_rfs, Some(report.best_trial))
    } else {
        let _trial = trial_span(0, Some(config.seed));
        let partition = TwoStageLocalPartitioner::new(tlp).partition_with_checkpoints(
            graph,
            num_partitions,
            resume,
            sink,
        )?;
        (partition, Vec::new(), None)
    };
    let seconds = start.elapsed().as_secs_f64();
    tlp_obs::counter("run.edges", partition.num_edges() as u64);
    let metrics = PartitionMetrics::compute(graph, &partition);
    Ok(RunArtifact {
        trial_rfs,
        best_trial,
        ..RunArtifact::new("TLP", partition, metrics, seconds)
    })
}

/// Whether (and how) a registered algorithm takes a `name=VALUE` parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamSpec {
    /// Plain `name` only; a parameter is a spec error.
    None,
    /// `name=VALUE` required, with this parameter name for messages.
    Required(&'static str),
}

/// One registry row: identity, capability, and the run function.
pub struct AlgorithmEntry {
    /// Lookup name (lowercase, e.g. "hdrf").
    pub name: &'static str,
    /// Display label (e.g. "HDRF").
    pub label: &'static str,
    /// Access pattern the run function needs.
    pub capability: Capability,
    /// Parameter contract of the spec string.
    pub param: ParamSpec,
    /// Runs the algorithm under a config whose `param` the spec filled in.
    pub run: fn(&AlgoConfig, &mut dyn EdgeSource, usize) -> Result<RunArtifact, PipelineError>,
}

/// Name → row table: the single place call sites resolve algorithm
/// names, replacing per-binary `match` wiring. Collect one from its rows
/// (see `tlp-pipeline`'s `builtin_registry`); a repeated name keeps the
/// last row.
pub struct AlgorithmRegistry {
    entries: BTreeMap<&'static str, AlgorithmEntry>,
}

impl FromIterator<AlgorithmEntry> for AlgorithmRegistry {
    fn from_iter<I: IntoIterator<Item = AlgorithmEntry>>(rows: I) -> Self {
        AlgorithmRegistry {
            entries: rows.into_iter().map(|row| (row.name, row)).collect(),
        }
    }
}

impl AlgorithmRegistry {
    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// Iterates the registry rows in name order.
    pub fn entries(&self) -> impl Iterator<Item = &AlgorithmEntry> {
        self.entries.values()
    }

    /// Splits a spec string into `(name, parameter)` at the first `=`.
    pub fn parse_spec(spec: &str) -> (&str, Option<&str>) {
        match spec.split_once('=') {
            Some((name, param)) => (name, Some(param)),
            None => (spec, None),
        }
    }

    /// The entry a spec string resolves to, if any.
    pub fn entry_of(&self, spec: &str) -> Option<&AlgorithmEntry> {
        let (name, _) = Self::parse_spec(spec);
        self.entries.get(name)
    }

    /// Runs the row a spec string names, merging its `=VALUE` parameter
    /// into `config`: the registry's front door.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownAlgorithm`] for an unregistered name,
    /// [`PipelineError::Spec`] for a missing/extra/unparsable parameter,
    /// plus whatever the row's run function reports.
    pub fn run(
        &self,
        spec: &str,
        config: &AlgoConfig,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError> {
        let (name, raw_param) = Self::parse_spec(spec);
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| PipelineError::UnknownAlgorithm(name.to_string()))?;
        let mut config = *config;
        match (entry.param, raw_param) {
            (ParamSpec::None, None) => {}
            (ParamSpec::None, Some(_)) => {
                return Err(PipelineError::Spec(format!(
                    "algorithm {name} takes no parameter, got {spec:?}"
                )));
            }
            (ParamSpec::Required(what), None) => {
                return Err(PipelineError::Spec(format!(
                    "algorithm {name} requires a parameter: {name}=<{what}>"
                )));
            }
            (ParamSpec::Required(what), Some(raw)) => {
                let value: f64 = raw.parse().map_err(|_| {
                    PipelineError::Spec(format!("invalid {what} in {spec:?}: {raw:?}"))
                })?;
                config.param = Some(value);
            }
        }
        (entry.run)(&config, source, num_partitions)
    }

    /// [`AlgorithmRegistry::run`] with a recording observer installed: the
    /// returned artifact carries the folded
    /// [`ObsReport`](tlp_obs::ObsReport) and the raw event stream rides
    /// along for callers that re-emit or diff traces.
    ///
    /// The assignment is guaranteed bit-identical to an unobserved
    /// [`run`](AlgorithmRegistry::run) — observers only listen — and the
    /// canonical event stream is a pure function of `(spec, config,
    /// source, num_partitions)`; both properties are pinned by the
    /// workspace's `obs_determinism` suite.
    ///
    /// # Errors
    ///
    /// Exactly those of [`AlgorithmRegistry::run`].
    pub fn run_recorded(
        &self,
        spec: &str,
        config: &AlgoConfig,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<(RunArtifact, Vec<tlp_obs::Event>), PipelineError> {
        let (result, events) =
            tlp_obs::with_recording(|| self.run(spec, config, source, num_partitions));
        let mut artifact = result?;
        artifact.obs = Some(tlp_obs::ObsReport::fold(&events));
        Ok((artifact, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::generators::chung_lu;
    use tlp_graph::CsrSource;

    fn tiny_registry() -> AlgorithmRegistry {
        AlgorithmRegistry::from_iter([AlgorithmEntry {
            name: "tlp",
            label: "TLP",
            capability: Capability::RandomAccess,
            param: ParamSpec::None,
            run: |config, source, p| run_tlp(config, source, p, None, None),
        }])
    }

    #[test]
    fn registry_runs_tlp_identically_to_the_direct_path() {
        let g = chung_lu(300, 1200, 2.2, 7);
        let registry = tiny_registry();
        let artifact = registry
            .run("tlp", &AlgoConfig::seeded(9), &mut CsrSource::new(&g), 6)
            .unwrap();
        let direct = TwoStageLocalPartitioner::new(TlpConfig::new().seed(9))
            .partition(&g, 6)
            .unwrap();
        assert_eq!(artifact.partition, direct);
        assert_eq!(
            artifact.metrics,
            PartitionMetrics::compute(&g, &direct),
            "artifact metrics must be the canonical computation"
        );
        assert_eq!(artifact.algorithm, "TLP");
        assert_eq!(artifact.num_partitions, 6);
        assert!(artifact.trial_rfs.is_empty());
    }

    #[test]
    fn multi_trial_artifact_matches_the_trial_runner() {
        let g = chung_lu(250, 1000, 2.1, 3);
        let registry = tiny_registry();
        let config = AlgoConfig {
            seed: 11,
            trials: 4,
            ..AlgoConfig::default()
        };
        let artifact = registry
            .run("tlp", &config, &mut CsrSource::new(&g), 5)
            .unwrap();
        let report = ParallelTrialRunner::new(TlpConfig::new().seed(11).trials(4))
            .run(&g, 5)
            .unwrap();
        assert_eq!(artifact.partition, report.partition);
        assert_eq!(artifact.trial_rfs, report.trial_rfs);
        assert_eq!(artifact.best_trial, Some(report.best_trial));
        let (best, _) = artifact.rf_spread();
        assert_eq!(best, report.rf_spread().0);
    }

    #[test]
    fn unknown_names_and_bad_params_are_typed() {
        let registry = tiny_registry();
        let g = chung_lu(50, 150, 2.2, 1);
        let err = registry
            .run("nope", &AlgoConfig::default(), &mut CsrSource::new(&g), 2)
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnknownAlgorithm(_)));
        let err = registry
            .run(
                "tlp=0.5",
                &AlgoConfig::default(),
                &mut CsrSource::new(&g),
                2,
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::Spec(_)));
    }

    #[test]
    fn spec_parsing_splits_on_first_equals() {
        assert_eq!(AlgorithmRegistry::parse_spec("tlp"), ("tlp", None));
        assert_eq!(
            AlgorithmRegistry::parse_spec("tlp-r=0.5"),
            ("tlp-r", Some("0.5"))
        );
    }
}
