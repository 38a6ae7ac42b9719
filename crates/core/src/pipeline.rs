//! The unified partitioning pipeline: [`Algorithm`], [`AlgorithmRegistry`],
//! and [`RunArtifact`].
//!
//! Every partitioner in the workspace — TLP and its ablations, the
//! streaming baselines, NE, METIS — is exposed as an [`Algorithm`]: a boxed
//! runner built from one [`AlgoConfig`] that consumes any
//! [`EdgeSource`](tlp_graph::EdgeSource) and emits one [`RunArtifact`]
//! (assignment + canonical [`PartitionMetrics`] + timing + provenance).
//! Call sites (the CLI, the experiment harness, tests, CI scripts) look
//! algorithms up **by name** in an [`AlgorithmRegistry`] instead of wiring
//! concrete types per binary.
//!
//! Capability dispatch: an algorithm declares [`Capability::RandomAccess`]
//! (needs the materialized [`CsrGraph`](tlp_graph::CsrGraph)) or
//! [`Capability::Streaming`] (bounded-memory passes suffice). Running a
//! random-access algorithm against a streaming-only source fails with the
//! typed [`PipelineError::NeedsRandomAccess`] — never a silent fallback.
//!
//! This module defines the mechanism; the `tlp-pipeline` crate registers
//! the workspace's built-in algorithms (it can see every algorithm crate,
//! which `tlp-core` cannot).

use crate::engine::{run_staged, ModularitySwitch};
use crate::{
    EdgePartition, EdgePartitioner, ParallelTrialRunner, PartitionError, PartitionMetrics,
    TlpConfig, Trace,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
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

impl Capability {
    /// Short human-readable label ("csr-only" / "streaming").
    pub fn label(self) -> &'static str {
        match self {
            Capability::RandomAccess => "csr-only",
            Capability::Streaming => "streaming",
        }
    }
}

/// Error from building or running a pipeline algorithm.
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

/// The unified configuration every registry builder receives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlgoConfig {
    /// Base RNG seed.
    pub seed: u64,
    /// Worker-thread cap for multi-trial runs (0 = all available cores).
    pub threads: usize,
    /// Number of independently seeded trials (TLP only; best RF wins).
    pub trials: usize,
    /// Record the per-round selection trace (TLP family, single trial).
    pub record_trace: bool,
    /// Algorithm parameter from a `name=VALUE` spec (e.g. the `R` of
    /// `tlp-r=0.3`); filled in by [`AlgorithmRegistry::build`].
    pub param: Option<f64>,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig {
            seed: 42,
            threads: 0,
            trials: 1,
            record_trace: false,
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
    /// Per-round selection trace, when requested and supported.
    pub trace: Option<Trace>,
    /// Wall-clock partitioning time (excludes metric computation).
    pub seconds: f64,
    /// Peak edge-buffer length of the placement pass, for streaming runs.
    pub peak_stream_buffer: Option<usize>,
    /// Per-trial replication factors of a multi-trial run (empty for
    /// single runs); failed trials hold `NaN`.
    pub trial_rfs: Vec<f64>,
    /// Winning trial index of a multi-trial run.
    pub best_trial: Option<usize>,
    /// Partition store directory, when the caller persisted one.
    pub store_dir: Option<PathBuf>,
    /// Checkpoint directory, when the run was checkpointed.
    pub checkpoint_dir: Option<PathBuf>,
    /// Folded observability report, when the run was observed (see
    /// [`AlgorithmRegistry::run_recorded`]).
    pub obs: Option<tlp_obs::ObsReport>,
}

impl RunArtifact {
    /// Assembles the common fields; provenance extras (store/checkpoint
    /// linkage, trial data) start empty and are filled by the producer.
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
            trace: None,
            seconds,
            peak_stream_buffer: None,
            trial_rfs: Vec::new(),
            best_trial: None,
            store_dir: None,
            checkpoint_dir: None,
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

/// A runnable, already-configured partitioning algorithm.
pub trait Algorithm {
    /// Display label (matches the wrapped partitioner's `name()`).
    fn label(&self) -> &str;

    /// Whether this algorithm needs random access or streams.
    fn capability(&self) -> Capability;

    /// Runs the algorithm over `source` and assembles the artifact.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NeedsRandomAccess`] when a random-access algorithm
    /// meets a streaming-only source; otherwise source and partitioner
    /// errors.
    fn run(
        &self,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError>;
}

/// Opens the mandatory `run` span every [`Algorithm::run`] implementation
/// emits (fields: algorithm label and partition count). The span skeleton
/// instrumented runs guarantee is `run` → `trial` → `round`/`pass`.
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

/// Adapter: any [`EdgePartitioner`] as a random-access [`Algorithm`].
pub struct MaterializedAlgorithm {
    label: String,
    inner: Box<dyn EdgePartitioner>,
}

impl MaterializedAlgorithm {
    /// Wraps a partitioner; the label is the partitioner's `name()`.
    pub fn new(inner: Box<dyn EdgePartitioner>) -> Self {
        MaterializedAlgorithm {
            label: inner.name().to_string(),
            inner,
        }
    }
}

impl Algorithm for MaterializedAlgorithm {
    fn label(&self) -> &str {
        &self.label
    }

    fn capability(&self) -> Capability {
        Capability::RandomAccess
    }

    fn run(
        &self,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError> {
        let graph = materialize(source, &self.label)?;
        let _run = run_span(&self.label, num_partitions);
        let start = Instant::now();
        let partition = {
            let _trial = trial_span(0, None);
            let _pass = tlp_obs::span("pass");
            self.inner.partition_view(graph, num_partitions)?
        };
        let seconds = start.elapsed().as_secs_f64();
        tlp_obs::counter("run.edges", partition.num_edges() as u64);
        let metrics = PartitionMetrics::compute(graph, &partition);
        Ok(RunArtifact::new(&self.label, partition, metrics, seconds))
    }
}

/// TLP as a pipeline [`Algorithm`]: honors `trials` (racing independently
/// seeded runs, keeping the best RF) and `record_trace` (single trial).
pub struct TlpAlgorithm {
    config: TlpConfig,
}

impl TlpAlgorithm {
    /// Builds TLP from the unified config.
    pub fn new(config: &AlgoConfig) -> Self {
        TlpAlgorithm {
            config: TlpConfig::new()
                .seed(config.seed)
                .trials(config.trials)
                .threads(config.threads)
                .record_trace(config.record_trace),
        }
    }
}

impl Algorithm for TlpAlgorithm {
    fn label(&self) -> &str {
        "TLP"
    }

    fn capability(&self) -> Capability {
        Capability::RandomAccess
    }

    fn run(
        &self,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError> {
        let graph = materialize(source, "TLP")?;
        self.config.validate()?;
        let _run = run_span("TLP", num_partitions);
        let start = Instant::now();
        if self.config.trials_value() > 1 {
            let report = ParallelTrialRunner::new(self.config).run(graph, num_partitions)?;
            let seconds = start.elapsed().as_secs_f64();
            tlp_obs::counter("run.edges", report.partition.num_edges() as u64);
            let metrics = PartitionMetrics::compute(graph, &report.partition);
            let mut artifact = RunArtifact::new("TLP", report.partition, metrics, seconds);
            artifact.trial_rfs = report.trial_rfs;
            artifact.best_trial = Some(report.best_trial);
            return Ok(artifact);
        }
        let (partition, trace) = {
            let _trial = trial_span(0, Some(self.config.seed_value()));
            run_staged(graph, num_partitions, &self.config, ModularitySwitch)?
        };
        let seconds = start.elapsed().as_secs_f64();
        tlp_obs::counter("run.edges", partition.num_edges() as u64);
        let metrics = PartitionMetrics::compute(graph, &partition);
        let mut artifact = RunArtifact::new("TLP", partition, metrics, seconds);
        artifact.trace = trace;
        Ok(artifact)
    }
}

/// Whether (and how) a registered algorithm takes a `name=VALUE` parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamSpec {
    /// Plain `name` only; a parameter is a spec error.
    None,
    /// `name=VALUE` required, with this parameter name for messages.
    Required(&'static str),
}

/// Builder closure: unified config in, runnable algorithm out.
pub type AlgorithmBuilder =
    Box<dyn Fn(&AlgoConfig) -> Result<Box<dyn Algorithm>, PipelineError> + Send + Sync>;

/// One registry row: identity, capability, and the builder.
pub struct AlgorithmEntry {
    /// Lookup name (lowercase, e.g. "hdrf").
    pub name: &'static str,
    /// Display label (e.g. "HDRF").
    pub label: &'static str,
    /// Access pattern the built algorithm declares.
    pub capability: Capability,
    /// Parameter contract of the spec string.
    pub param: ParamSpec,
    /// One-line description for listings.
    pub summary: &'static str,
    builder: AlgorithmBuilder,
}

/// Name → algorithm-builder table: the single place call sites resolve
/// algorithm names, replacing per-binary `match` wiring.
#[derive(Default)]
pub struct AlgorithmRegistry {
    entries: BTreeMap<&'static str, AlgorithmEntry>,
}

impl AlgorithmRegistry {
    /// An empty registry (see `tlp-pipeline`'s `builtin_registry` for the
    /// populated one).
    pub fn new() -> Self {
        AlgorithmRegistry::default()
    }

    /// Registers an algorithm under `name`. Re-registering a name replaces
    /// the previous entry.
    pub fn register(
        &mut self,
        name: &'static str,
        label: &'static str,
        capability: Capability,
        param: ParamSpec,
        summary: &'static str,
        builder: AlgorithmBuilder,
    ) {
        self.entries.insert(
            name,
            AlgorithmEntry {
                name,
                label,
                capability,
                param,
                summary,
                builder,
            },
        );
    }

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

    /// Builds the algorithm a spec string names, merging its `=VALUE`
    /// parameter into `config`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownAlgorithm`] for an unregistered name,
    /// [`PipelineError::Spec`] for a missing/extra/unparsable parameter,
    /// plus whatever the builder reports.
    pub fn build(
        &self,
        spec: &str,
        config: &AlgoConfig,
    ) -> Result<Box<dyn Algorithm>, PipelineError> {
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
        (entry.builder)(&config)
    }

    /// Builds and runs in one step: the registry's front door.
    ///
    /// # Errors
    ///
    /// Everything [`AlgorithmRegistry::build`] and [`Algorithm::run`]
    /// report.
    pub fn run(
        &self,
        spec: &str,
        config: &AlgoConfig,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError> {
        self.build(spec, config)?.run(source, num_partitions)
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
    use crate::TwoStageLocalPartitioner;
    use tlp_graph::generators::chung_lu;
    use tlp_graph::CsrSource;

    fn tiny_registry() -> AlgorithmRegistry {
        let mut registry = AlgorithmRegistry::new();
        registry.register(
            "tlp",
            "TLP",
            Capability::RandomAccess,
            ParamSpec::None,
            "two-stage local partitioner",
            Box::new(|config| Ok(Box::new(TlpAlgorithm::new(config)))),
        );
        registry
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
    fn record_trace_fills_the_artifact() {
        let g = chung_lu(150, 600, 2.2, 1);
        let registry = tiny_registry();
        let config = AlgoConfig {
            record_trace: true,
            ..AlgoConfig::default()
        };
        let artifact = registry
            .run("tlp", &config, &mut CsrSource::new(&g), 4)
            .unwrap();
        assert!(artifact.trace.is_some());
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
