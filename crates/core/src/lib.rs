//! Two-stage local graph edge partitioning (TLP).
//!
//! This crate implements the core contribution of *"Local Graph Edge
//! Partitioning with a Two-Stage Heuristic Method"* (Ji, Bu, Li, Wu — ICDCS
//! 2019): a **local** edge partitioner that grows one partition at a time
//! from a random seed vertex, holding only the current partition and its
//! frontier in memory, and switching between two vertex-selection heuristics
//! based on the partition's *modularity* `M(P_k) = |E(P_k)| / |E_out(P_k)|`:
//!
//! * **Stage I** (`M <= 1`, loose partition): select the frontier vertex
//!   closest to the partition with the highest degree (Eq. 7 of the
//!   paper), read from a per-edge triangle table built once per graph.
//! * **Stage II** (`M > 1`, tight partition): select the frontier vertex
//!   with the largest modularity gain ([`stage2`], Eq. 9-11).
//!
//! The paper's variants differ only in that switching rule, so one
//! [`TwoStageLocalPartitioner`] runs them all: the [`StageSwitch`] in its
//! [`TlpConfig`] is TLP's modularity rule by default, `EdgeRatio(R)` for
//! TLP_R (Stage I while `|E(P_k)| <= R * C`), or one of the two
//! single-stage ablations.
//!
//! # Quick start
//!
//! ```
//! use tlp_core::{EdgePartitioner, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner};
//! use tlp_graph::generators::chung_lu;
//!
//! let graph = chung_lu(500, 2_000, 2.2, 42);
//! let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(7));
//! let partition = tlp.partition(&graph, 8)?;
//! let metrics = PartitionMetrics::compute(&graph, &partition);
//! assert!(metrics.replication_factor >= 1.0);
//! # Ok::<(), tlp_core::PartitionError>(())
//! ```
//!
//! The companion crates provide baselines (`tlp-baselines`), a METIS-style
//! multilevel comparator (`tlp-metis`), and the experiment harness that
//! regenerates every table and figure of the paper (`tlp-harness`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
mod engine;
mod error;
mod metrics;
mod modularity;
mod parallel;
mod partition;
mod partitioner;
mod pipeline;
mod tlp;
mod trace;

pub mod stage2;

pub use checkpoint::EngineCheckpoint;
pub use config::{ReseedPolicy, StageSwitch, TlpConfig};
pub use engine::CheckpointSink;
pub use error::PartitionError;
pub use metrics::{PartitionMetrics, StreamedMetrics};
pub use modularity::Modularity;
pub use parallel::{
    available_threads, observed_parallel_map, parallel_map, trial_seed, ParallelTrialRunner,
    TrialFailure, TrialReport,
};
pub use partition::{EdgePartition, PartitionId};
pub use partitioner::EdgePartitioner;
pub use pipeline::{
    run_partitioner, run_span, run_tlp, trial_span, AlgoConfig, AlgorithmEntry, AlgorithmRegistry,
    Capability, ParamSpec, PipelineError, RunArtifact,
};
pub use tlp::TwoStageLocalPartitioner;
pub use trace::{SelectionRecord, Stage, StageDegreeSummary, Trace};
