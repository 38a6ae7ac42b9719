//! The workspace's built-in algorithm registry.
//!
//! `tlp-core` defines the pipeline *mechanism* — [`Algorithm`],
//! [`AlgorithmRegistry`], [`RunArtifact`](tlp_core::RunArtifact) — but it
//! cannot see the algorithm crates that depend on it. This crate sits
//! above all of them (`tlp-core`, `tlp-baselines`, `tlp-metis`,
//! `tlp-store`) and registers every partitioner in the workspace under its
//! canonical name, so the CLI, the experiment harness, tests, and CI
//! scripts resolve algorithms with one [`builtin_registry`] call instead
//! of per-binary `match` wiring.
//!
//! | name     | label        | capability | notes                              |
//! |----------|--------------|------------|------------------------------------|
//! | `tlp`    | TLP          | csr-only   | honors `trials` / `record_trace`   |
//! | `tlp-r`  | TLP_R        | csr-only   | requires `tlp-r=<R>`, `R ∈ [0,1]`  |
//! | `stage1` | StageI-only  | csr-only   | ablation (`tlp-r` with `R = 1`)    |
//! | `stage2` | StageII-only | csr-only   | ablation (`tlp-r` with `R = 0`)    |
//! | `ne`     | NE           | csr-only   | neighborhood expansion             |
//! | `metis`  | METIS        | csr-only   | multilevel k-way, seeded           |
//! | `ldg`    | LDG          | csr-only   | vertex streaming, random order     |
//! | `fennel` | FENNEL       | csr-only   | vertex streaming, random order     |
//! | `greedy` | Greedy       | streaming  | PowerGraph greedy, arrival order   |
//! | `hdrf`   | HDRF         | streaming  | `λ = 1.1`, arrival order           |
//! | `dbh`    | DBH          | streaming  | needs final degrees up front       |
//! | `random` | Random       | streaming  | hash of arrival index              |
//!
//! The streaming rows run from any [`EdgeSource`](tlp_graph::EdgeSource)
//! — including strict bounded-memory disk streams — and their artifacts
//! are bit-identical to the materialized natural-order partitioners. The
//! csr-only rows materialize the source, or fail with the typed
//! [`PipelineError::NeedsRandomAccess`](tlp_core::PipelineError) when the
//! source refuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tlp_baselines::{
    FennelPartitioner, GreedyState, HdrfState, LdgPartitioner, NePartitioner, StreamingBaseline,
    StreamingKind, StreamingPlacer, VertexOrder,
};
use tlp_core::{
    AlgoConfig, Algorithm, AlgorithmRegistry, Capability, EdgeRatioLocalPartitioner,
    MaterializedAlgorithm, ParamSpec, PipelineError, TlpAlgorithm, TlpConfig,
};
use tlp_metis::{MetisConfig, MetisPartitioner};

fn tlp_config(config: &AlgoConfig) -> TlpConfig {
    TlpConfig::new().seed(config.seed)
}

fn boxed(
    algorithm: impl tlp_core::EdgePartitioner + 'static,
) -> Result<Box<dyn Algorithm>, PipelineError> {
    Ok(Box::new(MaterializedAlgorithm::new(Box::new(algorithm))))
}

fn streaming(
    kind: StreamingKind,
    config: &AlgoConfig,
) -> Result<Box<dyn Algorithm>, PipelineError> {
    Ok(Box::new(StreamingBaseline::new(kind, config)))
}

/// Builds the registry holding every partitioner in the workspace (see the
/// crate-level table for names and capabilities).
pub fn builtin_registry() -> AlgorithmRegistry {
    let mut r = AlgorithmRegistry::new();
    r.register(
        "tlp",
        "TLP",
        Capability::RandomAccess,
        ParamSpec::None,
        "two-stage local edge partitioner (the paper's method)",
        Box::new(|c| Ok(Box::new(TlpAlgorithm::new(c)))),
    );
    r.register(
        "tlp-r",
        "TLP_R",
        Capability::RandomAccess,
        ParamSpec::Required("R"),
        "fixed edge-ratio ablation; R in [0,1] sets the stage switch",
        Box::new(|c| {
            let ratio = c.param.ok_or_else(|| {
                PipelineError::Spec("tlp-r requires a ratio (tlp-r=<R>)".to_string())
            })?;
            boxed(EdgeRatioLocalPartitioner::new(tlp_config(c), ratio)?)
        }),
    );
    r.register(
        "stage1",
        "StageI-only",
        Capability::RandomAccess,
        ParamSpec::None,
        "stage I heuristic for every selection (ablation)",
        Box::new(|c| boxed(EdgeRatioLocalPartitioner::stage_one_only(tlp_config(c)))),
    );
    r.register(
        "stage2",
        "StageII-only",
        Capability::RandomAccess,
        ParamSpec::None,
        "stage II heuristic for every selection (ablation)",
        Box::new(|c| boxed(EdgeRatioLocalPartitioner::stage_two_only(tlp_config(c)))),
    );
    r.register(
        "ne",
        "NE",
        Capability::RandomAccess,
        ParamSpec::None,
        "neighborhood-expansion edge partitioner",
        Box::new(|c| boxed(NePartitioner::new(c.seed))),
    );
    r.register(
        "metis",
        "METIS",
        Capability::RandomAccess,
        ParamSpec::None,
        "multilevel k-way vertex partitioner, edges derived",
        Box::new(|c| {
            boxed(MetisPartitioner::new(MetisConfig {
                seed: c.seed,
                ..MetisConfig::default()
            }))
        }),
    );
    r.register(
        "ldg",
        "LDG",
        Capability::RandomAccess,
        ParamSpec::None,
        "linear deterministic greedy vertex streaming",
        Box::new(|c| boxed(LdgPartitioner::new(VertexOrder::Random(c.seed)))),
    );
    r.register(
        "fennel",
        "FENNEL",
        Capability::RandomAccess,
        ParamSpec::None,
        "FENNEL vertex streaming, edges derived",
        Box::new(|c| boxed(FennelPartitioner::new(VertexOrder::Random(c.seed)))),
    );
    r.register(
        "greedy",
        "Greedy",
        Capability::Streaming,
        ParamSpec::None,
        "PowerGraph greedy edge placement (streaming-capable)",
        Box::new(|c| streaming(StreamingKind::Greedy, c)),
    );
    r.register(
        "hdrf",
        "HDRF",
        Capability::Streaming,
        ParamSpec::None,
        "high-degree replicated first, lambda 1.1 (streaming-capable)",
        Box::new(|c| streaming(StreamingKind::Hdrf, c)),
    );
    r.register(
        "dbh",
        "DBH",
        Capability::Streaming,
        ParamSpec::None,
        "degree-based hashing (streaming-capable)",
        Box::new(|c| streaming(StreamingKind::Dbh, c)),
    );
    r.register(
        "random",
        "Random",
        Capability::Streaming,
        ParamSpec::None,
        "uniform random edge assignment (streaming-capable)",
        Box::new(|c| streaming(StreamingKind::Random, c)),
    );
    r
}

/// Every registry name, in sorted order — the single source the CLI usage
/// text and CI smoke scripts iterate.
pub fn builtin_names() -> Vec<&'static str> {
    builtin_registry().names()
}

/// Builds an online-placement state machine from an algorithm spec string,
/// seeded from a served `(graph, partition)` pair.
///
/// This is the serving layer's counterpart to [`builtin_registry`]: the
/// same `name[=param]` spec grammar ([`AlgorithmRegistry::parse_spec`]),
/// resolved to a [`StreamingPlacer`] whose state is *as if* every edge of
/// `graph` had already been streamed with the outcomes in `partition` —
/// so `PlaceEdge` traffic continues bit-identically to an uninterrupted
/// streaming run (see `HdrfState::seeded_from`). Only the stateful
/// arrival-order heuristics can be resumed this way: `hdrf[=lambda]`
/// (default `λ = 1.1`) and `greedy`.
///
/// # Errors
///
/// [`PipelineError::Spec`] for an unsupported name or malformed
/// parameter, [`PipelineError::Partition`] if `partition` does not cover
/// `graph`'s edges.
pub fn seeded_streaming_placer<'a>(
    spec: &str,
    graph: impl Into<tlp_graph::GraphView<'a>>,
    partition: &tlp_core::EdgePartition,
) -> Result<Box<dyn StreamingPlacer + Send + Sync>, PipelineError> {
    let graph = graph.into();
    let (name, param) = AlgorithmRegistry::parse_spec(spec);
    match name {
        "hdrf" => {
            let lambda = match param {
                None => tlp_baselines::HDRF_LAMBDA,
                Some(raw) => raw.parse().map_err(|_| {
                    PipelineError::Spec(format!("hdrf lambda is not a number: {raw:?}"))
                })?,
            };
            Ok(Box::new(HdrfState::seeded_from(graph, partition, lambda)?))
        }
        "greedy" => {
            if let Some(raw) = param {
                return Err(PipelineError::Spec(format!(
                    "greedy takes no parameter, got {raw:?}"
                )));
            }
            Ok(Box::new(GreedyState::seeded_from(graph, partition)?))
        }
        other => Err(PipelineError::Spec(format!(
            "online placement supports hdrf[=lambda] and greedy, not {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::{EdgePartitioner, PartitionMetrics};
    use tlp_graph::generators::chung_lu;
    use tlp_graph::CsrSource;

    #[test]
    fn registry_covers_every_workspace_algorithm() {
        let names = builtin_names();
        assert_eq!(
            names,
            vec![
                "dbh", "fennel", "greedy", "hdrf", "ldg", "metis", "ne", "random", "stage1",
                "stage2", "tlp", "tlp-r",
            ]
        );
    }

    #[test]
    fn capabilities_split_streaming_from_csr_only() {
        let r = builtin_registry();
        for entry in r.entries() {
            let expected = matches!(entry.name, "greedy" | "hdrf" | "dbh" | "random");
            assert_eq!(
                entry.capability == Capability::Streaming,
                expected,
                "{} capability drifted",
                entry.name
            );
        }
    }

    #[test]
    fn registry_tlp_matches_direct_invocation() {
        let g = chung_lu(300, 1200, 2.2, 5);
        let artifact = builtin_registry()
            .run("tlp", &AlgoConfig::seeded(7), &mut CsrSource::new(&g), 6)
            .expect("run tlp");
        let direct = tlp_core::TwoStageLocalPartitioner::new(TlpConfig::new().seed(7))
            .partition(&g, 6)
            .expect("direct tlp");
        assert_eq!(artifact.partition, direct);
        assert_eq!(artifact.metrics, PartitionMetrics::compute(&g, &direct));
    }

    #[test]
    fn tlp_r_requires_and_validates_its_ratio() {
        let g = chung_lu(100, 400, 2.2, 1);
        let r = builtin_registry();
        let err = r
            .run("tlp-r", &AlgoConfig::default(), &mut CsrSource::new(&g), 4)
            .expect_err("missing ratio");
        assert!(matches!(err, PipelineError::Spec(_)));
        let artifact = r
            .run(
                "tlp-r=0.5",
                &AlgoConfig::default(),
                &mut CsrSource::new(&g),
                4,
            )
            .expect("valid ratio");
        assert!(artifact.algorithm.starts_with("TLP_R"));
        let err = r
            .run(
                "tlp-r=1.5",
                &AlgoConfig::default(),
                &mut CsrSource::new(&g),
                4,
            )
            .expect_err("out-of-range ratio");
        assert!(matches!(err, PipelineError::Partition(_)));
    }

    #[test]
    fn seeded_placer_specs_parse_and_continue() {
        let g = chung_lu(200, 800, 2.2, 3);
        let config = AlgoConfig::seeded(7);
        let artifact = StreamingBaseline::new(StreamingKind::Hdrf, &config)
            .run(&mut CsrSource::new(&g), 4)
            .expect("hdrf run");
        // The seeded placer resumes from the artifact's own partition.
        let mut placer =
            seeded_streaming_placer("hdrf", &g, &artifact.partition).expect("seeded hdrf");
        assert_eq!(placer.num_partitions(), 4);
        let pid = placer.place(0, 1);
        assert!((pid as usize) < 4);
        assert!(seeded_streaming_placer("hdrf=2.5", &g, &artifact.partition).is_ok());
        assert!(seeded_streaming_placer("greedy", &g, &artifact.partition).is_ok());
        for bad in ["hdrf=nope", "greedy=1", "dbh", "tlp", "mystery"] {
            assert!(
                matches!(
                    seeded_streaming_placer(bad, &g, &artifact.partition),
                    Err(PipelineError::Spec(_))
                ),
                "spec {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn every_algorithm_runs_from_a_csr_source() {
        let g = chung_lu(400, 1600, 2.2, 11);
        let r = builtin_registry();
        for name in builtin_names() {
            let spec = if name == "tlp-r" {
                "tlp-r=0.3".to_string()
            } else {
                name.to_string()
            };
            let artifact = r
                .run(&spec, &AlgoConfig::seeded(13), &mut CsrSource::new(&g), 8)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert_eq!(artifact.num_partitions, 8);
            assert_eq!(artifact.partition.num_edges(), g.num_edges(), "{name}");
            assert!(artifact.metrics.replication_factor >= 1.0, "{name}");
        }
    }
}
