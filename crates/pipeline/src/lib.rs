//! The workspace's built-in algorithm registry.
//!
//! `tlp-core` defines the pipeline *mechanism* — [`AlgorithmRegistry`],
//! its [`AlgorithmEntry`] rows and [`RunArtifact`](tlp_core::RunArtifact)
//! — but it cannot see the algorithm crates that depend on it. This crate
//! sits above all of them (`tlp-core`, `tlp-baselines`, `tlp-metis`) and
//! lists every partitioner in the workspace as one row: a canonical name,
//! a label, a capability and a plain run function. The CLI, the experiment harness, tests, and
//! CI scripts resolve algorithms with one [`builtin_registry`] call instead
//! of per-binary `match` wiring.
//!
//! | name     | label        | capability | notes                              |
//! |----------|--------------|------------|------------------------------------|
//! | `tlp`    | TLP          | csr-only   | honors `trials` / `threads`        |
//! | `tlp-r`  | TLP_R        | csr-only   | requires `tlp-r=<R>`, `R ∈ [0,1]`  |
//! | `stage1` | StageI-only  | csr-only   | ablation (`tlp-r` with `R = 1`)    |
//! | `stage2` | StageII-only | csr-only   | ablation (`tlp-r` with `R = 0`)    |
//! | `ne`     | NE           | csr-only   | neighborhood expansion             |
//! | `metis`  | METIS        | csr-only   | multilevel k-way, seeded           |
//! | `ldg`    | LDG          | csr-only   | vertex streaming, random order     |
//! | `fennel` | FENNEL       | csr-only   | vertex streaming, random order     |
//! | `greedy` | Greedy       | streaming  | `EdgeId` order: one partition (†)  |
//! | `hdrf`   | HDRF         | streaming  | `λ = 1.1`, arrival order           |
//! | `dbh`    | DBH          | streaming  | needs final degrees up front       |
//! | `random` | Random       | streaming  | hash of arrival index              |
//!
//! (†) The `greedy` row streams in source (`EdgeId`) order, where
//! PowerGraph greedy puts every edge of a connected graph in one
//! partition: RF 1.0000 and balance ≈ p. That is why
//! `scripts/pipeline_golden.txt` pins `greedy 1.0000`; Greedy is balanced
//! only on a shuffled order (ROADMAP item 5).
//!
//! The streaming rows run from any [`EdgeSource`](tlp_graph::EdgeSource)
//! — including strict bounded-memory disk streams — and their artifacts
//! are bit-identical to the natural-order
//! [`StreamingPartitioner`](tlp_baselines::StreamingPartitioner). The
//! csr-only rows materialize the source, or fail with the typed
//! [`PipelineError::NeedsRandomAccess`] when the source refuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tlp_baselines::{
    run_streaming, FennelPartitioner, LdgPartitioner, NePartitioner, StreamingKind,
    StreamingPlacer, VertexOrder,
};
use tlp_core::{
    run_partitioner, run_tlp, AlgoConfig, AlgorithmEntry, AlgorithmRegistry, Capability,
    EdgeRatioLocalPartitioner, ParamSpec, PipelineError, TlpConfig,
};
use tlp_metis::{MetisConfig, MetisPartitioner};

fn tlp_config(config: &AlgoConfig) -> TlpConfig {
    TlpConfig::new().seed(config.seed)
}

/// Builds the registry holding every partitioner in the workspace (see the
/// crate-level table for names and capabilities).
pub fn builtin_registry() -> AlgorithmRegistry {
    use Capability::{RandomAccess, Streaming};
    [
        AlgorithmEntry {
            name: "tlp",
            label: "TLP",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| run_tlp(c, s, p, None, None),
        },
        AlgorithmEntry {
            name: "tlp-r",
            label: "TLP_R",
            capability: RandomAccess,
            param: ParamSpec::Required("R"),
            run: |c, s, p| {
                let ratio = c.param.ok_or_else(|| {
                    PipelineError::Spec("tlp-r requires a ratio (tlp-r=<R>)".to_string())
                })?;
                run_partitioner(&EdgeRatioLocalPartitioner::new(tlp_config(c), ratio)?, s, p)
            },
        },
        AlgorithmEntry {
            name: "stage1",
            label: "StageI-only",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| {
                run_partitioner(
                    &EdgeRatioLocalPartitioner::stage_one_only(tlp_config(c)),
                    s,
                    p,
                )
            },
        },
        AlgorithmEntry {
            name: "stage2",
            label: "StageII-only",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| {
                run_partitioner(
                    &EdgeRatioLocalPartitioner::stage_two_only(tlp_config(c)),
                    s,
                    p,
                )
            },
        },
        AlgorithmEntry {
            name: "ne",
            label: "NE",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| run_partitioner(&NePartitioner::new(c.seed), s, p),
        },
        AlgorithmEntry {
            name: "metis",
            label: "METIS",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| {
                let config = MetisConfig {
                    seed: c.seed,
                    ..MetisConfig::default()
                };
                run_partitioner(&MetisPartitioner::new(config), s, p)
            },
        },
        AlgorithmEntry {
            name: "ldg",
            label: "LDG",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| run_partitioner(&LdgPartitioner::new(VertexOrder::Random(c.seed)), s, p),
        },
        AlgorithmEntry {
            name: "fennel",
            label: "FENNEL",
            capability: RandomAccess,
            param: ParamSpec::None,
            run: |c, s, p| {
                run_partitioner(&FennelPartitioner::new(VertexOrder::Random(c.seed)), s, p)
            },
        },
        AlgorithmEntry {
            name: "greedy",
            label: "Greedy",
            capability: Streaming,
            param: ParamSpec::None,
            run: |c, s, p| run_streaming(StreamingKind::Greedy, c.seed, s, p),
        },
        AlgorithmEntry {
            name: "hdrf",
            label: "HDRF",
            capability: Streaming,
            param: ParamSpec::None,
            run: |c, s, p| run_streaming(StreamingKind::Hdrf, c.seed, s, p),
        },
        AlgorithmEntry {
            name: "dbh",
            label: "DBH",
            capability: Streaming,
            param: ParamSpec::None,
            run: |c, s, p| run_streaming(StreamingKind::Dbh, c.seed, s, p),
        },
        AlgorithmEntry {
            name: "random",
            label: "Random",
            capability: Streaming,
            param: ParamSpec::None,
            run: |c, s, p| run_streaming(StreamingKind::Random, c.seed, s, p),
        },
    ]
    .into_iter()
    .collect()
}

/// Every registry name, in sorted order — the single source the CLI usage
/// text and CI smoke scripts iterate.
pub fn builtin_names() -> Vec<&'static str> {
    builtin_registry().names()
}

/// Builds an online-placement state machine from an algorithm name,
/// seeded from a served `(graph, partition)` pair.
///
/// This is the serving layer's counterpart to [`builtin_registry`]: the
/// registry's `hdrf` or `greedy` row, resolved to a [`StreamingPlacer`]
/// whose state is *as if* every edge of `graph` had already been streamed
/// with the outcomes in `partition` — so `PlaceEdge` traffic continues
/// bit-identically to an uninterrupted streaming run (see
/// [`StreamingKind::seeded_placer`]). Only these stateful arrival-order
/// heuristics can be resumed this way.
///
/// # Errors
///
/// [`PipelineError::Spec`] for any other spec, [`PipelineError::Partition`]
/// if `partition` does not cover `graph`'s edges.
pub fn seeded_streaming_placer<'a>(
    spec: &str,
    graph: impl Into<tlp_graph::GraphView<'a>>,
    partition: &tlp_core::EdgePartition,
) -> Result<Box<dyn StreamingPlacer + Send + Sync>, PipelineError> {
    let unsupported = || {
        PipelineError::Spec(format!(
            "online placement supports hdrf and greedy, not {spec:?}"
        ))
    };
    let kind = match spec {
        "hdrf" => StreamingKind::Hdrf,
        "greedy" => StreamingKind::Greedy,
        _ => return Err(unsupported()),
    };
    kind.seeded_placer(graph, partition)?
        .ok_or_else(unsupported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_baselines::{EdgeOrder, StreamingPartitioner};
    use tlp_core::{EdgePartitioner, PartitionMetrics, TwoStageLocalPartitioner};
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
    fn every_registry_row_matches_its_direct_partitioner() {
        let g = chung_lu(300, 1200, 2.2, 5);
        let seed = 7;
        let tlp = TlpConfig::new().seed(seed);
        let metis = MetisPartitioner::new(MetisConfig {
            seed,
            ..MetisConfig::default()
        });
        let streaming = |kind| {
            Box::new(StreamingPartitioner {
                kind,
                order: EdgeOrder::Natural,
                seed,
            })
        };
        let rows: Vec<(&str, Box<dyn EdgePartitioner>)> = vec![
            ("tlp", Box::new(TwoStageLocalPartitioner::new(tlp))),
            (
                "tlp-r=0.3",
                Box::new(EdgeRatioLocalPartitioner::new(tlp, 0.3).expect("valid ratio")),
            ),
            (
                "stage1",
                Box::new(EdgeRatioLocalPartitioner::stage_one_only(tlp)),
            ),
            (
                "stage2",
                Box::new(EdgeRatioLocalPartitioner::stage_two_only(tlp)),
            ),
            ("ne", Box::new(NePartitioner::new(seed))),
            ("metis", Box::new(metis)),
            (
                "ldg",
                Box::new(LdgPartitioner::new(VertexOrder::Random(seed))),
            ),
            (
                "fennel",
                Box::new(FennelPartitioner::new(VertexOrder::Random(seed))),
            ),
            ("greedy", streaming(StreamingKind::Greedy)),
            ("hdrf", streaming(StreamingKind::Hdrf)),
            ("dbh", streaming(StreamingKind::Dbh)),
            ("random", streaming(StreamingKind::Random)),
        ];
        let registry = builtin_registry();
        assert_eq!(
            rows.len(),
            registry.names().len(),
            "a row has no direct twin"
        );
        for (spec, direct) in rows {
            let artifact = registry
                .run(spec, &AlgoConfig::seeded(seed), &mut CsrSource::new(&g), 6)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let partition = direct.partition(&g, 6).expect("direct run");
            assert_eq!(artifact.partition, partition, "{spec}: assignment");
            assert_eq!(artifact.algorithm, direct.name(), "{spec}: label");
            assert_eq!(
                artifact.metrics,
                PartitionMetrics::compute(&g, &partition),
                "{spec}: metrics"
            );
        }
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
        let artifact = builtin_registry()
            .run("hdrf", &AlgoConfig::seeded(7), &mut CsrSource::new(&g), 4)
            .expect("hdrf run");
        // The seeded placer resumes from the artifact's own partition.
        let mut placer =
            seeded_streaming_placer("hdrf", &g, &artifact.partition).expect("seeded hdrf");
        let pid = placer.place(0, 1);
        assert!((pid as usize) < 4);
        assert!(seeded_streaming_placer("greedy", &g, &artifact.partition).is_ok());
        for bad in ["hdrf=2.5", "hdrf=nope", "greedy=1", "dbh", "tlp", "mystery"] {
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
