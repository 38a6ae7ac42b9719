//! TLP_R: the edge-count-based stage division used in the paper's ablation
//! (Section IV-C, Figs. 9-11).

use crate::engine::{run_staged, EdgeRatioSwitch};
use crate::{EdgePartition, EdgePartitioner, PartitionError, TlpConfig, Trace};
use tlp_graph::GraphView;

/// The TLP_R variant (Table V): Stage I while `|E(P_k)| <= R * C`, Stage II
/// afterwards, with `R` in `[0, 1]`.
///
/// `R = 0` degenerates to a pure Stage II partitioner and `R = 1` to pure
/// Stage I; the paper shows both extremes are the worst configurations,
/// while interior `R` approaches (but needs tuning to match) TLP's
/// modularity-based switch.
///
/// # Example
///
/// ```
/// use tlp_core::{EdgePartitioner, EdgeRatioLocalPartitioner, TlpConfig};
/// use tlp_graph::generators::erdos_renyi;
///
/// let graph = erdos_renyi(200, 800, 1);
/// let tlp_r = EdgeRatioLocalPartitioner::new(TlpConfig::new(), 0.4)?;
/// let partition = tlp_r.partition(&graph, 4)?;
/// assert_eq!(partition.num_edges(), 800);
/// # Ok::<(), tlp_core::PartitionError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EdgeRatioLocalPartitioner {
    config: TlpConfig,
    ratio: f64,
    name: &'static str,
}

impl EdgeRatioLocalPartitioner {
    /// Creates a TLP_R partitioner with stage ratio `ratio`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] unless `0 <= ratio <= 1`.
    pub fn new(config: TlpConfig, ratio: f64) -> Result<Self, PartitionError> {
        if !(0.0..=1.0).contains(&ratio) || ratio.is_nan() {
            return Err(PartitionError::InvalidParameter {
                name: "ratio",
                value: ratio,
                constraint: "must be in [0, 1]",
            });
        }
        Ok(EdgeRatioLocalPartitioner {
            config,
            ratio,
            name: "TLP_R",
        })
    }

    /// The configured stage ratio `R`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The configuration this partitioner runs with.
    pub fn config(&self) -> &TlpConfig {
        &self.config
    }

    /// Partitions and returns the per-selection [`Trace`].
    ///
    /// # Errors
    ///
    /// Same as [`EdgePartitioner::partition`].
    pub fn partition_with_trace<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        num_partitions: usize,
    ) -> Result<(EdgePartition, Trace), PartitionError> {
        let config = self.config.record_trace(true);
        let switch = EdgeRatioSwitch { ratio: self.ratio };
        let (partition, trace) = run_staged(graph, num_partitions, &config, switch)?;
        Ok((partition, trace.expect("trace was requested")))
    }

    /// Pure Stage I (`R = 1`, Eq. 7 for every selection), named
    /// `StageI-only` for ablation line-ups.
    pub fn stage_one_only(config: TlpConfig) -> Self {
        EdgeRatioLocalPartitioner {
            config,
            ratio: 1.0,
            name: "StageI-only",
        }
    }

    /// Pure Stage II (`R = 0`, Eq. 9 for every selection), named
    /// `StageII-only` for ablation line-ups.
    pub fn stage_two_only(config: TlpConfig) -> Self {
        EdgeRatioLocalPartitioner {
            config,
            ratio: 0.0,
            name: "StageII-only",
        }
    }
}

impl EdgePartitioner for EdgeRatioLocalPartitioner {
    fn name(&self) -> &str {
        self.name
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let switch = EdgeRatioSwitch { ratio: self.ratio };
        run_staged(graph, num_partitions, &self.config, switch).map(|(partition, _)| partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;
    use tlp_graph::generators::chung_lu;

    #[test]
    fn rejects_out_of_range_ratio() {
        assert!(EdgeRatioLocalPartitioner::new(TlpConfig::new(), -0.1).is_err());
        assert!(EdgeRatioLocalPartitioner::new(TlpConfig::new(), 1.1).is_err());
        assert!(EdgeRatioLocalPartitioner::new(TlpConfig::new(), f64::NAN).is_err());
        assert!(EdgeRatioLocalPartitioner::new(TlpConfig::new(), 0.0).is_ok());
        assert!(EdgeRatioLocalPartitioner::new(TlpConfig::new(), 1.0).is_ok());
    }

    #[test]
    fn single_stage_constructors_are_the_named_extremes() {
        let one = EdgeRatioLocalPartitioner::stage_one_only(TlpConfig::new());
        let two = EdgeRatioLocalPartitioner::stage_two_only(TlpConfig::new());
        assert_eq!((one.name(), one.ratio()), ("StageI-only", 1.0));
        assert_eq!((two.name(), two.ratio()), ("StageII-only", 0.0));
    }

    #[test]
    fn r_zero_uses_only_stage_two() {
        let g = chung_lu(200, 900, 2.2, 6);
        let p = EdgeRatioLocalPartitioner::new(TlpConfig::new().seed(3), 0.0).unwrap();
        let (_, trace) = p.partition_with_trace(&g, 4).unwrap();
        assert!(trace.records().iter().all(|r| r.stage == Stage::Two));
    }

    #[test]
    fn r_one_uses_only_stage_one() {
        let g = chung_lu(200, 900, 2.2, 6);
        let p = EdgeRatioLocalPartitioner::new(TlpConfig::new().seed(3), 1.0).unwrap();
        let (_, trace) = p.partition_with_trace(&g, 4).unwrap();
        assert!(trace.records().iter().all(|r| r.stage == Stage::One));
    }

    #[test]
    fn interior_r_uses_both_stages() {
        let g = chung_lu(200, 900, 2.2, 6);
        let p = EdgeRatioLocalPartitioner::new(TlpConfig::new().seed(3), 0.5).unwrap();
        let (_, trace) = p.partition_with_trace(&g, 4).unwrap();
        let s = trace.stage_degree_summary();
        assert!(s.stage1_count > 0 && s.stage2_count > 0);
    }

    #[test]
    fn covers_all_edges_for_every_r() {
        let g = chung_lu(150, 600, 2.2, 2);
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let p = EdgeRatioLocalPartitioner::new(TlpConfig::new().seed(4), r).unwrap();
            let part = p.partition(&g, 5).unwrap();
            assert_eq!(
                part.edge_counts().iter().sum::<usize>(),
                g.num_edges(),
                "R = {r}"
            );
        }
    }
}
