//! HDRF: High-Degree (are) Replicated First (Petroni et al., CIKM 2015).

use crate::stream::EdgeOrder;
use crate::streaming::{place_in_order, HdrfState};
use tlp_core::{EdgePartition, EdgePartitioner, PartitionError};
use tlp_graph::GraphView;

/// HDRF streaming edge placement.
///
/// For an arriving edge `(u, v)` HDRF scores every partition `q` as
/// `C_rep(q) + C_bal(q)` and picks the argmax:
///
/// * `C_rep(q) = g(u, q) + g(v, q)` where `g(x, q) = 1 + (1 - θ(x))` if `x`
///   already has a replica in `q` and 0 otherwise, with
///   `θ(x) = δ(x) / (δ(u) + δ(v))` the endpoint's *partial-degree* share —
///   this prefers replicating the higher-degree endpoint;
/// * `C_bal(q) = λ * (maxsize - load(q)) / (ε + maxsize - minsize)`.
///
/// `λ` trades replication quality against balance (the paper's default 1.1).
///
/// # Example
///
/// ```
/// use tlp_baselines::{EdgeOrder, HdrfPartitioner};
/// use tlp_core::EdgePartitioner;
/// use tlp_graph::generators::chung_lu;
///
/// let g = chung_lu(300, 1_200, 2.1, 1);
/// let part = HdrfPartitioner::new(EdgeOrder::Random(2), 1.1)?.partition(&g, 6)?;
/// assert_eq!(part.num_edges(), 1_200);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct HdrfPartitioner {
    order: EdgeOrder,
    lambda: f64,
}

impl HdrfPartitioner {
    /// Creates an HDRF partitioner.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] if `lambda` is negative
    /// or non-finite.
    pub fn new(order: EdgeOrder, lambda: f64) -> Result<Self, PartitionError> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(PartitionError::InvalidParameter {
                name: "lambda",
                value: lambda,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(HdrfPartitioner { order, lambda })
    }

    /// The balance weight `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Default for HdrfPartitioner {
    fn default() -> Self {
        HdrfPartitioner::new(EdgeOrder::Random(0), 1.1).expect("default lambda is valid")
    }
}

impl EdgePartitioner for HdrfPartitioner {
    fn name(&self) -> &str {
        "HDRF"
    }

    fn partition_view(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
    ) -> Result<EdgePartition, PartitionError> {
        let mut placer = HdrfState::new(graph.num_vertices(), num_partitions, self.lambda)?;
        let assignment = place_in_order(&mut placer, graph, self.order);
        EdgePartition::new(num_partitions, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_core::PartitionMetrics;
    use tlp_graph::generators::chung_lu;

    #[test]
    fn rejects_bad_lambda() {
        assert!(HdrfPartitioner::new(EdgeOrder::Natural, -1.0).is_err());
        assert!(HdrfPartitioner::new(EdgeOrder::Natural, f64::NAN).is_err());
        assert!(HdrfPartitioner::new(EdgeOrder::Natural, 0.0).is_ok());
    }

    #[test]
    fn beats_random_on_power_law() {
        let g = chung_lu(800, 4000, 2.0, 4);
        let hdrf = HdrfPartitioner::default().partition(&g, 10).unwrap();
        let rnd = crate::RandomPartitioner::new(0).partition(&g, 10).unwrap();
        let rf_h = PartitionMetrics::compute(&g, &hdrf).replication_factor;
        let rf_r = PartitionMetrics::compute(&g, &rnd).replication_factor;
        assert!(rf_h < rf_r, "HDRF {rf_h} vs Random {rf_r}");
    }

    #[test]
    fn higher_lambda_improves_balance() {
        let g = chung_lu(600, 3000, 2.0, 9);
        let loose = HdrfPartitioner::new(EdgeOrder::Random(1), 0.1)
            .unwrap()
            .partition(&g, 8)
            .unwrap();
        let tight = HdrfPartitioner::new(EdgeOrder::Random(1), 5.0)
            .unwrap()
            .partition(&g, 8)
            .unwrap();
        let bal = |part: &EdgePartition| {
            let m = PartitionMetrics::compute(&g, part);
            m.balance
        };
        assert!(bal(&tight) <= bal(&loose) + 1e-9);
    }

    #[test]
    fn total_and_deterministic() {
        let g = chung_lu(200, 800, 2.2, 5);
        let a = HdrfPartitioner::default().partition(&g, 4).unwrap();
        let b = HdrfPartitioner::default().partition(&g, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.edge_counts().iter().sum::<usize>(), 800);
    }
}
