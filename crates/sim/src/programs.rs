//! Classic analytics vertex programs, each verified against a
//! single-machine reference implementation in the tests.

use crate::engine::VertexProgram;
use tlp_graph::{CsrGraph, VertexId};

/// PageRank with damping 0.85 over the undirected graph (each edge carries
/// rank both ways, normalized by degree).
///
/// States are `f64` ranks; convergence is reached when no rank moves by
/// more than [`PageRank::tolerance`].
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 in the classic formulation).
    pub damping: f64,
    /// Per-vertex convergence threshold.
    pub tolerance: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            tolerance: 1e-10,
        }
    }
}

/// PageRank state: the rank.
#[derive(Clone, Copy, Debug)]
pub struct Rank(pub f64);

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        // Exact comparison on purpose: [`PageRank::apply`] returns the
        // previous state *unchanged* when a rank moves by no more than the
        // configured tolerance, so convergence detection (`new != old` in
        // the engine) is governed entirely by `PageRank::tolerance`. An
        // epsilon here would silently override a tighter tolerance.
        self.0 == other.0
    }
}

impl VertexProgram for PageRank {
    type State = Rank;
    type Gather = f64;

    fn init(&self, _v: VertexId, graph: &CsrGraph) -> Rank {
        Rank(1.0 / graph.num_vertices().max(1) as f64)
    }

    fn gather(&self, _v: VertexId, u: VertexId, u_state: &Rank, graph: &CsrGraph) -> f64 {
        u_state.0 / graph.degree(u) as f64
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, _v: VertexId, state: &Rank, gathered: Option<f64>, graph: &CsrGraph) -> Rank {
        let n = graph.num_vertices().max(1) as f64;
        let sum = gathered.unwrap_or(0.0);
        let next = (1.0 - self.damping) / n + self.damping * sum;
        if (next - state.0).abs() <= self.tolerance {
            *state
        } else {
            Rank(next)
        }
    }
}

/// Connected components by min-label propagation: every vertex converges to
/// the smallest vertex id in its component.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type State = u32;
    type Gather = u32;

    fn init(&self, v: VertexId, _graph: &CsrGraph) -> u32 {
        v
    }

    fn gather(&self, _v: VertexId, _u: VertexId, u_state: &u32, _graph: &CsrGraph) -> u32 {
        *u_state
    }

    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, state: &u32, gathered: Option<u32>, _graph: &CsrGraph) -> u32 {
        gathered.map_or(*state, |g| g.min(*state))
    }
}

/// Single-source shortest paths under unit edge weights (BFS distances).
///
/// Unreached vertices hold `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct ShortestPaths {
    /// The source vertex.
    pub source: VertexId,
}

impl VertexProgram for ShortestPaths {
    type State = u32;
    type Gather = u32;

    fn init(&self, v: VertexId, _graph: &CsrGraph) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn gather(&self, _v: VertexId, _u: VertexId, u_state: &u32, _graph: &CsrGraph) -> u32 {
        u_state.saturating_add(1)
    }

    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, state: &u32, gathered: Option<u32>, _graph: &CsrGraph) -> u32 {
        gathered.map_or(*state, |g| g.min(*state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, Engine};
    use tlp_core::{EdgePartitioner, TlpConfig, TwoStageLocalPartitioner};
    use tlp_graph::generators::power_law_community;
    use tlp_graph::traversal;

    fn partitioned(graph: &CsrGraph, p: usize) -> tlp_core::EdgePartition {
        TwoStageLocalPartitioner::new(TlpConfig::new().seed(3))
            .partition(graph, p)
            .unwrap()
    }

    #[test]
    fn connected_components_matches_reference() {
        let g = tlp_graph::GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])
            .build();
        let part = partitioned(&g, 3);
        let cluster = Cluster::new(&g, &part);
        let run = Engine::new(&cluster).run(&ConnectedComponents, 100);
        assert!(run.converged);
        let reference = traversal::ConnectedComponents::find(&g);
        for a in g.vertices() {
            for b in g.vertices() {
                assert_eq!(
                    run.states[a as usize] == run.states[b as usize],
                    reference.same_component(a, b),
                    "vertices {a} and {b} disagree"
                );
            }
        }
    }

    #[test]
    fn sssp_matches_bfs_distances() {
        let g = power_law_community(300, 1200, 2.1, 6, 0.2, 2);
        let part = partitioned(&g, 4);
        let cluster = Cluster::new(&g, &part);
        let run = Engine::new(&cluster).run(&ShortestPaths { source: 0 }, 200);
        assert!(run.converged);
        let reference = traversal::bfs_distances(&g, 0);
        for v in g.vertices() {
            let expected = reference[v as usize].unwrap_or(u32::MAX);
            assert_eq!(run.states[v as usize], expected, "vertex {v}");
        }
    }

    #[test]
    fn pagerank_is_a_distribution_and_partition_invariant() {
        let g = power_law_community(200, 900, 2.1, 5, 0.2, 4);
        let pr = PageRank::default();
        let run_a = Engine::new(&Cluster::new(&g, &partitioned(&g, 1))).run(&pr, 300);
        let run_b = Engine::new(&Cluster::new(&g, &partitioned(&g, 6))).run(&pr, 300);
        assert!(run_a.converged && run_b.converged);
        let total: f64 = run_a.states.iter().map(|r| r.0).sum();
        // Isolated vertices keep (1-d)/n; covered ones sum with them to ~1.
        assert!((total - 1.0).abs() < 0.02, "rank mass {total}");
        for v in g.vertices() {
            assert!(
                (run_a.states[v as usize].0 - run_b.states[v as usize].0).abs() < 1e-6,
                "vertex {v} rank differs across partitionings"
            );
        }
    }

    #[test]
    fn pagerank_honors_configured_tolerance() {
        // Regression: `Rank`'s PartialEq used to hardcode a 1e-10 epsilon,
        // so any tolerance tighter than that was silently ignored — the
        // engine saw sub-1e-10 movement as "equal" and stopped early.
        // With convergence routed through `apply`'s tolerance clamp, a
        // tighter tolerance must keep iterating strictly longer.
        let g = power_law_community(120, 500, 2.1, 4, 0.2, 3);
        let part = partitioned(&g, 2);
        let run_at = |tolerance: f64| {
            let pr = PageRank {
                tolerance,
                ..PageRank::default()
            };
            Engine::new(&Cluster::new(&g, &part)).run(&pr, 2000)
        };
        let loose = run_at(1e-10);
        let tight = run_at(1e-13);
        assert!(loose.converged && tight.converged);
        assert!(
            tight.supersteps > loose.supersteps,
            "tolerance 1e-13 must outlast 1e-10: {} vs {} supersteps",
            tight.supersteps,
            loose.supersteps
        );
    }

    #[test]
    fn better_partitions_pay_fewer_messages() {
        let g = power_law_community(800, 4000, 2.1, 16, 0.2, 6);
        let tlp_part = partitioned(&g, 8);
        let random_part = tlp_baselines::StreamingPartitioner {
            kind: tlp_baselines::StreamingKind::Random,
            order: tlp_baselines::EdgeOrder::Natural,
            seed: 1,
        }
        .partition(&g, 8)
        .unwrap();
        let pr = PageRank::default();
        let run_tlp = Engine::new(&Cluster::new(&g, &tlp_part)).run(&pr, 30);
        let run_rnd = Engine::new(&Cluster::new(&g, &random_part)).run(&pr, 30);
        assert!(
            run_tlp.total_messages < run_rnd.total_messages,
            "TLP {} messages vs Random {}",
            run_tlp.total_messages,
            run_rnd.total_messages
        );
        assert!(run_tlp.average_messages() > 0.0);
    }

    #[test]
    fn hub_degree_does_not_break_sssp_saturation() {
        // u32::MAX + 1 must saturate, not wrap, for unreached vertices.
        let g = tlp_graph::GraphBuilder::new()
            .reserve_vertices(4)
            .add_edges([(0, 1), (2, 3)])
            .build();
        let part = partitioned(&g, 2);
        let run = Engine::new(&Cluster::new(&g, &part)).run(&ShortestPaths { source: 0 }, 50);
        assert_eq!(run.states[2], u32::MAX);
        assert_eq!(run.states[3], u32::MAX);
        assert_eq!(run.states[1], 1);
    }
}
