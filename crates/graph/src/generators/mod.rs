//! Seeded synthetic graph generators.
//!
//! These generators stand in for the paper's real-world datasets when the
//! SNAP / huapu files are not on disk (see `DESIGN.md` §4). All generators
//! are deterministic given a seed, produce simple undirected graphs, and aim
//! for an exact vertex count and a close-to-exact edge count.
//!
//! * [`erdos_renyi`](fn@erdos_renyi) — uniform `G(n, m)` graphs (flat degree distribution).
//! * [`chung_lu`](fn@chung_lu) — power-law expected-degree graphs.
//! * [`power_law_community`] — power-law graphs with planted communities
//!   (degree-corrected, LFR-style), the stand-in family for the SNAP
//!   social/communication networks (G1–G8).
//! * [`barabasi_albert`](fn@barabasi_albert) — preferential attachment.
//! * [`rmat`](fn@rmat) — Kronecker-style recursive matrix graphs.
//! * [`genealogy`](fn@genealogy) — tree-like, low-average-degree graphs matching the
//!   huapu family-tree dataset (G9).

mod barabasi_albert;
mod chung_lu;
mod community;
mod erdos_renyi;
mod genealogy;
mod rmat;

pub use barabasi_albert::barabasi_albert;
pub use chung_lu::{chung_lu, power_law_weights};
pub use community::power_law_community;
pub use erdos_renyi::erdos_renyi;
pub use genealogy::genealogy;
pub use rmat::{rmat, RmatProbabilities};

use crate::{Edge, GraphBuilder, VertexId};
use std::collections::HashSet;

/// Shared rejection-sampling loop: draws candidate edges from `sample` until
/// `target_edges` distinct non-loop edges are collected or the attempt budget
/// (`attempt_factor * target_edges`) is exhausted, then builds the graph with
/// exactly `num_vertices` vertices.
pub(crate) fn collect_unique_edges<F>(
    num_vertices: usize,
    target_edges: usize,
    attempt_factor: usize,
    mut sample: F,
) -> crate::CsrGraph
where
    F: FnMut() -> (VertexId, VertexId),
{
    let mut seen: HashSet<Edge> = HashSet::with_capacity(target_edges * 2);
    let mut builder = GraphBuilder::new().reserve_vertices(num_vertices);
    let budget = target_edges.saturating_mul(attempt_factor).max(16);
    let mut attempts = 0usize;
    while seen.len() < target_edges && attempts < budget {
        attempts += 1;
        let (a, b) = sample();
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if seen.insert(e) {
            builder.push_edge(a, b);
        }
    }
    builder.build()
}

/// The maximum number of edges a simple graph on `n` vertices can have.
pub(crate) fn max_simple_edges(n: usize) -> usize {
    n.saturating_mul(n.saturating_sub(1)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn collect_unique_edges_hits_target_when_feasible() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = collect_unique_edges(10, 20, 64, || {
            (
                rng.gen_range(0..10) as VertexId,
                rng.gen_range(0..10) as VertexId,
            )
        });
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn collect_unique_edges_respects_budget_on_infeasible_targets() {
        // Only 3 distinct edges exist on 3 vertices; asking for 10 must stop.
        let mut rng = StdRng::seed_from_u64(7);
        let g = collect_unique_edges(3, 10, 8, || {
            (
                rng.gen_range(0..3) as VertexId,
                rng.gen_range(0..3) as VertexId,
            )
        });
        assert!(g.num_edges() <= 3);
    }

    #[test]
    fn max_simple_edges_values() {
        assert_eq!(max_simple_edges(0), 0);
        assert_eq!(max_simple_edges(1), 0);
        assert_eq!(max_simple_edges(4), 6);
    }
}
