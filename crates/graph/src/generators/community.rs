//! Degree-corrected planted-community graphs (LFR-style).
//!
//! Real social and communication networks combine two structural facts the
//! TLP evaluation depends on: heavy-tailed degrees *and* community
//! structure (email departments, discussion cliques, collaboration groups).
//! A plain Chung–Lu graph reproduces only the first; without communities a
//! local partition never tightens, which distorts any heuristic whose
//! behaviour depends on partition modularity. This generator plants `c`
//! communities and draws each edge's endpoints from power-law weights,
//! keeping the edge inside one community with probability `1 - mixing`.

use super::{collect_unique_edges, max_simple_edges, power_law_weights};
use crate::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws from a cumulative weight table by binary search.
struct WeightedSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedSampler {
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cumulative.push(acc);
        }
        WeightedSampler {
            cumulative,
            total: acc,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let x = rng.gen_range(0.0..self.total);
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Generates a power-law graph with `communities` planted groups.
///
/// * `gamma` — degree exponent (> 1), as in [`chung_lu`](fn@super::chung_lu);
/// * `communities` — number of planted groups (vertices are assigned round
///   robin by weight rank, so every group gets its share of hubs);
/// * `mixing` — probability that an edge leaves its community (`0` =
///   perfectly separable, `1` = plain Chung–Lu), typically `0.1..0.4`.
///
/// # Panics
///
/// Panics if `gamma <= 1`, `communities == 0`, or `mixing` is outside
/// `[0, 1]`.
///
/// # Example
///
/// ```
/// use tlp_graph::generators::power_law_community;
///
/// let g = power_law_community(1_000, 5_000, 2.1, 20, 0.2, 7);
/// assert_eq!(g.num_vertices(), 1_000);
/// assert_eq!(g.num_edges(), 5_000);
/// ```
pub fn power_law_community(
    n: usize,
    m: usize,
    gamma: f64,
    communities: usize,
    mixing: f64,
    seed: u64,
) -> CsrGraph {
    assert!(communities > 0, "need at least one community");
    assert!(
        (0.0..=1.0).contains(&mixing),
        "mixing must be in [0, 1], got {mixing}"
    );
    let m = m.min(max_simple_edges(n));
    if n == 0 || m == 0 {
        return crate::GraphBuilder::new().reserve_vertices(n).build();
    }
    let communities = communities.min(n);
    let weights = power_law_weights(n, gamma);

    // Round-robin community assignment over the weight-ranked vertices:
    // community(v) = v % c. Every community receives hubs and leaves alike,
    // mirroring how real departments all have their own heavy users.
    let community_of = |v: usize| v % communities;

    let global = WeightedSampler::new(weights.iter().copied());
    let per_community: Vec<WeightedSampler> = (0..communities)
        .map(|c| {
            WeightedSampler::new(
                weights
                    .iter()
                    .enumerate()
                    .filter(move |(v, _)| v % communities == c)
                    .map(|(_, &w)| w),
            )
        })
        .collect();
    // Local index -> global vertex id for each community.
    let members: Vec<Vec<VertexId>> = (0..communities)
        .map(|c| {
            (0..n)
                .filter(|v| v % communities == c)
                .map(|v| v as VertexId)
                .collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    collect_unique_edges(n, m, 300, || {
        let u = global.sample(&mut rng);
        let v = if rng.gen_bool(1.0 - mixing) {
            let c = community_of(u);
            members[c][per_community[c].sample(&mut rng)] as usize
        } else {
            global.sample(&mut rng)
        };
        (u as VertexId, v as VertexId)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn counts_and_determinism() {
        let g = power_law_community(500, 2500, 2.2, 10, 0.2, 3);
        assert_eq!(g.num_vertices(), 500);
        assert_eq!(g.num_edges(), 2500);
        assert_eq!(g, power_law_community(500, 2500, 2.2, 10, 0.2, 3));
    }

    #[test]
    fn keeps_heavy_tail() {
        let g = power_law_community(2000, 10_000, 2.0, 20, 0.2, 5);
        let s = DegreeStats::of(&g).unwrap();
        assert!(s.max as f64 > 5.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }

    #[test]
    fn low_mixing_concentrates_edges_inside_communities() {
        let c = 10;
        let count_internal = |mixing: f64| {
            let g = power_law_community(1000, 5000, 2.2, c, mixing, 7);
            g.view()
                .edge_iter()
                .filter(|e| (e.source() as usize % c) == (e.target() as usize % c))
                .count()
        };
        let tight = count_internal(0.05);
        let loose = count_internal(0.9);
        assert!(
            tight > 2 * loose,
            "communities not planted: tight={tight} loose={loose}"
        );
        // At mixing 0.05, the vast majority of edges should be internal.
        assert!(tight > 3500, "only {tight}/5000 internal at mixing 0.05");
    }

    #[test]
    fn mixing_one_behaves_like_chung_lu() {
        let c = 10;
        let g = power_law_community(1000, 5000, 2.2, c, 1.0, 7);
        let internal = g
            .view()
            .edge_iter()
            .filter(|e| (e.source() as usize % c) == (e.target() as usize % c))
            .count();
        // Random pairing puts ~1/c of edges inside a community.
        assert!(internal < 5000 / c * 3, "internal = {internal}");
    }

    #[test]
    fn every_community_gets_hubs() {
        let c = 5;
        let g = power_law_community(500, 4000, 2.0, c, 0.2, 11);
        let hubs = crate::degree::top_degree_vertices(&g, 10);
        let mut seen: Vec<usize> = hubs.iter().map(|&v| v as usize % c).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 3, "hubs concentrated in {seen:?}");
    }

    #[test]
    #[should_panic(expected = "mixing must be in")]
    fn bad_mixing_panics() {
        power_law_community(10, 20, 2.0, 2, 1.5, 1);
    }

    #[test]
    #[should_panic(expected = "at least one community")]
    fn zero_communities_panics() {
        power_law_community(10, 20, 2.0, 0, 0.2, 1);
    }
}
