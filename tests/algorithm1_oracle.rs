//! An independent reference TLP, checked against the engine.
//!
//! `reference_tlp` transcribes Algorithm 1 and the two stage criteria
//! straight from the paper (PAPER.md; DESIGN.md §5 for the decisions the
//! paper leaves open):
//!
//! * Stage I, while `M(P_k) = |E(P_k)| / |E_out(P_k)| <= 1`:
//!   `μ_s1(v_i) = max_{v_j ∈ N(v_i) ∩ P_k} |N(v_i) ∩ N(v_j)| / |N(v_j)|`;
//! * Stage II otherwise: `μ_s2(v_i) = 1 − 1/(1 + ΔM)` with
//!   `ΔM = M'(P_k) − M(P_k)` and `M'` the modularity after admitting `v_i`.
//!
//! It recomputes everything from scratch at every step: the frontier, both
//! edge counts, and every score, with a naive `contains` intersection. It
//! has no heaps, no incremental state, no triangle table and no engine
//! types. The only things it shares with the engine are the documented
//! seed draw (one `gen_range(0..n)` per seed from `StdRng::seed_from_u64`,
//! then the first vertex with an unallocated edge at or after the hint,
//! wrapping) and the documented tie-break chains: Stage I by `μ_s1`, then
//! edges into `P_k`, then residual degree; Stage II by `μ_s2`, then edges
//! into `P_k`, then fewest new external edges; both then by lowest id.
//!
//! Stage II ranks by `M'` itself, compared as an exact fraction. `M` is the
//! same for every candidate of a step, so `μ_s2` orders candidates as `M'`
//! does only where `1 + ΔM > 0`. Random graphs of a few dozen vertices
//! already offer candidates with `ΔM <= -1` (many edges out of a tight
//! partition), where the float formula exceeds 1 or divides by zero.
//!
//! The check is exhaustive over every edge subset of K₆ (32,768 graphs on
//! six vertices), for p ∈ {2, 3} and both reseed policies, and runs by
//! proptest on random graphs of 20–60 vertices.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};
use tlp::core::{EdgePartitioner, ReseedPolicy, TlpConfig, TwoStageLocalPartitioner};
use tlp::graph::{CsrGraph, GraphBuilder, VertexId};

const SEED: u64 = 7;

/// Algorithm 1 over `graph` into `p` partitions: the partition of every
/// edge, indexed by edge id.
fn reference_tlp(graph: &CsrGraph, p: usize, seed: u64, reseed: ReseedPolicy) -> Vec<u32> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let edges: Vec<(VertexId, VertexId)> =
        graph.view().edge_iter().map(|e| e.endpoints()).collect();
    // owner[e] = partition of edge e, `None` while unallocated.
    let mut owner: Vec<Option<u32>> = vec![None; m];
    if m == 0 {
        return Vec::new();
    }
    let capacity = m.div_ceil(p);
    let mut rng = StdRng::seed_from_u64(seed);
    let free_degree = |owner: &[Option<u32>], v: VertexId| {
        graph
            .incident(v)
            .filter(|&(_, e)| owner[e as usize].is_none())
            .count()
    };

    for k in 0..p as u32 {
        if owner.iter().all(Option::is_some) {
            break;
        }
        let mut member = vec![false; n];
        // Each admission allocates the unallocated edges between the new
        // member and P_k; returns how many.
        let admit = |owner: &mut [Option<u32>], member: &mut [bool], v: VertexId| {
            member[v as usize] = true;
            let mut allocated = 0;
            for (u, e) in graph.incident(v) {
                if member[u as usize] && owner[e as usize].is_none() {
                    owner[e as usize] = Some(k);
                    allocated += 1;
                }
            }
            allocated
        };
        let draw_seed = |rng: &mut StdRng, owner: &[Option<u32>]| {
            let hint = rng.gen_range(0..n as u32) as usize;
            (hint..n)
                .chain(0..hint)
                .map(|v| v as VertexId)
                .find(|&v| free_degree(owner, v) > 0)
        };

        // Lines 1-3: a random seed vertex starts P_k.
        let mut internal = 0;
        if let Some(s) = draw_seed(&mut rng, &owner) {
            internal += admit(&mut owner, &mut member, s);
        }
        // Line 4: grow while |E(P_k)| <= C.
        while internal <= capacity {
            // N(P_k): non-members with an unallocated edge into P_k.
            let e_in = |owner: &[Option<u32>], u: VertexId| {
                graph
                    .incident(u)
                    .filter(|&(w, e)| member[w as usize] && owner[e as usize].is_none())
                    .count()
            };
            let frontier: Vec<VertexId> = graph
                .vertices()
                .filter(|&u| !member[u as usize] && e_in(&owner, u) > 0)
                .collect();
            if frontier.is_empty() {
                // Lines 11-13: the frontier died out.
                let exhausted = owner.iter().all(Option::is_some);
                if exhausted || reseed == ReseedPolicy::Break {
                    break;
                }
                if let Some(s) = draw_seed(&mut rng, &owner) {
                    internal += admit(&mut owner, &mut member, s);
                }
                continue;
            }
            // |E_out(P_k)|: unallocated edges with exactly one end in P_k.
            let external = edges
                .iter()
                .zip(&owner)
                .filter(|&(&(a, b), o)| o.is_none() && member[a as usize] != member[b as usize])
                .count();
            // Lines 5-9: M(P_k) <= 1 selects Stage I (M = 0 when empty,
            // +inf when nothing leaves P_k).
            let stage_one = internal <= external && !(internal > 0 && external == 0);
            let v = if stage_one {
                argmax(&frontier, |u| {
                    let mu_s1 = graph
                        .neighbors(u)
                        .iter()
                        .filter(|&&w| member[w as usize])
                        .map(|&w| {
                            let (nu, nw) = (graph.neighbors(u), graph.neighbors(w));
                            let shared = nu.iter().filter(|x| nw.contains(x)).count();
                            shared as f64 / nw.len() as f64
                        })
                        .fold(0.0, f64::max);
                    let (e_in, deg) = (e_in(&owner, u), free_degree(&owner, u));
                    (mu_s1, e_in, deg)
                })
            } else {
                argmax(&frontier, |u| {
                    let e_in = e_in(&owner, u);
                    let e_ext = free_degree(&owner, u) - e_in;
                    let m_after = Fraction {
                        num: internal + e_in,
                        den: external - e_in + e_ext,
                    };
                    (m_after, e_in, Reverse(e_ext))
                })
            };
            // Line 10: allocate the edges between v and P_k.
            internal += admit(&mut owner, &mut member, v);
            if owner.iter().all(Option::is_some) {
                break;
            }
        }
    }

    // Edges no round reached (only under `Break`) go, in id order, to the
    // partition holding the fewest edges (lowest id on ties).
    let mut load = vec![0usize; p];
    for o in owner.iter().flatten() {
        load[*o as usize] += 1;
    }
    for o in owner.iter_mut().filter(|o| o.is_none()) {
        let target = (0..p).min_by_key(|&i| (load[i], i)).expect("p >= 1");
        *o = Some(target as u32);
        load[target] += 1;
    }
    owner
        .into_iter()
        .map(|o| o.expect("every edge assigned"))
        .collect()
}

/// A modularity `num / den`, ordered exactly by cross-multiplication;
/// `den = 0` is `+∞` (a frontier vertex has `num >= 1`).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Fraction {
    num: usize,
    den: usize,
}

impl Ord for Fraction {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num as u128 * other.den as u128).cmp(&(other.num as u128 * self.den as u128))
    }
}

impl PartialOrd for Fraction {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The candidate with the largest key, the lowest id among equal keys
/// (`candidates` ascend, and only a strictly larger key replaces the best).
fn argmax<K: PartialOrd>(candidates: &[VertexId], key: impl Fn(VertexId) -> K) -> VertexId {
    let mut best = candidates[0];
    let mut best_key = key(best);
    for &u in &candidates[1..] {
        let k = key(u);
        if k > best_key {
            best = u;
            best_key = k;
        }
    }
    best
}

/// Every edge subset of K₆ agrees with the engine, edge for edge.
#[test]
fn engine_matches_the_reference_on_every_subgraph_of_k6() {
    let pairs: Vec<(VertexId, VertexId)> = (0..6)
        .flat_map(|a| (a + 1..6).map(move |b| (a, b)))
        .collect();
    let mut checked = 0;
    for mask in 0u32..1 << pairs.len() {
        let graph = GraphBuilder::new()
            .reserve_vertices(6)
            .add_edges(
                pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &pair)| pair),
            )
            .build();
        for p in [2, 3] {
            for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
                let config = TlpConfig::new().seed(SEED).reseed_policy(reseed);
                let engine = TwoStageLocalPartitioner::new(config)
                    .partition(&graph, p)
                    .expect("engine run");
                let reference = reference_tlp(&graph, p, SEED, reseed);
                assert_eq!(
                    engine.assignments(),
                    reference.as_slice(),
                    "edge mask {mask:#06x}, p = {p}, {reseed:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 32_768 * 2 * 2);
}

/// A random simple graph on 20–60 vertices with up to six raw edge
/// tuples per vertex (self-loops and duplicates are dropped by the
/// builder), so sparse many-component and denser single-component graphs
/// both occur.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (20u32..61).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..6 * n as usize).prop_map(move |edges| {
            GraphBuilder::new()
                .reserve_vertices(n as usize)
                .add_edges(edges)
                .build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Larger random graphs agree with the engine too, under both reseed
    /// policies: here frontiers are wide and ties in `μ_s1` and `M'` are
    /// common, so the tie-break chains are exercised in depth.
    #[test]
    fn engine_matches_the_reference_on_random_graphs(
        graph in arb_graph(),
        p in 2usize..9,
        seed in 0u64..1_000,
    ) {
        for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
            let config = TlpConfig::new().seed(seed).reseed_policy(reseed);
            let engine = TwoStageLocalPartitioner::new(config)
                .partition(&graph, p)
                .expect("engine run");
            let reference = reference_tlp(&graph, p, seed, reseed);
            prop_assert_eq!(
                engine.assignments(),
                reference.as_slice(),
                "n = {}, m = {}, p = {}, seed = {}, {:?}",
                graph.num_vertices(),
                graph.num_edges(),
                p,
                seed,
                reseed
            );
        }
    }
}
