//! Tests pinned to specific claims and worked examples of the paper.

use tlp::baselines::RandomPartitioner;
use tlp::core::stage2::{delta_m, mu_s2};
use tlp::core::{
    EdgePartitioner, Modularity, PartitionMetrics, TlpConfig, TwoStageLocalPartitioner,
};
use tlp::graph::generators::power_law_community;
use tlp::graph::intersect::edge_triangles;
use tlp::graph::{GraphBuilder, VertexId};

/// Claim 1 / Eq. 6: per-partition modularity is inversely tied to RF. On a
/// degree-regular graph the relationship is an exact identity:
/// `d * Σ_k |V(P_k)| = 2m + Σ_k X_k` where `X_k` are the external
/// incidences (our `PartitionMetrics` modularity denominator).
#[test]
fn claim1_identity_holds_exactly_on_regular_graphs() {
    // A cycle: every vertex has degree 2.
    let n = 40u32;
    let g = GraphBuilder::new()
        .add_edges((0..n).map(|v| (v, (v + 1) % n)))
        .build();
    for p in [2, 4, 8] {
        let part = TwoStageLocalPartitioner::new(TlpConfig::new().seed(1))
            .partition(&g, p)
            .unwrap();
        let m = PartitionMetrics::compute(&g, &part);
        // Reconstruct X_k from modularity = E_k / X_k.
        let sum_external: f64 = m
            .edge_counts
            .iter()
            .zip(&m.modularity)
            .map(|(&e, &mk)| {
                if e == 0 || mk.is_infinite() {
                    0.0
                } else {
                    e as f64 / mk
                }
            })
            .sum();
        let lhs = 2.0 * m.total_replicas as f64; // d = 2
        let rhs = 2.0 * g.num_edges() as f64 + sum_external;
        assert!(
            (lhs - rhs).abs() < 1e-6,
            "identity violated at p={p}: {lhs} vs {rhs}"
        );
    }
}

/// Claim 1, qualitative form: a partitioning with higher average
/// per-partition modularity has a lower replication factor.
#[test]
fn higher_modularity_means_lower_rf() {
    let g = power_law_community(2000, 12_000, 2.1, 20, 0.2, 7);
    let p = 8;
    let tlp_part = TwoStageLocalPartitioner::new(TlpConfig::new().seed(3))
        .partition(&g, p)
        .unwrap();
    let rnd_part = RandomPartitioner::new(3).partition(&g, p).unwrap();
    let tlp = PartitionMetrics::compute(&g, &tlp_part);
    let rnd = PartitionMetrics::compute(&g, &rnd_part);
    let mean = |xs: &[f64]| xs.iter().filter(|x| x.is_finite()).sum::<f64>() / xs.len() as f64;
    assert!(tlp.replication_factor < rnd.replication_factor);
    assert!(
        mean(&tlp.modularity) > mean(&rnd.modularity),
        "TLP modularity {:?} should exceed Random {:?}",
        tlp.modularity,
        rnd.modularity
    );
}

/// Table II boundary: M = 1 is the stage switch point.
#[test]
fn table2_stage_criterion() {
    assert!(Modularity::new(0, 5).is_stage_one()); // loose
    assert!(Modularity::new(5, 5).is_stage_one()); // boundary -> Stage I
    assert!(!Modularity::new(6, 5).is_stage_one()); // tight -> Stage II
}

/// Fig. 5 worked example: M = 2/3 is Stage I, M = 5 is Stage II.
#[test]
fn fig5_worked_example() {
    let a = Modularity::new(2, 3);
    assert!((a.value() - 0.67).abs() < 0.01);
    assert!(a.is_stage_one());
    let b = Modularity::new(5, 1);
    assert_eq!(b.value(), 5.0);
    assert!(!b.is_stage_one());
}

/// Fig. 6(a) worked example: with `P_k = {b, c, d}`, candidate `e` scores
/// highest under Eq. 7, `μ_s1(v_i) = max_{v_j ∈ N(v_i) ∩ P_k} |N(v_i) ∩
/// N(v_j)| / |N(v_j)|`. Each numerator is read from the per-edge triangle
/// table and each denominator is a degree: exactly what the engine reads.
#[test]
fn fig6a_worked_example() {
    // a=0, b=1, c=2, d=3, e=4, g=5, h=6, i=7.
    let g = GraphBuilder::new()
        .add_edges([
            (0, 1), // a - b
            (1, 2), // b - c
            (1, 3), // b - d
            (2, 3), // c - d
            (4, 2), // e - c
            (4, 3), // e - d
            (4, 5), // e - g
            (5, 3), // g - d
            (5, 6), // g - h (outside edge)
            (4, 6), // e - h (outside edge)
            (0, 7), // a - i (outside edge)
        ])
        .build();
    let tri = edge_triangles(&g);
    let member = |v: VertexId| (1..=3).contains(&v);
    let mu_s1 = |u: VertexId| {
        g.incident(u)
            .filter(|&(w, _)| member(w))
            .map(|(w, e)| f64::from(tri[e as usize]) / g.degree(w) as f64)
            .fold(0.0, f64::max)
    };
    // a: N(a) ∩ N(b) = {} -> 0.
    assert_eq!(mu_s1(0), 0.0);
    // e: max(|{d}| / |N(c)|, |{c, g}| / |N(d)|) = max(1/3, 2/4).
    assert_eq!(mu_s1(4), 0.5);
    // g: |{e}| / |N(d)| = 1/4.
    assert_eq!(mu_s1(5), 0.25);
}

/// Fig. 7 worked example: E=5, E_out=4; ΔM(g)=0.25, ΔM(e)=2.75, e wins.
#[test]
fn fig7_worked_example() {
    let dm_g = delta_m(5, 4, 1, 1);
    let dm_e = delta_m(5, 4, 3, 1);
    assert!((dm_g - 0.25).abs() < 1e-12);
    assert!((dm_e - 2.75).abs() < 1e-12);
    assert!(mu_s2(5, 4, 3, 1) > mu_s2(5, 4, 1, 1));
}

/// §III-E space claim: the partitioner's per-round state is the partition
/// plus its frontier — nothing proportional to already-emitted partitions.
/// Indirect test: partitioning succeeds and stays balanced even when p is
/// large relative to the graph, where any "keep everything" bug would show
/// up as starved rounds.
#[test]
fn many_small_partitions_stay_covered() {
    let g = power_law_community(1000, 6000, 2.1, 10, 0.2, 5);
    let part = TwoStageLocalPartitioner::new(TlpConfig::new().seed(8))
        .partition(&g, 50)
        .unwrap();
    assert_eq!(part.edge_counts().iter().sum::<usize>(), 6000);
    let nonempty = part.edge_counts().iter().filter(|&&c| c > 0).count();
    assert!(nonempty >= 45, "only {nonempty}/50 partitions used");
}

/// Table VI claim: Stage I selections have much higher average degree than
/// Stage II selections on heavy-tailed graphs.
#[test]
fn table6_stage_degree_gap() {
    let g = power_law_community(2000, 14_000, 2.0, 20, 0.25, 9);
    let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(1));
    let (_, trace) = tlp.partition_with_trace(&g, 10).unwrap();
    let s = trace.stage_degree_summary();
    assert!(s.stage1_count > 0 && s.stage2_count > 0);
    assert!(
        s.stage1_avg_degree > 1.5 * s.stage2_avg_degree,
        "stage I {} vs stage II {}",
        s.stage1_avg_degree,
        s.stage2_avg_degree
    );
}
