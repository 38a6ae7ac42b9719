//! Ablation benches for the design choices called out in DESIGN.md:
//! reseed policy and the TLP_R stage-ratio sweep (Figs. 9-11 flavored).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tlp_core::{EdgePartitioner, ReseedPolicy, StageSwitch, TlpConfig, TwoStageLocalPartitioner};
use tlp_graph::generators::power_law_community;

fn bench_reseed_policy(c: &mut Criterion) {
    // A disconnected graph stresses the frontier-exhaustion path.
    let mut builder = tlp_graph::GraphBuilder::new();
    for island in 0..40u32 {
        let base = island * 100;
        let g = power_law_community(100, 500, 2.1, 4, 0.3, island as u64);
        for e in g.view().edge_iter() {
            builder.push_edge(base + e.source(), base + e.target());
        }
    }
    let graph = builder.build();
    let mut group = c.benchmark_group("ablation_reseed_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("reseed", ReseedPolicy::Reseed),
        ("break_and_sweep", ReseedPolicy::Break),
    ] {
        group.bench_function(name, |b| {
            let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(1).reseed_policy(policy));
            b.iter(|| tlp.partition(&graph, 10).unwrap())
        });
    }
    group.finish();
}

fn bench_tlp_r(c: &mut Criterion) {
    let graph = power_law_community(3_000, 18_000, 2.1, 30, 0.25, 9);
    let mut group = c.benchmark_group("tlp_r_ratio");
    group.sample_size(10);
    for r in [0.0, 0.3, 0.5, 0.7, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            let config = TlpConfig::new()
                .seed(1)
                .stage_switch(StageSwitch::EdgeRatio(r));
            let algo = TwoStageLocalPartitioner::new(config);
            b.iter(|| algo.partition(&graph, 10).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reseed_policy, bench_tlp_r);
criterion_main!(benches);
