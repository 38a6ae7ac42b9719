//! Fig. 8-flavored benchmark: the paper's five-algorithm line-up on one
//! power-law community graph, p = 10.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tlp_baselines::{EdgeOrder, LdgPartitioner, StreamingKind, StreamingPartitioner, VertexOrder};
use tlp_core::{EdgePartitioner, TlpConfig, TwoStageLocalPartitioner};
use tlp_graph::generators::power_law_community;
use tlp_metis::MetisPartitioner;

fn bench_lineup(c: &mut Criterion) {
    let graph = power_law_community(4_000, 24_000, 2.1, 40, 0.25, 7);
    let p = 10;
    let lineup: Vec<Box<dyn EdgePartitioner>> = vec![
        Box::new(TwoStageLocalPartitioner::new(TlpConfig::new().seed(1))),
        Box::new(MetisPartitioner::default()),
        Box::new(LdgPartitioner::new(VertexOrder::Random(1))),
        Box::new(StreamingPartitioner {
            kind: StreamingKind::Dbh,
            order: EdgeOrder::Natural,
            seed: 1,
        }),
        Box::new(StreamingPartitioner {
            kind: StreamingKind::Random,
            order: EdgeOrder::Natural,
            seed: 1,
        }),
    ];
    let mut group = c.benchmark_group("fig8_lineup_p10");
    group.sample_size(10);
    for algo in &lineup {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), algo, |b, algo| {
            b.iter(|| algo.partition(&graph, p).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lineup);
criterion_main!(benches);
