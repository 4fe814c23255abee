//! Microbenchmarks for `PatternSampling` — the inner loop whose cost
//! dominates the paper's runtime column (r = 7200 per support pass,
//! r = 60 per FBDT node).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cirlearn::sampling::{pattern_sampling, seeded_rng, SamplingConfig};
use cirlearn_logic::Cube;
use cirlearn_oracle::generate;

fn bench_pattern_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pattern_sampling");
    for &rounds in &[60usize, 240, 960] {
        group.bench_with_input(BenchmarkId::new("eco_40in", rounds), &rounds, |b, &r| {
            let mut oracle = generate::eco_case(40, 4, 7);
            let probe: Vec<usize> = (0..40).collect();
            let cfg = SamplingConfig {
                rounds: r,
                ratios: vec![0.5, 0.25, 0.75],
            };
            let mut rng = seeded_rng(1);
            let mut block = Vec::new();
            b.iter(|| {
                let stats = pattern_sampling(
                    &mut oracle,
                    0,
                    &Cube::top(),
                    &probe,
                    &cfg,
                    &mut rng,
                    &mut block,
                );
                black_box(stats.truth_ratio)
            });
        });
    }
    group.finish();
}

fn bench_support_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("support_identification");
    group.sample_size(10);
    for &pi in &[40usize, 80, 160] {
        group.bench_with_input(BenchmarkId::from_parameter(pi), &pi, |b, &pi| {
            let mut oracle = generate::eco_case(pi, 2, 3);
            let cfg = SamplingConfig::fast();
            let mut rng = seeded_rng(2);
            b.iter(|| {
                let info = cirlearn::support::identify_support(&mut oracle, 0, &cfg, &mut rng);
                black_box(info.support.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pattern_sampling, bench_support_scaling);
criterion_main!(benches);
