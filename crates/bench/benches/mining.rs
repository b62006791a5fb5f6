//! Mining throughput: the vertical miner across MOA modes, body lengths,
//! and minimum supports (the step that dominates Figure 3's runtime, per
//! §5.3 "the execution time is dominated by the step of generating
//! association rules").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_bench::bench_dataset;
use pm_rules::{MinerConfig, MoaMode, RuleMiner, Support};

fn bench_mining(c: &mut Criterion) {
    let data = bench_dataset(4000, 300, 7);
    let mut group = c.benchmark_group("mine");
    group.sample_size(10);
    for moa in [MoaMode::Enabled, MoaMode::Disabled] {
        for max_len in [2usize, 3] {
            let id = format!(
                "{}len{max_len}",
                if moa == MoaMode::Enabled {
                    "+MOA/"
                } else {
                    "-MOA/"
                }
            );
            group.bench_with_input(BenchmarkId::new("0.5%", id), &(), |b, _| {
                b.iter(|| {
                    RuleMiner::new(MinerConfig {
                        min_support: Support::Fraction(0.005),
                        max_body_len: max_len,
                        moa,
                        ..MinerConfig::default()
                    })
                    .mine(&data)
                })
            });
        }
    }
    group.finish();
}

/// Thread scaling of the parallel mining path (output is bit-identical
/// at every point, so this is purely a wall-clock comparison; expect
/// ≥2× at 4+ physical cores, and no change on a single-core host).
fn bench_thread_scaling(c: &mut Criterion) {
    let data = bench_dataset(4000, 300, 7);
    let mut group = c.benchmark_group("mine-threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("0.5%/+MOA/len3", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    RuleMiner::new(MinerConfig {
                        min_support: Support::Fraction(0.005),
                        max_body_len: 3,
                        ..MinerConfig::default()
                    })
                    .with_threads(t)
                    .mine(&data)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_mining, bench_thread_scaling
}
criterion_main!(benches);
