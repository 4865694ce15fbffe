//! Criterion micro-bench: index construction per strategy (Table 8's
//! time columns) plus PLL for reference, on a small GLP graph; a
//! thread-scaling group for the parallel engine; and a weighted build.

use baselines::pll;
use criterion::{criterion_group, criterion_main, Criterion};
use graphgen::{glp, with_random_weights, GlpParams};
use hopdb::{build_prelabeled, HopDbConfig, Strategy};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};

fn bench_builds(c: &mut Criterion) {
    let g = glp(&GlpParams::with_density(4_000, 3.0, 5));
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);

    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for (name, strategy) in [
        ("doubling", Strategy::Doubling),
        ("stepping", Strategy::Stepping),
        ("hybrid", Strategy::Hybrid { switch_at: 10 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(build_prelabeled(
                    &relabeled,
                    &HopDbConfig::with_strategy(strategy.clone()),
                ))
            })
        });
    }
    group.bench_function("pll", |b| {
        b.iter(|| std::hint::black_box(pll::build_prelabeled(&relabeled)))
    });
    group.finish();
}

/// Build-time scaling of the parallel engine (hopbench reports the same
/// ratio at two threads as `core.par2_speedup`).
fn bench_build_threads(c: &mut Criterion) {
    let g = glp(&GlpParams::with_density(8_000, 4.0, 9));
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);

    let mut group = c.benchmark_group("build-threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let cfg = HopDbConfig::default().with_parallelism(threads);
        group.bench_function(format!("threads-{threads}"), |b| {
            b.iter(|| std::hint::black_box(build_prelabeled(&relabeled, &cfg)))
        });
    }
    group.finish();
}

/// Weighted GLP build: rounds that lower existing `(owner, pivot)`
/// distances in place, which unweighted stepping never does.
fn bench_weighted_build(c: &mut Criterion) {
    let g = with_random_weights(&glp(&GlpParams::with_density(4_000, 3.0, 5)), 1, 10, 5);
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);
    let mut group = c.benchmark_group("build-weighted");
    group.sample_size(10);
    group.bench_function("hybrid", |b| {
        b.iter(|| std::hint::black_box(build_prelabeled(&relabeled, &HopDbConfig::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_builds, bench_build_threads, bench_weighted_build);
criterion_main!(benches);
