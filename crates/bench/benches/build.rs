//! Criterion micro-bench: index construction per strategy (Table 8's
//! time columns) plus PLL for reference, on a small GLP graph; a
//! thread-scaling group for the sharded engine; and the inverted-list
//! upsert comparison (position map vs the old linear scan).

use baselines::pll;
use criterion::{criterion_group, criterion_main, Criterion};
use graphgen::{glp, with_random_weights, GlpParams};
use hopdb::invlist::InvList;
use hopdb::{build_prelabeled, HopDbConfig, Strategy};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::{Dist, VertexId};

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

/// Build-time scaling of the sharded engine (hopbench reports the same
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

/// The weighted-build path improves label distances in place, hammering
/// the inverted lists' upsert; compare the position-map `InvList`
/// against the previous linear-scan implementation.
fn bench_invlist_upsert(c: &mut Criterion) {
    // Deterministic upsert trace: many owners per pivot, ~25% repeats.
    let mut trace: Vec<(VertexId, Dist)> = Vec::new();
    let mut x = 0x9e37u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let owner = (x % 8_192) as VertexId;
        trace.push((owner, (40_000 - i) as Dist));
    }

    let mut group = c.benchmark_group("invlist");
    group.bench_function("position-map", |b| {
        b.iter(|| {
            let mut l = InvList::default();
            for &(owner, d) in &trace {
                l.upsert(owner, d);
            }
            std::hint::black_box(l.len())
        })
    });
    group.bench_function("linear-scan", |b| {
        b.iter(|| {
            // The pre-refactor `upsert_inv`: O(len) search on repeats.
            let mut entries: Vec<(VertexId, Dist)> = Vec::new();
            for &(owner, d) in &trace {
                if let Some(slot) = entries.iter_mut().find(|(o, _)| *o == owner) {
                    slot.1 = d;
                } else {
                    entries.push((owner, d));
                }
            }
            std::hint::black_box(entries.len())
        })
    });
    group.finish();
}

/// Weighted GLP build: end-to-end coverage of the improve-in-place path
/// the inverted-list fix targets.
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

criterion_group!(
    benches,
    bench_builds,
    bench_build_threads,
    bench_invlist_upsert,
    bench_weighted_build
);
criterion_main!(benches);
