//! Criterion micro-bench: memory query latency per method (the query
//! columns of Table 6) on one undirected GLP graph.

use baselines::{Bidij, DistanceOracle, HighwayCover, Pll};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use extmem::device::TempStore;
use graphgen::{glp, GlpParams};
use hopdb::{build, HopDbConfig};
use hoplabels::bitparallel::BitParallelIndex;
use hoplabels::disk::{CachedDiskIndex, DiskIndex};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};

fn bench_queries(c: &mut Criterion) {
    let g = glp(&GlpParams::with_density(20_000, 4.0, 42));
    let pairs = bench::query_pairs(&g, 4_096, 7);

    let hopdb = build(&g, &HopDbConfig::default());
    let pll = Pll::build(&g);
    let bidij = Bidij::new(g.clone());
    let hcl = HighwayCover::build(g.clone(), 16);
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);
    let bp = BitParallelIndex::build(&relabeled, hopdb.index(), 50);
    let rank_pairs: Vec<(u32, u32)> =
        pairs.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();

    let mut group = c.benchmark_group("memory-query");
    let mut i = 0usize;
    // Nested-vs-flat on the same pairs: `hopdb-nested` walks the
    // per-vertex `Vec<LabelEntry>` index, `hopdb-flat` the image in
    // place; `hopdb` is the end-user path (rank translation + flat).
    let nested = hopdb.index();
    let flat = hopdb.flat_index();
    group.bench_function("hopdb", |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(hopdb.query(s, t))
        })
    });
    group.bench_function("hopdb-nested", |b| {
        b.iter(|| {
            let (s, t) = rank_pairs[i % rank_pairs.len()];
            i += 1;
            std::hint::black_box(nested.query(s, t))
        })
    });
    group.bench_function("hopdb-flat", |b| {
        b.iter(|| {
            let (s, t) = rank_pairs[i % rank_pairs.len()];
            i += 1;
            std::hint::black_box(flat.query(s, t))
        })
    });
    group.bench_function("hopdb-flat-batched", |b| {
        b.iter(|| std::hint::black_box(flat.query_many(&rank_pairs, 4)))
    });
    group.bench_function("hopdb-bp", |b| {
        b.iter(|| {
            let (s, t) = rank_pairs[i % rank_pairs.len()];
            i += 1;
            std::hint::black_box(bp.query(s, t))
        })
    });
    group.bench_function("pll", |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(pll.distance(s, t))
        })
    });
    group.bench_function("hcl-star", |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(hcl.distance(s, t))
        })
    });
    group.sample_size(20);
    group.bench_function("bidij", |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(bidij.distance(s, t))
        })
    });
    group.finish();

    // Disk-based query (two positioned label reads per query), cold and
    // behind the LRU label cache.
    let store = TempStore::new().unwrap();
    let mut group = c.benchmark_group("disk-query");
    group.bench_function("hopdb-disk", |b| {
        b.iter_batched(
            || DiskIndex::create(hopdb.index(), &store, "bench").unwrap(),
            |mut disk| {
                for &(s, t) in rank_pairs.iter().take(64) {
                    std::hint::black_box(disk.query(s, t).unwrap());
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("hopdb-disk-cached", |b| {
        b.iter_batched(
            || {
                let disk = DiskIndex::create(hopdb.index(), &store, "bench-c").unwrap();
                let cached = CachedDiskIndex::new(disk, 4096);
                // Warm with the same pairs the measurement replays.
                for &(s, t) in rank_pairs.iter().take(64) {
                    cached.query(s, t).unwrap();
                }
                cached
            },
            |cached| {
                for &(s, t) in rank_pairs.iter().take(64) {
                    std::hint::black_box(cached.query(s, t).unwrap());
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
