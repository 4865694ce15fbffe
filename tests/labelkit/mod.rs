//! The build-side tests' one kit: a seeded random graph, the `HOPIDX04`
//! image, and the checks a built index is held to. Theorem 3 says every
//! pruned index answers exactly, so every in-memory reader of it must
//! equal `sfgraph::traversal` BFS/Dijkstra; §5.2 and PLL's canonical
//! cover (Akiba et al.) say it has one canonical form, so it must equal
//! PLL's labelling slot for slot, and the index a build writes must not
//! depend on its engine or its thread count.
//!
//! The root package's build-side tests include it as `mod labelkit;`.

// Twelve test binaries compile this module, and each uses only part of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::ops::Range;

use hop_doubling::baselines::{pll, BitParallelIndex};
use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, BuildStats, HopDbConfig, IterationStats};
use hop_doubling::hoplabels::{
    min_merge, shard_image, FlatIndex, LabelIndex, Record, VertexLabels,
};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::reduce::eliminate;
use hop_doubling::sfgraph::traversal::sssp;
use hop_doubling::sfgraph::{Direction, Dist, Graph, GraphBuilder, VertexId, INF_DIST};
use rand::rngs::StdRng;
use rand::Rng;

/// A query pair `(s, t)`.
pub type Pair = (VertexId, VertexId);

/// The graph of `n` vertices and the arcs `(u, v, w)`, weighted if
/// `weighted`.
pub fn graph(
    directed: bool,
    n: usize,
    weighted: bool,
    arcs: impl IntoIterator<Item = (VertexId, VertexId, Dist)>,
) -> Graph {
    let b = if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    let mut b = if weighted { b.weighted() } else { b };
    arcs.into_iter().for_each(|(u, v, w)| b.add_weighted_edge(u, v, w));
    b.build()
}

/// A graph of `n` vertices, `n` drawn from `vertices`, and `n..4n` arcs
/// between uniform endpoints (loops and repeats included), each weighted
/// from `weights` when given. A seed names the graph it named before the
/// tests shared this generator: the draws come in the same order.
pub fn random_graph(
    rng: &mut StdRng,
    vertices: Range<usize>,
    directed: bool,
    weights: Option<Range<Dist>>,
) -> Graph {
    let n = rng.gen_range(vertices);
    let arc = |rng: &mut StdRng| {
        let (u, v) = (rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
        (u, v, weights.clone().map_or(1, |w| rng.gen_range(w)))
    };
    let arcs: Vec<_> = (0..rng.gen_range(n..4 * n)).map(|_| arc(rng)).collect();
    graph(directed, n, weights.is_some(), arcs)
}

/// `g` relabeled so that id = rank under `by`.
pub fn ranked(g: &Graph, by: &RankBy) -> Graph {
    relabel_by_rank(g, &rank_vertices(g, by))
}

/// The index's `HOPIDX04` image, from the one serializer.
pub fn image(index: &LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).expect("an image writes into memory");
    bytes
}

/// What a build must repeat at every thread count: its index, its
/// per-iteration `(candidates, pruned, inserted, total_entries)` rows,
/// and an external build's `(io, sort runs, merge passes, seeks,
/// (records encoded, records decoded))`.
type Run = (
    LabelIndex,
    Vec<(u64, u64, u64, u64)>,
    Option<((u64, u64, u64, u64), u64, u64, u64, (u64, u64))>,
);

fn run(g: &Graph, ext: Option<&ExtMemConfig>, threads: usize) -> Run {
    let cfg = HopDbConfig::default().with_parallelism(threads);
    let rows = |stats: &BuildStats| {
        let row = |r: &IterationStats| (r.candidates, r.pruned, r.inserted, r.total_entries);
        stats.iterations.iter().map(row).collect()
    };
    let Some(ext) = ext else {
        let (index, stats) = build_prelabeled(g, &cfg);
        return (index, rows(&stats), None);
    };
    let b = build_external(g, &cfg, ext).expect("external build");
    let records = (b.records_encoded, b.records_decoded);
    (b.index, rows(&b.stats), Some((b.io, b.sort_runs, b.merge_passes, b.seeks, records)))
}

/// Build the rank-relabeled `g` in memory (`ext` `None`) at 1, 2, 4 and 8
/// threads, or externally at `ext`'s budget at 1, 2 and 4, and hold every
/// build to the first: the index entry for entry, its image byte for
/// byte, the iteration rows and the external I/O. The external index
/// must also be the in-memory one. Returns the index.
pub fn assert_thread_counts_agree(g: &Graph, ext: Option<&ExtMemConfig>) -> LabelIndex {
    let (index, rows, io) = run(g, ext, 1);
    if ext.is_some() {
        let (mem, _) = build_prelabeled(g, &HopDbConfig::default());
        assert_eq!(index, mem, "the external engine diverges from the in-memory engine");
    }
    let bytes = image(&index);
    let threads: &[usize] = if ext.is_some() { &[2, 4] } else { &[2, 4, 8] };
    for &threads in threads {
        let (par, par_rows, par_io) = run(g, ext, threads);
        assert_eq!(par, index, "{threads} threads: the index differs from 1 thread's");
        assert_eq!(image(&par), bytes, "{threads} threads: the image is not byte-identical");
        assert_eq!(par_rows, rows, "{threads} threads: the iteration rows diverged");
        assert_eq!(par_io, io, "{threads} threads: the I/O accounting diverged");
    }
    index
}

/// The pairs from every `step`-th vertex of `g` to every vertex.
pub fn pairs_from(g: &Graph, step: usize) -> Vec<Pair> {
    let n = g.num_vertices() as VertexId;
    (0..n).step_by(step).flat_map(|s| (0..n).map(move |t| (s, t))).collect()
}

/// The distance in `g` of each pair, by BFS/Dijkstra from each source.
pub fn truth(g: &Graph, pairs: &[Pair]) -> Vec<Dist> {
    let mut rows = HashMap::new();
    let mut dist =
        |(s, t): Pair| rows.entry(s).or_insert_with(|| sssp(g, s, Direction::Out))[t as usize];
    pairs.iter().map(|&pair| dist(pair)).collect()
}

/// Every in-memory reader of `index`, built on `g`, against BFS/Dijkstra
/// on every pair; `at` names the case in a failure.
pub fn assert_readers(g: &Graph, index: &LabelIndex, at: &str) {
    assert_readers_on(g, index, &pairs_from(g, 1), at);
}

/// [`assert_readers`] on `pairs`; returns their distances. The readers:
/// the nested [`LabelIndex`]; the [`FlatIndex`], which must be the
/// image's bytes with the nested index's label lengths; the image cut
/// into 2 pivot-range shards, min-merged; and on unweighted undirected
/// graphs the §6 [`BitParallelIndex`] at 1, 4 and 50 roots, whose roots
/// and neighbour sets come from `g` and whose labels from `index`.
pub fn assert_readers_on(g: &Graph, index: &LabelIndex, pairs: &[Pair], at: &str) -> Vec<Dist> {
    let want = truth(g, pairs);
    let (bytes, flat) = (image(index), FlatIndex::from_index(index));
    assert_eq!(flat.resident_bytes(), bytes.len(), "{at}: the flat index is not the image");
    assert_eq!(flat.total_entries(), index.total_entries(), "{at}: flat entries");
    let nested = |v| (index.source_labels(v).len(), index.target_labels(v).len());
    let lens = |v| (flat.out_label_len(v), flat.in_label_len(v));
    let wrong = (0..index.num_vertices() as VertexId).find(|&v| lens(v) != nested(v));
    assert!(wrong.is_none(), "{at}: the flat label lengths of {wrong:?} are not the nested ones");
    let roots: &[usize] = if g.is_directed() || g.is_weighted() { &[] } else { &[1, 4, 50] };
    let bp: Vec<_> = roots.iter().map(|&k| (k, BitParallelIndex::build(g, index, k))).collect();
    for (&(s, t), &want) in pairs.iter().zip(&want) {
        assert_eq!(index.query(s, t), want, "{at}: nested {s}->{t}");
        assert_eq!(flat.query(s, t), want, "{at}: flat {s}->{t}");
        for (roots, bp) in &bp {
            assert_eq!(bp.query(s, t), want, "{at}: bit-parallel at {roots} roots {s}->{t}");
        }
    }
    assert_eq!(merged_shards(&bytes, 2, pairs), want, "{at}: 2-shard min-merge");
    want
}

/// The answers to `pairs` of the image `bytes` cut into `k` pivot-range
/// shards, min-merged: every shard carries every record.
pub fn merged_shards(bytes: &[u8], k: usize, pairs: &[Pair]) -> Vec<Dist> {
    let mut merged = vec![INF_DIST; pairs.len()];
    for (shard, _) in shard_image(bytes, k).expect("shard") {
        let shard = FlatIndex::from_hopidx_bytes(&shard).expect("load shard");
        min_merge(&mut merged, &shard.query_many(pairs, 1));
    }
    merged
}

/// `index`, the default build of the rank-relabeled `g`, is PLL on `g`'s
/// reduced core slot for slot, with each vertex the build derived as the
/// record of its arcs on each side: `[Lout, Lin]` take the arcs out of
/// and into it, `[L]` all. Every vertex of one or two neighbours is
/// derived: every record fits an image on graphs this small.
pub fn assert_canonical(g: &Graph, index: &LabelIndex, at: &str) {
    let reduced = eliminate(g, |_| true);
    let mut expect = pll::build_prelabeled(&reduced.core);
    for &v in &reduced.derived {
        for (side, dir) in expect.sides_mut().iter_mut().zip([Direction::Out, Direction::In]) {
            let arcs: Vec<(VertexId, Dist)> = g.edges(v, dir).collect();
            let record = (!arcs.is_empty()).then(|| Record::new(&arcs));
            side[v as usize] = record.map_or_else(VertexLabels::new, VertexLabels::from_record);
        }
    }
    assert_eq!(*index, expect, "{at}: HopDb and PLL on the core, plus the records, disagree");
}
