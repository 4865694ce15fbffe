//! Property tests for pivot-range sharding (`hoplabels::shard`): over
//! arbitrary generated label indexes and shard counts,
//!
//! * the shard ranges tile `[0, n)` exactly — every pivot (and so
//!   every label entry) is owned by exactly one shard;
//! * every shard is a complete, loadable `HOPIDX04` image over the
//!   full vertex set;
//! * min-merging the per-shard `FlatIndex::query_many` answers equals
//!   `FlatIndex::query_many` on the unsharded image, pair for pair;
//!
//! and over leaf-rich and chain-rich graphs built by the real builder —
//! whose images carry a one- or two-parent record per derived vertex —
//! additionally that each shard is the source pruned to its range, byte
//! for byte: every label keeps exactly its entries whose pivot the shard
//! owns, and every record goes to every shard unchanged.

use hoplabels::flat::FlatIndex;
use hoplabels::{min_merge, shard_image, LabelEntry, LabelIndex, VertexLabels};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::{GraphBuilder, VertexId, INF_DIST};

/// Serialize an index the same way the CLI stages it on disk.
fn image_of(index: &LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).expect("serialize");
    bytes
}

/// Cases per property.
const CASES: u32 = 64;

/// An arbitrary small label index of 2..24 vertices, undirected (one
/// side of up to 95 raw `(vertex, pivot, dist)` entries) or directed
/// (two of up to 63 each). Each entry's pivot is taken below its
/// vertex: an image holds no other.
fn random_index(rng: &mut StdRng, directed: bool) -> LabelIndex {
    let n = rng.gen_range(2usize..24);
    let mut index = LabelIndex::new(n, directed);
    let most = if directed { 64 } else { 96 };
    for side in index.sides_mut() {
        for _ in 0..rng.gen_range(0..most) {
            let (v, pivot, d) = (rng.gen_range(1..n), rng.gen_range(0..n), rng.gen_range(1..50));
            side[v].insert_min(LabelEntry::new((pivot % v) as VertexId, d));
        }
    }
    index
}

/// A random draw: a vertex pick, a weight, and a way to orient an edge.
type Draw = (u32, u32, u32);

/// The index `hopdb::build_prelabeled` builds for the `n`-vertex graph
/// of `edges`, weighted and — when directed — each edge oriented one
/// way or both by the draws.
fn built_index(
    directed: bool,
    n: usize,
    edges: impl Iterator<Item = (u32, u32)>,
    draws: &[Draw],
) -> LabelIndex {
    let b = if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    let mut b = b.weighted();
    for ((u, v), &(_, w, way)) in edges.zip(draws.iter().cycle().skip(7)) {
        match way {
            0 => b.add_weighted_edge(u, v, w),
            1 => b.add_weighted_edge(v, u, w),
            _ => {
                b.add_weighted_edge(u, v, w);
                b.add_weighted_edge(v, u, w + 1);
            }
        }
    }
    let g = b.build();
    let g = relabel_by_rank(&g, &rank_vertices(&g, &RankBy::paper_default(&g)));
    hopdb::build_prelabeled(&g, &hopdb::HopDbConfig::default()).0
}

/// The 44 draws a built graph takes its edges, weights and orientations
/// from.
fn draws(rng: &mut StdRng) -> Vec<Draw> {
    (0..44).map(|_| (rng.gen_range(0..1 << 20), rng.gen_range(1..9), rng.gen_range(0..3))).collect()
}

/// The index built for a random recursive tree of 4..40 vertices (vertex
/// `v` hangs off a random earlier vertex) plus up to four extra edges —
/// a graph of leaves, as scale-free fringes are.
fn leafy_index(rng: &mut StdRng, directed: bool) -> LabelIndex {
    let (n, draws, extra) = (rng.gen_range(4usize..40), draws(rng), rng.gen_range(0usize..5));
    let edges = (1..n)
        .map(|v| (v as u32, draws[v].0 % v as u32))
        .chain(draws[..extra].iter().map(|&(x, ..)| (x % n as u32, (x >> 10) % n as u32)));
    built_index(directed, n, edges, &draws)
}

/// The index built for a random recursive tree of 4..24 vertices whose
/// edges are each subdivided by a new vertex half of the time, plus up
/// to two cycles of 3 to 6 vertices hung off one vertex — a graph of
/// chains, whose vertices with two neighbours the builders derive.
fn chainy_index(rng: &mut StdRng, directed: bool) -> LabelIndex {
    let (tree, draws, cycles) = (rng.gen_range(4usize..24), draws(rng), rng.gen_range(0usize..3));
    let mut edges = Vec::new();
    let mut n = tree as u32;
    for v in 1..tree as u32 {
        let (x, ..) = draws[v as usize];
        let u = x % v;
        if x & 1 << 19 == 0 {
            edges.push((u, v));
        } else {
            edges.extend([(u, n), (n, v)]);
            n += 1;
        }
    }
    for &(x, ..) in &draws[40..40 + cycles] {
        let anchor = (x >> 4) % n;
        let mut prev = anchor;
        for _ in 0..2 + x % 4 {
            edges.push((prev, n));
            (prev, n) = (n, n + 1);
        }
        edges.push((prev, anchor));
    }
    built_index(directed, n as usize, edges.into_iter(), &draws)
}

/// Each shard's image is the one the writer makes of the source with
/// every label pruned to the shard's pivot range and every record kept.
fn check_pruned_to_range(index: &LabelIndex, k: usize) {
    for (image, spec) in shard_image(&image_of(index), k).expect("shard") {
        let cut = |label: &VertexLabels| match label.record() {
            Some(_) => label.clone(),
            None => {
                let kept = label.entries().iter().filter(|e| (spec.lo..spec.hi).contains(&e.pivot));
                VertexLabels::from_entries(kept.copied().collect())
            }
        };
        let pruned = LabelIndex::from_sides(
            index.sides().iter().map(|side| side.iter().map(cut).collect()).collect(),
        );
        assert!(image == image_of(&pruned), "shard {} of {k} is not its range's cut", spec.index);
    }
}

/// The property itself, shared by both directions.
fn check_partition_and_merge(index: &LabelIndex, k: usize) {
    let bytes = image_of(index);
    let whole = FlatIndex::from_hopidx_bytes(&bytes).expect("load unsharded");
    let n = whole.num_vertices();

    let shards = shard_image(&bytes, k).expect("shard");
    assert_eq!(shards.len(), k);

    // Ranges tile [0, n): start at 0, end at n, and each shard begins
    // where the previous one ended — so every pivot has exactly one
    // owner, which is what makes the merge exact.
    assert_eq!(shards[0].1.lo, 0);
    assert_eq!(shards[k - 1].1.hi as usize, n);
    for w in shards.windows(2) {
        assert_eq!(w[0].1.hi, w[1].1.lo, "ranges must tile with no gap or overlap");
    }
    for (i, (_, spec)) in shards.iter().enumerate() {
        assert_eq!(spec.index as usize, i);
        assert_eq!(spec.count as usize, k);
    }

    // Exhaustive pair sweep: min-merged shard answers == unsharded.
    let pairs: Vec<(VertexId, VertexId)> =
        (0..n as VertexId).flat_map(|s| (0..n as VertexId).map(move |t| (s, t))).collect();
    let expect = whole.query_many(&pairs, 1);
    let mut merged = vec![INF_DIST; pairs.len()];
    for (image, _) in &shards {
        let flat = FlatIndex::from_hopidx_bytes(image).expect("load shard");
        assert_eq!(flat.num_vertices(), n, "shards keep the full vertex set");
        assert_eq!(flat.is_directed(), whole.is_directed());
        min_merge(&mut merged, &flat.query_many(&pairs, 1));
    }
    assert_eq!(merged, expect, "min-merged shard answers diverge (k = {k})");
}

/// Check `check` on [`CASES`] draws of `draw` from `seed`, naming the
/// seed and case of a failure.
fn for_cases<T>(seed: u64, draw: impl Fn(&mut StdRng) -> T, check: impl Fn(&T)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let drawn = draw(&mut rng);
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&drawn)));
        assert!(checked.is_ok(), "seed {seed:#x} case {case} failed");
    }
}

#[test]
fn undirected_shards_partition_and_merge_exactly() {
    let draw = |rng: &mut StdRng| (random_index(rng, false), rng.gen_range(1usize..6));
    for_cases(0x5a01, draw, |(index, k)| check_partition_and_merge(index, *k));
}

#[test]
fn directed_shards_partition_and_merge_exactly() {
    let draw = |rng: &mut StdRng| (random_index(rng, true), rng.gen_range(1usize..6));
    for_cases(0x5a02, draw, |(index, k)| check_partition_and_merge(index, *k));
}

/// Partition, merge and prune on both orientations of a drawn graph.
fn check_built((undirected, directed, k): &(LabelIndex, LabelIndex, usize)) {
    for index in [undirected, directed] {
        check_partition_and_merge(index, *k);
        check_pruned_to_range(index, *k);
    }
}

#[test]
fn leaf_rich_shards_partition_merge_and_prune_exactly() {
    let draw = |rng: &mut StdRng| {
        (leafy_index(rng, false), leafy_index(rng, true), rng.gen_range(1usize..5))
    };
    for_cases(0x5a03, draw, check_built);
}

#[test]
fn chain_rich_shards_partition_merge_and_prune_exactly() {
    let draw = |rng: &mut StdRng| {
        (chainy_index(rng, false), chainy_index(rng, true), rng.gen_range(1usize..5))
    };
    for_cases(0x5a04, draw, check_built);
}
