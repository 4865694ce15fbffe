//! Property tests for pivot-range sharding (`hoplabels::shard`): over
//! arbitrary generated label indexes and shard counts,
//!
//! * the shard ranges tile `[0, n)` exactly — every pivot (and so
//!   every label entry) is owned by exactly one shard;
//! * every shard is a complete, loadable `HOPIDX03` image over the
//!   full vertex set;
//! * min-merging the per-shard `FlatIndex::query_many` answers equals
//!   `FlatIndex::query_many` on the unsharded image, pair for pair;
//!
//! and over leaf-rich and chain-rich graphs built by the real builder —
//! whose images carry a one- or two-parent record per derived vertex in
//! every shard — additionally that the `rank_pruned` flag is set exactly
//! when every entry's pivot and every parent of every record is at most
//! its vertex, and that when it is set the shards the router skips
//! (`lo > min(s, t)`) change no answer.

use hoplabels::flat::FlatIndex;
use hoplabels::{min_merge, shard_image, LabelEntry, LabelIndex};
use proptest::collection::vec;
use proptest::prelude::*;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::{GraphBuilder, VertexId, INF_DIST};

/// Serialize an index the same way the CLI stages it on disk.
fn image_of(index: &LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).expect("serialize");
    bytes
}

/// Strategy: an arbitrary small undirected label index. Entries are
/// raw `(vertex, pivot, dist)` triples — including ones that break the
/// rank convention (`pivot > vertex`), which sharding must still
/// handle exactly (it just loses the pruning flag).
fn undirected_index_strategy() -> impl Strategy<Value = LabelIndex> {
    (2usize..24).prop_flat_map(|n| {
        vec((0..n, 0..n, 1u32..50), 0..96).prop_map(move |entries| {
            let mut index = LabelIndex::new_undirected(n);
            if let LabelIndex::Undirected(u) = &mut index {
                for (v, pivot, d) in entries {
                    u.labels[v].insert_min(LabelEntry::new(pivot as VertexId, d));
                }
            }
            index
        })
    })
}

/// Strategy: an arbitrary small directed label index (independent
/// in/out label sets).
fn directed_index_strategy() -> impl Strategy<Value = LabelIndex> {
    (2usize..24).prop_flat_map(|n| {
        (vec((0..n, 0..n, 1u32..50), 0..64), vec((0..n, 0..n, 1u32..50), 0..64)).prop_map(
            move |(outs, ins)| {
                let mut index = LabelIndex::new_directed(n);
                if let LabelIndex::Directed(d) = &mut index {
                    for (v, pivot, dist) in outs {
                        d.out_labels[v].insert_min(LabelEntry::new(pivot as VertexId, dist));
                    }
                    for (v, pivot, dist) in ins {
                        d.in_labels[v].insert_min(LabelEntry::new(pivot as VertexId, dist));
                    }
                }
                index
            },
        )
    })
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

/// Strategy: the index built for a random recursive tree (vertex `v`
/// hangs off a random earlier vertex) plus a few extra edges — a graph
/// of leaves, as scale-free fringes are.
fn leafy_index_strategy(directed: bool) -> impl Strategy<Value = LabelIndex> {
    (4usize..40, vec((0u32..1 << 20, 1u32..9, 0u32..3), 44..45), 0usize..5).prop_map(
        move |(n, draws, extra)| {
            let edges = (1..n)
                .map(|v| (v as u32, draws[v].0 % v as u32))
                .chain(draws[..extra].iter().map(|&(x, ..)| (x % n as u32, (x >> 10) % n as u32)));
            built_index(directed, n, edges, &draws)
        },
    )
}

/// Strategy: the index built for a random recursive tree whose edges are
/// each subdivided by a new vertex half of the time, plus up to two
/// cycles of 3 to 6 vertices hung off one vertex — a graph of chains,
/// whose vertices with two neighbours the builders derive.
fn chainy_index_strategy(directed: bool) -> impl Strategy<Value = LabelIndex> {
    (4usize..24, vec((0u32..1 << 20, 1u32..9, 0u32..3), 44..45), 0usize..3).prop_map(
        move |(tree, draws, cycles)| {
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
        },
    )
}

/// The pruning flag is the rank rule over entries and records alike,
/// and when it holds the router's skipped shards change nothing.
fn check_rank_pruning(index: &LabelIndex, k: usize) {
    let bytes = image_of(index);
    let whole = FlatIndex::from_hopidx_bytes(&bytes).expect("load unsharded");
    let ruled = index.sides().iter().all(|side| {
        side.iter().enumerate().all(|(v, l)| {
            l.record().is_none_or(|r| r.pairs().iter().all(|&(p, _)| p as usize <= v))
                && l.entries().iter().all(|e| e.pivot as usize <= v)
        })
    });
    let shards: Vec<_> = shard_image(&bytes, k)
        .expect("shard")
        .into_iter()
        .map(|(image, spec)| (FlatIndex::from_hopidx_bytes(&image).expect("load shard"), spec))
        .collect();
    assert!(shards.iter().all(|(_, spec)| spec.rank_pruned == ruled));
    if !ruled {
        return;
    }
    let n = whole.num_vertices() as VertexId;
    for s in 0..n {
        for t in 0..n {
            let kept = shards.iter().filter(|(_, spec)| spec.lo <= s.min(t));
            let pruned = kept.map(|(flat, _)| flat.query(s, t)).min().unwrap_or(INF_DIST);
            assert_eq!(pruned, whole.query(s, t), "({s}, {t}) with k = {k}");
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn undirected_shards_partition_and_merge_exactly(
        (index, k) in (undirected_index_strategy(), 1usize..6)
    ) {
        check_partition_and_merge(&index, k);
    }

    #[test]
    fn directed_shards_partition_and_merge_exactly(
        (index, k) in (directed_index_strategy(), 1usize..6)
    ) {
        check_partition_and_merge(&index, k);
    }

    #[test]
    fn leaf_rich_shards_partition_merge_and_prune_exactly(
        (undirected, directed, k) in
            (leafy_index_strategy(false), leafy_index_strategy(true), 1usize..5)
    ) {
        for index in [undirected, directed] {
            check_partition_and_merge(&index, k);
            check_rank_pruning(&index, k);
        }
    }

    #[test]
    fn chain_rich_shards_partition_merge_and_prune_exactly(
        (undirected, directed, k) in
            (chainy_index_strategy(false), chainy_index_strategy(true), 1usize..5)
    ) {
        for index in [undirected, directed] {
            check_partition_and_merge(&index, k);
            check_rank_pruning(&index, k);
        }
    }
}
