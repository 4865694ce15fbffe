//! Property: every query surface answers identically.
//!
//! On random GLP scale-free graphs (directed, undirected, and weighted
//! so that hub distances need more than one byte) and on a corpus of
//! graphs built around their leaves — the vertices the builders derive
//! from their one neighbour instead of labelling — the frozen
//! [`FlatIndex`], the nested [`LabelIndex`], the on-disk [`DiskIndex`]
//! with and without its label cache, the 2- and 3-shard min-merge, and a
//! [`LiveIndex`] whose overlay edge touches a leaf must all equal the
//! BFS/Dijkstra ground truth on every pair; `FlatIndex::query_many` must
//! return the same answers in input order at every thread count, and the
//! flat index must be the image's bytes and nothing else.

use std::sync::Arc;

use hop_doubling::extmem::device::TempStore;
use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hoplabels::disk::{CachedDiskIndex, DiskIndex};
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::hoplabels::{min_merge, shard_image, LabelIndex, LiveIndex, QueryBackend};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId, INF_DIST};
use proptest::prelude::*;

/// Strategy: a small random GLP graph, optionally oriented (directed).
fn glp_strategy(directed: bool) -> impl Strategy<Value = Graph> {
    (30usize..90, 1u64..5000, 20u64..45).prop_map(move |(n, seed, density_tenths)| {
        let und = glp(&GlpParams::with_density(n, density_tenths as f64 / 10.0, seed));
        if directed {
            orient_scale_free(&und, 0.25, seed)
        } else {
            und
        }
    })
}

/// `g` plus the edge `(u, v, w)`.
fn with_edge(g: &Graph, (u, v, w): (VertexId, VertexId, u32)) -> Graph {
    let n = g.num_vertices();
    let mut b = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    b = b.weighted();
    for (s, t, d) in g.edge_list().into_iter().chain([(u, v, w)]) {
        b.add_weighted_edge(s, t, d);
    }
    b.build()
}

/// Check every surface against BFS truth on all pairs of `g`; returns
/// the nested index it built and how many vertices that index derives.
fn check_equivalence(g: &Graph) -> (LabelIndex, usize) {
    let ranking = rank_vertices(g, &RankBy::paper_default(g));
    let relabeled = relabel_by_rank(g, &ranking);
    let truth = all_pairs(&relabeled);
    let (index, stats) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let flat = FlatIndex::from_index(&index);
    let store = TempStore::new().expect("temp store");
    let mut disk = DiskIndex::create(&index, &store, "flat-eq").expect("disk index");
    // A cache too small for the labels, so it evicts while it answers.
    let cached = CachedDiskIndex::new(
        DiskIndex::create(&index, &store, "flat-eq-cached").expect("disk index"),
        4,
    );

    // Served in place: what is resident is the image the one writer
    // produces, and the per-label counts read off its bytes are the
    // nested index's.
    let mut image = Vec::new();
    index.write_hopidx(&mut image).expect("serialize");
    prop_assert_eq!(flat.resident_bytes(), image.len());
    prop_assert_eq!(flat.total_entries(), index.total_entries());

    let n = g.num_vertices() as VertexId;
    let mut pairs = Vec::with_capacity((n as usize) * (n as usize));
    // A derived vertex has an arc, so a record, on at least one side.
    let record =
        |v| [index.source_labels(v), index.target_labels(v)].iter().any(|l| l.record().is_some());
    prop_assert_eq!((0..n).filter(|&v| record(v)).count(), stats.derived_vertices as usize);
    for s in 0..n {
        prop_assert_eq!(flat.out_label_len(s), index.source_labels(s).len(), "out len {s}");
        prop_assert_eq!(flat.in_label_len(s), index.target_labels(s).len(), "in len {s}");
        for t in 0..n {
            let want = truth[s as usize][t as usize];
            prop_assert_eq!(index.query(s, t), want, "nested {s}->{t}");
            prop_assert_eq!(flat.query(s, t), want, "flat {s}->{t}");
            prop_assert_eq!(disk.query(s, t).expect("disk query"), want, "disk {s}->{t}");
            prop_assert_eq!(cached.query(s, t).expect("cached query"), want, "cached {s}->{t}");
            pairs.push((s, t));
        }
    }
    let expect: Vec<u32> = pairs.iter().map(|&(s, t)| truth[s as usize][t as usize]).collect();

    // The batched path must agree pair-for-pair, in input order, at
    // every thread count.
    for threads in [1usize, 2, 4, 8] {
        let got = flat.query_many(&pairs, threads);
        prop_assert_eq!(&got, &expect, "query_many at {threads} threads");
    }

    // Pivot-range shards min-merge back to the truth: every shard
    // carries every record.
    for k in [2usize, 3] {
        let mut merged = vec![INF_DIST; pairs.len()];
        for (shard, _) in shard_image(&image, k).expect("shard") {
            let shard = FlatIndex::from_hopidx_bytes(&shard).expect("load shard");
            min_merge(&mut merged, &shard.query_many(&pairs, 1));
        }
        prop_assert_eq!(&merged, &expect, "{k}-shard min-merge");
    }

    // An overlay edge from a derived vertex (the last vertex when there
    // is none) to a vertex halfway round the id space.
    let leaf = (0..n).find(|&v| index.source_labels(v).record().is_some()).unwrap_or(n - 1);
    let edge = (leaf, (leaf + n / 2) % n, 2);
    if edge.0 != edge.1 {
        let live =
            LiveIndex::new(Arc::new(flat.clone()), 1).rebuild_overlay(&[edge]).expect("overlay");
        let truth = all_pairs(&with_edge(&relabeled, edge));
        for &(s, t) in &pairs {
            let got = live.query(s, t).expect("live query");
            prop_assert_eq!(got, truth[s as usize][t as usize], "live {s}->{t} after {edge:?}");
        }
    }

    // And the flat index reloaded from the serialized on-disk image
    // must be the same structure queries are already served from.
    let path = disk.persist();
    let reloaded = FlatIndex::load(&path).expect("flat load");
    std::fs::remove_file(path).ok();
    prop_assert_eq!(reloaded, flat);
    (index, stats.derived_vertices as usize)
}

fn graph(directed: bool, n: usize, edges: &[(VertexId, VertexId, u32)]) -> Graph {
    let b = if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    let mut b = b.weighted();
    for &(u, v, w) in edges {
        b.add_weighted_edge(u, v, w);
    }
    b.build()
}

#[test]
fn leaf_corpus_agrees_on_every_surface() {
    let corpus = [
        ("star", graph(false, 6, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)]), 5),
        ("path of 3", graph(false, 3, &[(0, 1, 1), (1, 2, 1)]), 2),
        ("two-vertex component", graph(false, 5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 5)]), 1),
        ("a lone pair", graph(false, 2, &[(0, 1, 7)]), 1),
        (
            // A triangle 0 → 1 → 2 → 0 (and back), then 3 → 0 only,
            // 1 → 4 only, and 5 ⇄ 2 with different weights.
            "directed leaves",
            graph(
                true,
                6,
                &[
                    (0, 1, 1),
                    (1, 2, 1),
                    (2, 0, 1),
                    (1, 0, 2),
                    (3, 0, 2),
                    (1, 4, 3),
                    (5, 2, 1),
                    (2, 5, 4),
                ],
            ),
            3,
        ),
    ];
    for (name, g, leaves) in corpus {
        assert_eq!(check_equivalence(&g).1, leaves, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_query_surfaces_agree_undirected(g in glp_strategy(false)) {
        check_equivalence(&g);
    }

    #[test]
    fn all_query_surfaces_agree_directed(g in glp_strategy(true)) {
        check_equivalence(&g);
    }

    #[test]
    fn all_query_surfaces_agree_at_density_2_5(seed in 1u64..5000) {
        // The shape of hopbench's dir-ext-read, where about half the
        // vertices are derived: directed, and weighted.
        let und = glp(&GlpParams::with_density(80, 2.5, seed));
        for g in [orient_scale_free(&und, 0.25, seed), with_random_weights(&und, 1, 300, seed)] {
            let (_, derived) = check_equivalence(&g);
            prop_assert!(derived > 0, "no leaf derived");
        }
    }

    #[test]
    fn all_query_surfaces_agree_weighted((g, seed) in (glp_strategy(false), 1u64..5000)) {
        // Weights of 200–400 put every hub distance but the self entry
        // past one byte, and a few past two hops past 255 × 2.
        let (index, _) = check_equivalence(&with_random_weights(&g, 200, 400, seed));
        let hub_max = index.sides()[0]
            .iter()
            .flat_map(|l| l.entries())
            .filter(|e| e.pivot < 64)
            .map(|e| e.dist)
            .max();
        prop_assert!(hub_max > Some(255), "the weighted case must leave the 1-byte width");
    }
}
