//! Property: every query surface answers identically.
//!
//! On random GLP scale-free graphs (directed, undirected, and weighted
//! so that hub distances need more than one byte) and on a corpus of
//! graphs built around the vertices the builders derive from their one
//! or two neighbours instead of labelling — leaves, chains, cycles,
//! directed sinks, sources and two-way pairs — the frozen
//! [`FlatIndex`], the nested [`LabelIndex`], the on-disk [`DiskIndex`]
//! with and without its label cache, the 2- and 3-shard min-merge, and a
//! [`LiveIndex`] whose overlay edges leave one derived vertex and enter
//! another — and, on unweighted undirected graphs, the §6
//! [`BitParallelIndex`] — must all equal the BFS/Dijkstra ground truth on
//! every pair: every reader of the one record resolver meets the oracle;
//! `FlatIndex::query_many` must return the same answers in input order
//! at every thread count, and the flat index must be the image's bytes
//! and nothing else.

mod labelkit;

use std::sync::Arc;

use hop_doubling::extmem::device::TempStore;
use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, rank, BuildStats, HopDbConfig};
use hop_doubling::hoplabels::disk::{CachedDiskIndex, DiskIndex};
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::hoplabels::{LabelIndex, LiveIndex, QueryBackend};
use hop_doubling::sfgraph::ranking::{rank_vertices, RankBy};
use hop_doubling::sfgraph::{Dist, Graph, VertexId};
use labelkit::{assert_readers_on, image, merged_shards, truth, Pair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u32 = 12;

/// A small random GLP graph of 30..90 vertices at density 2.0..4.4,
/// optionally oriented (directed).
fn random_glp(rng: &mut StdRng, directed: bool) -> Graph {
    let (n, seed, density_tenths) =
        (rng.gen_range(30usize..90), rng.gen_range(1u64..5000), rng.gen_range(20u64..45));
    let und = glp(&GlpParams::with_density(n, density_tenths as f64 / 10.0, seed));
    if directed {
        orient_scale_free(&und, 0.25, seed)
    } else {
        und
    }
}

/// Check every surface against BFS truth on all pairs of `g`; returns
/// the nested index it built and the build's statistics. `at` names the
/// case in a failure.
fn check_equivalence(g: &Graph, at: &str) -> (LabelIndex, BuildStats) {
    check_among(g, &g.vertices().collect::<Vec<_>>(), at)
}

/// [`check_equivalence`] on the pairs of `among` (ids of `g`) only: the
/// kit's in-memory readers, then the file-backed and concurrent ones.
fn check_among(g: &Graph, among: &[VertexId], at: &str) -> (LabelIndex, BuildStats) {
    let (ranking, relabeled) = rank(g, &HopDbConfig::default());
    let among: Vec<VertexId> = among.iter().map(|&v| ranking.rank_of(v)).collect();
    let pairs: Vec<Pair> = among.iter().flat_map(|&s| among.iter().map(move |&t| (s, t))).collect();
    let (index, stats) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let expect = assert_readers_on(&relabeled, &index, &pairs, at);
    let flat = FlatIndex::from_index(&index);
    let store = TempStore::new().expect("temp store");
    let mut disk = DiskIndex::create(&index, &store, "flat-eq").expect("disk index");
    // A cache too small for the labels, so it evicts while it answers.
    let cached = CachedDiskIndex::new(
        DiskIndex::create(&index, &store, "flat-eq-cached").expect("disk index"),
        4,
    );

    // A derived vertex has an arc, so a record, on at least one side.
    let n = g.num_vertices() as VertexId;
    let (out_record, in_record) = (
        |v| index.source_labels(v).record().is_some(),
        |v| index.target_labels(v).record().is_some(),
    );
    let derived = (0..n).filter(|&v| out_record(v) || in_record(v)).count();
    assert_eq!(derived, stats.derived_vertices as usize, "{at}");
    for (&(s, t), &want) in pairs.iter().zip(&expect) {
        assert_eq!(disk.query(s, t).expect("disk query"), want, "{at}: disk {s}->{t}");
        assert_eq!(cached.query(s, t).expect("cached query"), want, "{at}: cached {s}->{t}");
    }

    // The batched path must agree pair-for-pair, in input order, at
    // every thread count.
    for threads in [1usize, 2, 4, 8] {
        let got = flat.query_many(&pairs, threads);
        assert_eq!(&got, &expect, "{at}: query_many at {threads} threads");
    }

    // Three pivot-range shards min-merge back to the truth too.
    assert_eq!(merged_shards(&image(&index), 3, &pairs), expect, "{at}: 3-shard min-merge");

    // Overlay edges from a vertex whose source side is a record and to
    // one whose target side is (the last vertex of `among` when there
    // is none), each to or from a vertex a way round `among`.
    let nth = |i: usize| among[i % among.len()];
    let find = |record: &dyn Fn(VertexId) -> bool| {
        among.iter().position(|&v| record(v)).unwrap_or(among.len() - 1)
    };
    let (from, to) = (find(&out_record), find(&in_record));
    let edges: Vec<_> =
        [(nth(from), nth(from + among.len() / 2), 2), (nth(to + among.len() / 3), nth(to), 3)]
            .into_iter()
            .filter(|&(u, v, _)| u != v)
            .collect();
    let live = LiveIndex::new(Arc::new(flat.clone()), 1).rebuild_overlay(&edges).expect("overlay");
    let arcs = relabeled.edge_list().into_iter().chain(edges.iter().copied());
    let want = truth(&labelkit::graph(g.is_directed(), g.num_vertices(), true, arcs), &pairs);
    let got: Vec<Dist> =
        pairs.iter().map(|&(s, t)| live.query(s, t).expect("live query")).collect();
    assert_eq!(got, want, "{at}: live after {edges:?}");

    // And the flat index reloaded from the serialized on-disk image
    // must be the same structure queries are already served from.
    let path = disk.persist();
    let reloaded = FlatIndex::load(&path).expect("flat load");
    std::fs::remove_file(path).ok();
    assert_eq!(reloaded, flat, "{at}");
    (index, stats)
}

fn graph(directed: bool, n: usize, edges: &[(VertexId, VertexId, u32)]) -> Graph {
    labelkit::graph(directed, n, true, edges.iter().copied())
}

/// `(name, graph, derived vertices, of which with two neighbours)`.
type Case = (&'static str, Graph, u64, u64);

fn assert_corpus(corpus: Vec<Case>) {
    for (name, g, derived, two) in corpus {
        let (_, stats) = check_equivalence(&g, name);
        let got = (stats.derived_vertices, stats.derived_vertices - stats.derived_leaves);
        assert_eq!(got, (derived, two), "{name}");
    }
}

#[test]
fn leaf_corpus_agrees_on_every_surface() {
    assert_corpus(vec![
        ("star", graph(false, 6, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)]), 5, 0),
        ("path of 3", graph(false, 3, &[(0, 1, 1), (1, 2, 1)]), 2, 0),
        // The triangle's highest id goes too, on a shortcut no shorter
        // than the arc it would replace.
        (
            "two-vertex component",
            graph(false, 5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 5)]),
            2,
            1,
        ),
        ("a lone pair", graph(false, 2, &[(0, 1, 7)]), 1, 0),
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
            0,
        ),
    ]);
}

#[test]
fn chain_corpus_agrees_on_every_surface() {
    // A directed core in which every vertex has three neighbours: the
    // cycle 0 → 1 → 2 → 3 → 0 and the chords 0 → 2, 1 → 3, weight 2.
    let core = [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2), (0, 2, 2), (1, 3, 2)];
    let hung = [
        // 1 → 4 → 0 only: a shortcut 1 → 0 of 2, shorter than 1 → 3 → 0.
        (1, 4, 1),
        (4, 0, 1),
        // A sink: 0 → 5 and 2 → 5, nothing out.
        (0, 5, 1),
        (2, 5, 2),
        // A source: 6 → 1 and 6 → 3, nothing in.
        (6, 1, 1),
        (6, 3, 3),
        // 7 ⇄ 2 and 7 ⇄ 3, each way its own weight.
        (2, 7, 1),
        (7, 2, 3),
        (3, 7, 2),
        (7, 3, 1),
    ];
    let directed: Vec<_> = core.iter().chain(&hung).copied().collect();
    // A K4 on 0–3, and 4 and 5 each on 0 and 1 at their own weights.
    let k4 = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)];
    let shared: Vec<_> =
        k4.iter().chain(&[(4, 0, 1), (4, 1, 3), (5, 0, 2), (5, 1, 1)]).copied().collect();
    assert_corpus(vec![
        // Ends first, which blocks their neighbours: 0, 2 and 4 go.
        ("path of 5", graph(false, 5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]), 3, 1),
        // 3 then 1, both on 0 and 2.
        ("C4", graph(false, 4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]), 2, 2),
        ("C5", graph(false, 5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]), 2, 2),
        ("two on one pair of parents", graph(false, 6, &shared), 2, 2),
        // 2 goes; its shortcut 0–1 of 4 loses to the arc of 1.
        (
            "a shortcut longer than the arc",
            graph(false, 3, &[(0, 1, 1), (1, 2, 2), (2, 0, 2)]),
            1,
            1,
        ),
        ("directed chains", graph(true, 8, &directed), 4, 4),
    ]);
}

#[test]
fn a_two_parent_record_needing_8_bytes_stays_in_the_core() {
    // 3 277 disjoint K5s rank first (degree 4, ties by id), so the K4
    // after them has its two degree-4 vertices a = 16 385, b = 16 386
    // past 16 384, where a parent id takes three varint bytes: v, on a
    // and b, would need an 8-byte record and keeps its label. w, on two
    // vertices of the first K5 (degree 5, so ranked first), goes.
    let k5s = 3_277;
    let (a, v, w) = (5 * k5s, 5 * k5s + 4, 5 * k5s + 5);
    let mut edges = Vec::new();
    for base in (0..k5s).map(|i| 5 * i).chain([a]) {
        let size = if base == a { 4 } else { 5 };
        for i in 0..size {
            edges.extend((i + 1..size).map(|j| (base + i, base + j, 1)));
        }
    }
    edges.extend([(v, a, 1), (v, a + 1, 1), (w, 0, 1), (w, 1, 1)]);
    let g = graph(false, w as usize + 1, &edges);
    let among: Vec<VertexId> = (0..10).chain(a..=w).collect();
    let (index, stats) = check_among(&g, &among, "an 8-byte record");
    assert_eq!((stats.derived_vertices, stats.derived_leaves), (1, 0));
    let ranking = rank_vertices(&g, &RankBy::paper_default(&g));
    let (a, v, w) = (ranking.rank_of(a), ranking.rank_of(v), ranking.rank_of(w));
    assert_eq!(a, 16_385, "a is ranked where its id needs three bytes");
    assert!(index.source_labels(v).record().is_none(), "v keeps its label");
    assert_eq!(index.source_labels(w).record().expect("w is derived").pairs(), [(0, 1), (1, 1)]);
}

#[test]
fn all_query_surfaces_agree_undirected() {
    const SEED: u64 = 0xf1a1;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        check_equivalence(&random_glp(&mut rng, false), &format!("seed {SEED:#x} case {case}"));
    }
}

#[test]
fn all_query_surfaces_agree_directed() {
    const SEED: u64 = 0xf1a2;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        check_equivalence(&random_glp(&mut rng, true), &format!("seed {SEED:#x} case {case}"));
    }
}

#[test]
fn all_query_surfaces_agree_at_density_2_5() {
    // The shape of hopbench's dir-ext-read, where about half the
    // vertices are derived: directed, weighted, and as it is.
    const SEED: u64 = 0xf1a3;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let seed = rng.gen_range(1u64..5000);
        let und = glp(&GlpParams::with_density(80, 2.5, seed));
        let (directed, weighted) =
            (orient_scale_free(&und, 0.25, seed), with_random_weights(&und, 1, 300, seed));
        for g in [directed, weighted, und] {
            let at = format!("seed {SEED:#x} case {case}");
            let (_, stats) = check_equivalence(&g, &at);
            assert!(stats.derived_vertices > 0, "{at}: nothing derived");
        }
    }
}

#[test]
fn all_query_surfaces_agree_at_density_4() {
    // The shape of hopbench's und-mem-read and und-mem-writes: no leaf
    // to speak of, and many vertices with two neighbours.
    const SEED: u64 = 0xf1a4;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let seed = rng.gen_range(1u64..5000);
        let und = glp(&GlpParams::with_density(80, 4.0, seed));
        for g in [orient_scale_free(&und, 0.25, seed), und] {
            let at = format!("seed {SEED:#x} case {case}");
            let (_, stats) = check_equivalence(&g, &at);
            assert!(stats.derived_vertices > stats.derived_leaves, "{at}: no chain derived");
        }
    }
}

#[test]
fn all_query_surfaces_agree_weighted() {
    // Weights of 200–400 put every hub distance but the self entry past
    // one byte, and a few past two hops past 255 × 2.
    const SEED: u64 = 0xf1a5;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let (g, seed) = (random_glp(&mut rng, false), rng.gen_range(1u64..5000));
        let at = format!("seed {SEED:#x} case {case}");
        let (index, _) = check_equivalence(&with_random_weights(&g, 200, 400, seed), &at);
        let hub_max = index.sides()[0]
            .iter()
            .flat_map(|l| l.entries())
            .filter(|e| e.pivot < 64)
            .map(|e| e.dist)
            .max();
        assert!(hub_max > Some(255), "{at}: the weighted case must leave the 1-byte width");
    }
}
