//! Invariants over randomly generated graphs, 64 seeded cases each:
//!
//! * HopDb queries equal BFS/Dijkstra ground truth (exactness);
//! * undirected distances are symmetric;
//! * the triangle inequality holds on index answers;
//! * label pivots always outrank their owners (the trough/rank
//!   invariant every engine relies on);
//! * pruning never loses exactness and never enlarges the index.

mod labelkit;

use hop_doubling::hopdb::engine::{build_index, build_unpruned};
use hop_doubling::hopdb::{build, build_prelabeled, rank, HopDb, HopDbConfig, Strategy};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Graph, VertexId, INF_DIST};
use labelkit::{pairs_from, random_graph};
use rand::SeedableRng;

/// Runs `check` on 64 graphs of 2..24 vertices drawn from `seed`, each
/// weighted from 1..6 when `weighted`, naming the seed and case it fails on.
fn for_each_graph(seed: u64, directed: bool, weighted: bool, check: impl Fn(&Graph, &str)) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for case in 0..64 {
        let g = random_graph(&mut rng, 2..24, directed, weighted.then_some(1..6));
        check(&g, &format!("seed {seed:#x} case {case}"));
    }
}

fn assert_exact(g: &Graph, db: &HopDb, at: &str) {
    let truth = all_pairs(g);
    for (s, t) in pairs_from(g, 1) {
        assert_eq!(db.query(s, t), truth[s as usize][t as usize], "{at}: {s}->{t}");
    }
}

#[test]
fn hopdb_matches_ground_truth_undirected() {
    for_each_graph(0x1a01, false, false, |g, at| {
        assert_exact(g, &build(g, &HopDbConfig::default()), at)
    });
}

#[test]
fn hopdb_matches_ground_truth_directed_weighted() {
    for_each_graph(0x1a02, true, true, |g, at| {
        assert_exact(g, &build(g, &HopDbConfig::default()), at)
    });
}

#[test]
fn undirected_queries_are_symmetric() {
    for_each_graph(0x1a03, false, true, |g, at| {
        let db = build(g, &HopDbConfig::default());
        for (s, t) in pairs_from(g, 1) {
            assert_eq!(db.query(s, t), db.query(t, s), "{at}: {s}<->{t}");
        }
    });
}

#[test]
fn triangle_inequality_on_answers() {
    for_each_graph(0x1a04, true, false, |g, at| {
        let db = build(g, &HopDbConfig::default());
        for (s, t) in pairs_from(g, 1) {
            for m in 0..g.num_vertices() as VertexId {
                let (a, b, c) = (db.query(s, m), db.query(m, t), db.query(s, t));
                if a != INF_DIST && b != INF_DIST {
                    assert!(c <= a + b, "{at}: d({s},{t})={c} > {a}+{b} via {m}");
                }
            }
        }
    });
}

#[test]
fn pivots_always_outrank_owners() {
    for_each_graph(0x1a05, true, false, |g, at| {
        let h = relabel_by_rank(g, &rank_vertices(g, &RankBy::DegreeProduct));
        let (index, _) = build_prelabeled(&h, &HopDbConfig::default());
        for (side, labels) in ["Lout", "Lin"].iter().zip(index.sides()) {
            for (v, l) in labels.iter().enumerate() {
                for e in l.entries() {
                    assert!(
                        e.pivot as usize <= v,
                        "{at}: {side}({v}) pivot {} under-ranked",
                        e.pivot
                    );
                }
            }
        }
    });
}

#[test]
fn pruning_shrinks_or_keeps_index() {
    for_each_graph(0x1a06, false, false, |g, at| {
        let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
        let (ranking, ranked) = rank(g, &cfg);
        let (unpruned, _) = build_unpruned(&ranked, &cfg);
        let kernel = build_index(&ranked, &cfg).0;
        assert!(kernel.total_entries() <= unpruned.total_entries(), "{at}");
        // Both stay exact.
        assert_exact(g, &build(g, &cfg), at);
        let truth = all_pairs(g);
        for (s, t) in pairs_from(g, 1) {
            let got = unpruned.query(ranking.rank_of(s), ranking.rank_of(t));
            assert_eq!(got, truth[s as usize][t as usize], "{at}: unpruned {s}->{t}");
        }
    });
}

#[test]
fn self_distance_is_zero_everything_else_positive() {
    for_each_graph(0x1a07, true, true, |g, at| {
        let db = build(g, &HopDbConfig::default());
        for (s, t) in pairs_from(g, 1) {
            let d = db.query(s, t);
            assert!(if s == t { d == 0 } else { d > 0 }, "{at}: d({s},{t}) = {d}");
        }
    });
}
