//! Property-based invariants over randomly generated graphs.
//!
//! * HopDb queries equal BFS/Dijkstra ground truth (exactness);
//! * undirected distances are symmetric;
//! * the triangle inequality holds on index answers;
//! * label pivots always outrank their owners (the trough/rank
//!   invariant every engine relies on);
//! * pruning never loses exactness and never enlarges the index.

use hop_doubling::hopdb::engine::{build_index, build_unpruned};
use hop_doubling::hopdb::{build, build_prelabeled, rank, HopDbConfig, Strategy as HopStrategy};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId, INF_DIST};
use proptest::prelude::*;

/// Strategy: a random graph given by a vertex count and edge endpoints.
fn graph_strategy(directed: bool, weighted: bool) -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..6);
        proptest::collection::vec(edge, 1..(3 * n)).prop_map(move |edges| {
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            if weighted {
                b = b.weighted();
            }
            for (u, v, w) in edges {
                b.add_weighted_edge(u, v, if weighted { w } else { 1 });
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hopdb_matches_ground_truth_undirected(g in graph_strategy(false, false)) {
        let truth = all_pairs(&g);
        let db = build(&g, &HopDbConfig::default());
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                prop_assert_eq!(db.query(s, t), truth[s as usize][t as usize]);
            }
        }
    }

    #[test]
    fn hopdb_matches_ground_truth_directed_weighted(g in graph_strategy(true, true)) {
        let truth = all_pairs(&g);
        let db = build(&g, &HopDbConfig::default());
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                prop_assert_eq!(db.query(s, t), truth[s as usize][t as usize]);
            }
        }
    }

    #[test]
    fn undirected_queries_are_symmetric(g in graph_strategy(false, true)) {
        let db = build(&g, &HopDbConfig::default());
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                prop_assert_eq!(db.query(s, t), db.query(t, s));
            }
        }
    }

    #[test]
    fn triangle_inequality_on_answers(g in graph_strategy(true, false)) {
        let db = build(&g, &HopDbConfig::default());
        let n = g.num_vertices() as VertexId;
        for s in 0..n {
            for m in 0..n {
                for t in 0..n {
                    let (a, b, c) = (db.query(s, m), db.query(m, t), db.query(s, t));
                    if a != INF_DIST && b != INF_DIST {
                        prop_assert!(c <= a + b, "d({s},{t})={c} > {a}+{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn pivots_always_outrank_owners(g in graph_strategy(true, false)) {
        let ranking = rank_vertices(&g, &RankBy::DegreeProduct);
        let h = relabel_by_rank(&g, &ranking);
        let (index, _) = build_prelabeled(&h, &HopDbConfig::default());
        let [lout, lin] = index.sides() else { panic!("directed expected") };
        for (v, l) in lout.iter().enumerate() {
            for e in l.entries() {
                prop_assert!(e.pivot as usize <= v, "Lout({v}) pivot {} under-ranked", e.pivot);
            }
        }
        for (v, l) in lin.iter().enumerate() {
            for e in l.entries() {
                prop_assert!(e.pivot as usize <= v, "Lin({v}) pivot {} under-ranked", e.pivot);
            }
        }
    }

    #[test]
    fn pruning_shrinks_or_keeps_index(g in graph_strategy(false, false)) {
        let cfg = HopDbConfig::with_strategy(HopStrategy::Stepping);
        let pruned = build(&g, &cfg);
        let (ranking, ranked) = rank(&g, &cfg);
        let (unpruned, _) = build_unpruned(&ranked, &cfg);
        let kernel = build_index(&ranked, &cfg).0;
        prop_assert!(kernel.total_entries() <= unpruned.total_entries());
        // Both stay exact.
        let truth = all_pairs(&g);
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                let at = (ranking.rank_of(s), ranking.rank_of(t));
                prop_assert_eq!(pruned.query(s, t), truth[s as usize][t as usize]);
                prop_assert_eq!(unpruned.query(at.0, at.1), truth[s as usize][t as usize]);
            }
        }
    }

    #[test]
    fn self_distance_is_zero_everything_else_positive(g in graph_strategy(true, true)) {
        let db = build(&g, &HopDbConfig::default());
        for v in 0..g.num_vertices() as VertexId {
            prop_assert_eq!(db.query(v, v), 0);
        }
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                if s != t {
                    prop_assert!(db.query(s, t) > 0);
                }
            }
        }
    }
}
