//! Lemma 2 made executable: the unpruned engine achieves the labeling
//! objectives [O1]/[O2] — for every ordered pair `(u, v)` that admits a
//! *trough shortest path* (a shortest path whose intermediate vertices
//! all rank below `max(r(u), r(v))`), the corresponding label entry
//! exists with the exact distance.
//!
//! Trough distances are computed independently by BFS restricted to the
//! allowed intermediate set, so this checks the engines against the
//! paper's *definition*, not against another engine. The lemma is about
//! the kernel's labels, so the kernel runs on the whole graph: the
//! builders' elimination would replace some labels by records.

mod labelkit;

use hop_doubling::hopdb::engine::build_unpruned;
use hop_doubling::hopdb::{HopDbConfig, Strategy};
use hop_doubling::sfgraph::traversal::{all_pairs, sssp};
use hop_doubling::sfgraph::{Direction, Graph, VertexId, INF_DIST};
use labelkit::{graph, random_graph};
use rand::SeedableRng;

/// BFS from `s` to `t` where every intermediate vertex `x` must satisfy
/// `x > limit` (i.e. rank strictly below the higher-ranked endpoint): on
/// `g` without the arcs of any other vertex.
fn trough_distance(g: &Graph, s: VertexId, t: VertexId, limit: VertexId) -> u32 {
    let allowed = |x| x == s || x == t || x > limit;
    let arcs = g.edge_list().into_iter().filter(|&(u, v, _)| allowed(u) && allowed(v));
    sssp(&graph(g.is_directed(), g.num_vertices(), false, arcs), s, Direction::Out)[t as usize]
}

fn check_objectives(g: &Graph) {
    let ap = all_pairs(g);
    let (index, _) = build_unpruned(g, &HopDbConfig::with_strategy(Strategy::Doubling));
    let [lout, lin] = index.sides() else { panic!("directed expected") };
    let n = g.num_vertices() as VertexId;
    for a in 0..n {
        for b in 0..n {
            if a == b || ap[a as usize][b as usize] == INF_DIST {
                continue;
            }
            // Pair (a ⇝ b); the pivot is the higher-ranked endpoint.
            let limit = a.min(b);
            let td = trough_distance(g, a, b, limit);
            if td != ap[a as usize][b as usize] {
                continue; // no trough *shortest* path — objectives say nothing
            }
            if b < a {
                // r(b) > r(a): [O1] requires (b, dist) ∈ Lout(a).
                assert_eq!(lout[a as usize].get(b), Some(td), "[O1] violated for ({a} ⇝ {b})");
            } else {
                // r(a) > r(b): [O2] requires (a, dist) ∈ Lin(b).
                assert_eq!(lin[b as usize].get(a), Some(td), "[O2] violated for ({a} ⇝ {b})");
            }
        }
    }
}

#[test]
fn lemma_2_objectives_hold_on_random_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    for _ in 0..20 {
        check_objectives(&random_graph(&mut rng, 3..16, true, None));
    }
}

#[test]
fn lemma_2_objectives_hold_on_fig3_graph() {
    check_objectives(&hop_doubling::graphgen::example_graph_fig3());
}
