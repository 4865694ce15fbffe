//! Cross-validation between independent implementations: a default
//! HopDb build, which ends in the canonical filter (§5.2's exhaustive
//! pruning, `hopdb::postprune`), and PLL both produce the *canonical*
//! 2-hop cover for a given rank order (§2.1), so their label sets must
//! coincide entry for entry — two algorithmically unrelated code paths
//! arriving at the same canonical object is strong evidence both are
//! right.
//!
//! HopDb labels the graph's core and stores each vertex it eliminated
//! as a record, so the comparison is PLL on the reduced core — weighted
//! once it has a shortcut through a vertex with two neighbours — slot
//! for slot, with a derived vertex's slot on each side being the record
//! of its arcs on that side, read off the graph.

use hop_doubling::baselines::pll;
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hoplabels::{Record, VertexLabels};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::reduce::eliminate;
use hop_doubling::sfgraph::{Direction, Graph, GraphBuilder, VertexId};
use rand::{Rng, SeedableRng};

fn ranked_random(rng: &mut rand::rngs::StdRng, directed: bool, weighted: bool) -> Graph {
    let n = rng.gen_range(3..28);
    let mut b =
        if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    if weighted {
        b = b.weighted();
    }
    for _ in 0..rng.gen_range(n..4 * n) {
        b.add_weighted_edge(
            rng.gen_range(0..n) as VertexId,
            rng.gen_range(0..n) as VertexId,
            if weighted { rng.gen_range(1..7) } else { 1 },
        );
    }
    let g = b.build();
    let ranking = rank_vertices(&g, &RankBy::Degree);
    relabel_by_rank(&g, &ranking)
}

/// Compare, and return how many vertices were derived and how many of
/// them had two neighbours.
fn check(g: &Graph, case: usize) -> (usize, usize) {
    let (hop, _) = build_prelabeled(g, &HopDbConfig::default());
    // Every record fits an image on graphs this small.
    let reduced = eliminate(g, |_| true);
    let mut expect = pll::build_prelabeled(&reduced.core);
    for &v in &reduced.derived {
        let slot = |dir| {
            let arcs: Vec<(VertexId, u32)> = g.edges(v, dir).collect();
            if arcs.is_empty() {
                VertexLabels::new()
            } else {
                VertexLabels::from_record(Record::new(&arcs))
            }
        };
        // `[Lout, Lin]` take the arcs out of and into `v`, `[L]` all.
        for (side, dir) in expect.sides_mut().iter_mut().zip([Direction::Out, Direction::In]) {
            side[v as usize] = slot(dir);
        }
    }
    assert_eq!(hop, expect, "HopDb and PLL on the core, plus the records, disagree (case {case})");
    (reduced.derived.len(), reduced.derived.len() - reduced.leaves)
}

/// Sum of [`check`]'s counts over many cases.
fn sum(counts: impl Iterator<Item = (usize, usize)>) -> (usize, usize) {
    counts.fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
}

#[test]
fn canonical_cover_matches_pll_undirected() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(501);
    let (derived, two) =
        sum((0..20).map(|case| check(&ranked_random(&mut rng, false, false), case)));
    assert!(derived > two && two > 0, "some case must derive each kind: {derived}, {two}");
}

#[test]
fn canonical_cover_matches_pll_directed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(502);
    let (derived, two) =
        sum((0..20).map(|case| check(&ranked_random(&mut rng, true, false), case)));
    assert!(derived > two && two > 0, "some case must derive each kind: {derived}, {two}");
}

#[test]
fn canonical_cover_matches_pll_on_paper_examples() {
    check(&hop_doubling::graphgen::road_graph_gr(), 9001);
    check(&hop_doubling::graphgen::star_graph_gs(), 9002);
    check(&hop_doubling::graphgen::example_graph_fig3(), 9003);
}

#[test]
fn canonical_cover_matches_pll_on_glp() {
    let raw =
        hop_doubling::graphgen::glp(&hop_doubling::graphgen::GlpParams::with_vertices(400, 33));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    let (derived, two) = check(&g, 9004);
    assert!(derived > two && two > 0, "a GLP graph has both kinds: {derived}, {two}");
}

#[test]
fn canonical_cover_matches_pll_weighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(503);
    let (derived, two) = sum((0..20).map(|case| {
        let directed = rng.gen_bool(0.5);
        check(&ranked_random(&mut rng, directed, true), case + 100)
    }));
    assert!(derived > two && two > 0, "some case must derive each kind: {derived}, {two}");
}
