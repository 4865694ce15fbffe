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

mod labelkit;

use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::sfgraph::ranking::RankBy;
use hop_doubling::sfgraph::Graph;
use labelkit::{assert_canonical, random_graph, ranked};
use rand::{Rng, SeedableRng};

/// Compare, and return how many vertices were derived and how many of
/// them had two neighbours.
fn check(g: &Graph, case: usize) -> (usize, usize) {
    let (hop, stats) = build_prelabeled(g, &HopDbConfig::default());
    assert_canonical(g, &hop, &format!("case {case}"));
    let derived = stats.derived_vertices as usize;
    (derived, derived - stats.derived_leaves as usize)
}

/// Sum of [`check`]'s counts over many cases.
fn sum(counts: impl Iterator<Item = (usize, usize)>) -> (usize, usize) {
    counts.fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
}

#[test]
fn canonical_cover_matches_pll_undirected() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(501);
    let mut g = || ranked(&random_graph(&mut rng, 3..28, false, None), &RankBy::Degree);
    let (derived, two) = sum((0..20).map(|case| check(&g(), case)));
    assert!(derived > two && two > 0, "some case must derive each kind: {derived}, {two}");
}

#[test]
fn canonical_cover_matches_pll_directed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(502);
    let mut g = || ranked(&random_graph(&mut rng, 3..28, true, None), &RankBy::Degree);
    let (derived, two) = sum((0..20).map(|case| check(&g(), case)));
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
    let g = ranked(&raw, &RankBy::Degree);
    let (derived, two) = check(&g, 9004);
    assert!(derived > two && two > 0, "a GLP graph has both kinds: {derived}, {two}");
}

#[test]
fn canonical_cover_matches_pll_weighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(503);
    let (derived, two) = sum((0..20).map(|case| {
        let directed = rng.gen_bool(0.5);
        let g = random_graph(&mut rng, 3..28, directed, Some(1..7));
        check(&ranked(&g, &RankBy::Degree), case + 100)
    }));
    assert!(derived > two && two > 0, "some case must derive each kind: {derived}, {two}");
}
