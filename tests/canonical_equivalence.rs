//! Cross-validation between independent implementations: HopDb with
//! exhaustive post-pruning (§5.2) and PLL both produce the *canonical*
//! 2-hop cover for a given rank order (§2.1), so their label sets must
//! coincide entry for entry — two algorithmically unrelated code paths
//! arriving at the same canonical object is strong evidence both are
//! right.
//!
//! HopDb labels the graph's core and stores each peeled leaf as a
//! record, so the comparison is PLL on the core, slot for slot, with a
//! leaf's slot on each side being the record of its edge on that side.

use hop_doubling::baselines::pll;
use hop_doubling::hopdb::{build_prelabeled, postprune, HopDbConfig};
use hop_doubling::hoplabels::{LabelIndex, Record, VertexLabels};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::reduce::peel_leaves;
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId};
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

fn check(g: &Graph, case: usize) -> usize {
    let (mut hop, _) = build_prelabeled(g, &HopDbConfig::default());
    postprune::post_prune(&mut hop);
    // Every record fits an image on graphs this small.
    let peeled = peel_leaves(g, |_| true);
    let mut expect = pll::build_prelabeled(&peeled.core);
    for leaf in &peeled.leaves {
        let (v, p) = (leaf.vertex, leaf.parent);
        let slot = |from: VertexId, to: VertexId| {
            g.edge_weight(from, to).map_or_else(VertexLabels::new, |offset| {
                VertexLabels::from_record(Record { parent: p, offset })
            })
        };
        match &mut expect {
            LabelIndex::Directed(d) => {
                d.out_labels[v as usize] = slot(v, p);
                d.in_labels[v as usize] = slot(p, v);
            }
            LabelIndex::Undirected(u) => u.labels[v as usize] = slot(v, p),
        }
    }
    assert_eq!(
        hop, expect,
        "post-pruned HopDb and PLL on the core, plus the leaves' records, disagree (case {case})"
    );
    peeled.leaves.len()
}

#[test]
fn canonical_cover_matches_pll_undirected() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(501);
    let leaves: usize =
        (0..20).map(|case| check(&ranked_random(&mut rng, false, false), case)).sum();
    assert!(leaves > 0, "some case must derive a vertex");
}

#[test]
fn canonical_cover_matches_pll_directed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(502);
    let leaves: usize =
        (0..20).map(|case| check(&ranked_random(&mut rng, true, false), case)).sum();
    assert!(leaves > 0, "some case must derive a vertex");
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
    assert!(check(&g, 9004) > 0, "a GLP graph has leaves");
}

#[test]
fn canonical_cover_matches_pll_weighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(503);
    let mut leaves = 0;
    for case in 0..20 {
        let directed = rng.gen_bool(0.5);
        leaves += check(&ranked_random(&mut rng, directed, true), case + 100);
    }
    assert!(leaves > 0, "some case must derive a vertex");
}
