//! Cross-crate correctness: every oracle must return the exact distance
//! on every pair of many randomized graphs (directed/undirected,
//! weighted/unweighted) — the executable form of Theorems 1, 3, 5.

mod labelkit;

use hop_doubling::baselines::{Bidij, DistanceOracle, HighwayCover, IsLabel, Pll};
use hop_doubling::hopdb::{build, HopDbConfig, Strategy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Graph, VertexId};
use labelkit::{pairs_from, random_graph};
use rand::{Rng, SeedableRng};

fn check_all(g: &Graph, case: usize) {
    let truth = all_pairs(g);
    let hopdb = |s| build(g, &HopDbConfig::with_strategy(s));
    let hopdb = [
        ("hybrid", build(g, &HopDbConfig::default())),
        ("stepping", hopdb(Strategy::Stepping)),
        ("doubling", hopdb(Strategy::Doubling)),
    ];
    let oracles: [Box<dyn DistanceOracle>; 4] = [
        Box::new(Pll::build(g)),
        Box::new(IsLabel::build(g, usize::MAX).expect("no budget")),
        Box::new(HighwayCover::build(g.clone(), 4)),
        Box::new(Bidij::new(g.clone())),
    ];
    for (s, t) in pairs_from(g, 1) {
        let want = truth[s as usize][t as usize];
        for (strategy, db) in &hopdb {
            assert_eq!(db.query(s, t), want, "hopdb {strategy} {s}->{t} case {case}");
        }
        for oracle in &oracles {
            assert_eq!(oracle.distance(s, t), want, "{} {s}->{t} case {case}", oracle.name());
        }
    }
}

#[test]
fn all_oracles_exact_undirected_unweighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
    for case in 0..12 {
        let g = random_graph(&mut rng, 3..35, false, None);
        check_all(&g, case);
    }
}

#[test]
fn all_oracles_exact_directed_unweighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1002);
    for case in 0..12 {
        let g = random_graph(&mut rng, 3..35, true, None);
        check_all(&g, case);
    }
}

#[test]
fn all_oracles_exact_undirected_weighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1003);
    for case in 0..12 {
        let g = random_graph(&mut rng, 3..35, false, Some(1..9));
        check_all(&g, case);
    }
}

#[test]
fn all_oracles_exact_directed_weighted() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1004);
    for case in 0..12 {
        let g = random_graph(&mut rng, 3..35, true, Some(1..9));
        check_all(&g, case);
    }
}

#[test]
fn oracles_exact_on_glp_scale_free() {
    // A realistic (small) scale-free workload, sampled pairs.
    let g = hop_doubling::graphgen::glp(&hop_doubling::graphgen::GlpParams::with_vertices(600, 5));
    let db = build(&g, &HopDbConfig::default());
    let pll = Pll::build(&g);
    let bidij = Bidij::new(g.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for _ in 0..2_000 {
        let s = rng.gen_range(0..g.num_vertices()) as VertexId;
        let t = rng.gen_range(0..g.num_vertices()) as VertexId;
        let want = bidij.distance(s, t);
        assert_eq!(db.query(s, t), want);
        assert_eq!(pll.distance(s, t), want);
    }
}

#[test]
fn oracles_exact_on_paper_examples() {
    for g in [
        hop_doubling::graphgen::road_graph_gr(),
        hop_doubling::graphgen::star_graph_gs(),
        hop_doubling::graphgen::example_graph_fig3(),
    ] {
        check_all(&g, usize::MAX);
    }
}
