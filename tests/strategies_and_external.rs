//! Strategy-equivalence tests and the iteration bounds:
//!
//! * all strategies answer identically, and write one image: every
//!   pruned build ends in the canonical filter (§5.2's exhaustive
//!   pruning), so the labels do not depend on the strategy;
//! * iteration counts respect Theorems 4 and 6.
//!
//! That the external §4 build writes the in-memory build's image is
//! `external_parallel_determinism`'s and `engine_golden`'s to check, and
//! that a disk-serialized index answers exactly is `flat_equivalence`'s.

mod labelkit;

use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig, Strategy};
use hop_doubling::sfgraph::analysis::hop_diameter;
use hop_doubling::sfgraph::ranking::RankBy;
use hop_doubling::sfgraph::VertexId;
use labelkit::{image, random_graph, ranked};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn strategies() -> [Strategy; 5] {
    let hybrid = |switch_at| Strategy::Hybrid { switch_at };
    [Strategy::Doubling, Strategy::Stepping, hybrid(3), hybrid(4), hybrid(10)]
}

#[test]
fn strategies_answer_identically() {
    // Every strategy answers every pair alike on 10 graphs from seed 42,
    // directed at random.
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..10 {
        let directed = rng.gen_bool(0.5);
        let g = ranked(&random_graph(&mut rng, 4..30, directed, None), &RankBy::Degree);
        let indexes = strategies().map(|s| build_prelabeled(&g, &HopDbConfig::with_strategy(s)).0);
        let n = g.num_vertices() as VertexId;
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (s, t))) {
            let d0 = indexes[0].query(s, t);
            for idx in &indexes[1..] {
                assert_eq!(idx.query(s, t), d0, "case {case}: {s}->{t}");
            }
        }
    }
}

#[test]
fn post_pruned_sizes_coincide_across_strategies() {
    // §5.2: Hop-Doubling with exhaustive pruning reaches Hop-Stepping's
    // label size. Every default build is exhaustively pruned, so the
    // strategies write one canonical image, byte for byte, on 8 graphs
    // from seed 77, directed every other one.
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..8 {
        let g = ranked(&random_graph(&mut rng, 4..30, case % 2 == 1, None), &RankBy::Degree);
        let build = |s| image(&build_prelabeled(&g, &HopDbConfig::with_strategy(s)).0);
        let images = strategies().map(build);
        assert!(images.windows(2).all(|w| w[0] == w[1]), "case {case}: the images differ");
    }
}

#[test]
fn iteration_bounds_hold_on_scale_free_graphs() {
    // Theorem 6: stepping ≤ D_H (+1 to detect the fixpoint);
    // Theorem 4: doubling ≤ 2⌈log D_H⌉ (+1).
    let g = ranked(&glp(&GlpParams::with_vertices(800, 21)), &RankBy::Degree);
    let dh = hop_diameter(&g, 8, 1000).max(2);

    let (_, step) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
    assert!(
        step.num_iterations() <= dh + 1,
        "stepping {} iterations > D_H {} + 1",
        step.num_iterations(),
        dh
    );

    let (_, dbl) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
    let bound = 2 * (dh as f64).log2().ceil() as u32 + 1;
    assert!(
        dbl.num_iterations() <= bound,
        "doubling {} iterations > bound {}",
        dbl.num_iterations(),
        bound
    );
}

#[test]
fn hybrid_reduces_iterations_on_long_diameter_graphs() {
    // Table 8's headline: on large-diameter graphs, hybrid needs far
    // fewer iterations than pure stepping.
    let g = ranked(&hop_doubling::graphgen::grid(6, 40), &RankBy::Degree); // diameter 44
    let (_, step) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
    let (_, hybrid) =
        build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 10 }));
    assert!(
        hybrid.num_iterations() < step.num_iterations(),
        "hybrid {} !< stepping {}",
        hybrid.num_iterations(),
        step.num_iterations()
    );
}
