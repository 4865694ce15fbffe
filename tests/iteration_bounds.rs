//! The paper's iteration bounds, executable. On a graph of hop diameter
//! `D_H` (the most edges on any shortest path), Hop-Stepping covers the
//! trough paths of `i` hops at iteration `i` (Lemma 5), so it is done
//! after `D_H` generation rounds; Hop-Doubling doubles the covered hop
//! length every two iterations (Theorem 2), so Theorem 4 bounds it by
//! `2⌈log₂ D_H⌉` rounds. In the paper's numbering, with initialization
//! iteration 1 and the empty round that finds the fixpoint counted,
//! stepping takes at most `D_H + 1` iterations and doubling, pruned or
//! not, at most `2⌈log₂ D_H⌉ + 2`.
//!
//! The graphs are the long-diameter cases where the two differ: paths of
//! 2 to 200 vertices and square grids of 2 × 2 to 16 × 16, ranked as a
//! build ranks them and built by the engine on the whole graph, with no
//! vertex eliminated. `D_H` is `sfgraph::analysis::hop_diameter` in its
//! exact mode.
//!
//! The unpruned *stepping* fixpoint is exempt. Unpruned, every pair
//! joined by a trough path (one whose inner vertices all rank below both
//! ends) keeps an entry, which stepping reaches only after as many rounds
//! as the shortest such path has hops. That path must avoid every
//! higher-ranked vertex, so it can be far longer than any shortest path:
//! on the 16 × 16 grid (`D_H` = 30) the unpruned stepping build runs 59
//! iterations. A pruned build drops those entries, since a higher-ranked
//! vertex on a shortest path covers their pairs, and doubling reaches
//! them in logarithmically many rounds anyway.

use hop_doubling::graphgen::{grid, path};
use hop_doubling::hopdb::engine::{build_index, build_unpruned};
use hop_doubling::hopdb::{rank, HopDbConfig, Strategy};
use hop_doubling::sfgraph::analysis::hop_diameter;
use hop_doubling::sfgraph::Graph;

/// `⌈log₂ d⌉`, 0 for `d ≤ 1`.
fn ceil_log2(d: u32) -> u32 {
    d.max(1).next_power_of_two().ilog2()
}

#[test]
fn iterations_stay_within_theorem_4_and_lemma_5() {
    let paths = [2, 3, 5, 9, 17, 33, 65, 129, 200].map(|n| (format!("path {n}"), path(n)));
    let grids = [2, 3, 4, 6, 8, 12, 16].map(|k| (format!("grid {k}×{k}"), grid(k, k)));
    for (name, g) in paths.into_iter().chain(grids) {
        let (_, g): (_, Graph) = rank(&g, &HopDbConfig::default());
        let d = hop_diameter(&g, 0, usize::MAX);
        let stepping = HopDbConfig::with_strategy(Strategy::Stepping);
        let doubling = HopDbConfig::with_strategy(Strategy::Doubling);
        let iterations = [
            ("stepping", build_index(&g, &stepping).1.num_iterations(), d + 1),
            ("doubling", build_index(&g, &doubling).1.num_iterations(), 2 * ceil_log2(d) + 2),
            (
                "unpruned doubling",
                build_unpruned(&g, &doubling).1.num_iterations(),
                2 * ceil_log2(d) + 2,
            ),
        ];
        for (build, took, bound) in iterations {
            assert!(
                took <= bound,
                "{name} (D_H = {d}): {build} took {took} iterations, bound {bound}"
            );
        }
    }
}
