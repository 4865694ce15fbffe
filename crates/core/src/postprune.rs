//! Exhaustive post-pruning (§5.2's closing remark: "by exhaustive
//! pruning, the label size is the same as that of Hop-Stepping").
//!
//! The per-iteration pruning of §3.3 only tests candidates against
//! entries that exist *at that moment*; an entry inserted early can be
//! made redundant by a higher-ranked pivot discovered later in the same
//! iteration or in a later one. This pass removes all such stragglers.
//!
//! Safety argument: process pivots in decreasing rank (increasing id).
//! An entry `(u → v, d)` with pivot `v` is removed iff some witness
//! pivot `w` with `r(w) > r(v)` satisfies
//! `dist(u, w) + dist(w, v) ≤ d` using only entries whose pivots were
//! already *kept*. Because witnesses outrank the entry they remove, the
//! "redundant via" relation is acyclic in rank, and by induction every
//! removed entry stays covered by kept ones — queries remain exact
//! (asserted by tests against ground truth).
//!
//! The test is the one merge join of every reader and builder,
//! `hoplabels::index::merge_join`, with the entry's pivot as the ceiling
//! (witnesses outrank it) and its distance as the bound (the first
//! witness settles it).

use hoplabels::index::{merge_join, LabelIndex};
use sfgraph::VertexId;

/// Remove every entry already covered by higher-ranked pivots; returns
/// the number of entries removed.
pub fn post_prune(index: &mut LabelIndex) -> u64 {
    let n = index.num_vertices();
    // The engines' side pairing: an entry of side σ is tested against
    // `own(owner) ⋈ across(pivot)`, where `across` is the other array of
    // a directed index and the same array of an undirected one.
    let mut sides = index.sides_mut();
    // Inverted directory: for each pivot, who carries it on which side.
    let mut by_pivot: Vec<Vec<(VertexId, u8)>> = vec![Vec::new(); n];
    for (side, labels) in sides.iter().enumerate() {
        for (owner, l) in labels.iter().enumerate() {
            for e in l.entries() {
                if e.pivot != owner as VertexId {
                    by_pivot[e.pivot as usize].push((owner as VertexId, side as u8));
                }
            }
        }
    }

    let mut removed = 0u64;
    for pivot in 0..n as VertexId {
        for &(owner, side) in &by_pivot[pivot as usize] {
            let own = side as usize;
            let across = sides.len() - 1 - own;
            let Some(dist) = sides[own][owner as usize].get(pivot) else { continue };
            let covered = merge_join(
                sides[own][owner as usize].entries(),
                sides[across][pivot as usize].entries(),
                pivot,
                dist,
            );
            if covered <= dist {
                sides[own][owner as usize].remove(pivot);
                removed += 1;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HopDbConfig, Strategy};
    use crate::engine::build_index;
    use hoplabels::verify::assert_exact;
    use sfgraph::{GraphBuilder, VertexId};

    #[test]
    fn post_prune_preserves_exactness_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(4..20);
            let directed = rng.gen_bool(0.5);
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            for _ in 0..rng.gen_range(n..4 * n) {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            let (mut index, _) = build_index(&g, &HopDbConfig::unpruned(Strategy::Doubling));
            post_prune(&mut index);
            assert_exact(&g, &index);
        }
    }

    #[test]
    fn doubling_post_pruned_matches_stepping_size() {
        // §5.2: Hop-Doubling plus exhaustive pruning reaches the same
        // label size as Hop-Stepping (also exhaustively pruned).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let n = rng.gen_range(4..16);
            let mut b = GraphBuilder::new_undirected(n);
            for _ in 0..rng.gen_range(n..3 * n) {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            let (mut dbl, _) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
            let (mut step, _) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
            post_prune(&mut dbl);
            post_prune(&mut step);
            assert_exact(&g, &dbl);
            assert_exact(&g, &step);
            assert_eq!(dbl.total_entries(), step.total_entries());
        }
    }

    #[test]
    fn removes_pruned_example_entry() {
        // On the Fig. 3 graph, unpruned doubling keeps (2 → 1, 2) in
        // Lout(2); Example 2 prunes it. Post-pruning must remove it too.
        let g = graphgen::example_graph_fig3();
        let (mut index, _) = build_index(&g, &HopDbConfig::unpruned(Strategy::Doubling));
        if let LabelIndex::Directed(d) = &index {
            assert_eq!(d.out_labels[2].get(1), Some(2), "unpruned keeps (2→1,2)");
        }
        let removed = post_prune(&mut index);
        assert!(removed >= 1);
        if let LabelIndex::Directed(d) = &index {
            assert_eq!(d.out_labels[2].get(1), None, "post-prune removes (2→1,2)");
        }
        assert_exact(&g, &index);
    }

    #[test]
    fn idempotent() {
        let g = graphgen::example_graph_fig3();
        let (mut index, _) = build_index(&g, &HopDbConfig::unpruned(Strategy::Doubling));
        post_prune(&mut index);
        let again = post_prune(&mut index);
        assert_eq!(again, 0, "second pass must find nothing");
    }
}
