//! Reference closure with the *original* six generation rules (Table 5)
//! before the minimization of §3.2.
//!
//! Lemma 3 proves Rules 3 and 6 redundant given Rules 1, 2, 4, 5, and
//! Lemma 4 tightens the rank guards of Rules 1 and 4. Collectively the
//! six rules say: a new entry covering path `u → v` composes with any
//! existing entry sharing an endpoint — *prepending* `x → u` when the
//! new entry is an out-entry (`r(v) > r(u)`; Rules 1, 2, 6 are the three
//! possible rank positions of `x`), and *appending* `v → y` when it is
//! an in-entry (`r(u) > r(v)`; Rules 3, 4, 5). This module implements
//! that closure directly, with no minimization and no pruning, as an
//! executable witness: tests assert its fixpoint equals the minimized
//! engine's unpruned fixpoint (Lemmas 3–4) on the paper's example and on
//! random graphs.
//!
//! Intended for small test graphs only — the closure is quadratic in the
//! number of covered pairs.

use hoplabels::index::{LabelIndex, VertexLabels};
use hoplabels::LabelEntry;
use sfgraph::hash::FxHashMap;
use sfgraph::{Direction, Dist, Graph, VertexId};

/// Run the unminimized six-rule closure on a rank-relabeled directed
/// graph; returns the resulting (unpruned) label index.
pub fn six_rule_closure(g: &Graph) -> LabelIndex {
    assert!(g.is_directed(), "the six-rule engine is defined for directed graphs");
    let n = g.num_vertices();
    // Covered trough paths: (from, to) -> best distance.
    let mut all: FxHashMap<(VertexId, VertexId), Dist> = FxHashMap::default();
    let mut prev: Vec<(VertexId, VertexId, Dist)> = Vec::new();
    for u in g.vertices() {
        for (v, w) in g.edges(u, Direction::Out) {
            all.insert((u, v), w);
            prev.push((u, v, w));
        }
    }

    while !prev.is_empty() {
        let mut cands: FxHashMap<(VertexId, VertexId), Dist> = FxHashMap::default();
        for &(u, v, d) in &prev {
            if v < u {
                // Out-entry: prepend any (x → u); Rules 1 / 2 / 6 cover
                // x above v, between, and below u respectively.
                for (&(x, t), &d1) in all.iter() {
                    if t == u && x != v {
                        let nd = d1.saturating_add(d);
                        offer(&mut cands, &all, x, v, nd);
                    }
                }
            } else {
                // In-entry: append any (v → y); Rules 3 / 4 / 5.
                for (&(s, y), &d2) in all.iter() {
                    if s == v && y != u {
                        let nd = d.saturating_add(d2);
                        offer(&mut cands, &all, u, y, nd);
                    }
                }
            }
        }
        prev.clear();
        for ((a, b), d) in cands {
            let slot = all.entry((a, b)).or_insert(Dist::MAX);
            if d < *slot {
                *slot = d;
                prev.push((a, b, d));
            }
        }
    }

    // Materialise: (a → b, d) lands in Lout(a) if r(b) > r(a), i.e.
    // b < a, else in Lin(b).
    let mut out: Vec<VertexLabels> =
        (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
    let mut inn: Vec<VertexLabels> =
        (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
    for ((a, b), d) in all {
        if b < a {
            out[a as usize].insert_min(LabelEntry::new(b, d));
        } else {
            inn[b as usize].insert_min(LabelEntry::new(a, d));
        }
    }
    LabelIndex::from_sides(vec![out, inn])
}

fn offer(
    cands: &mut FxHashMap<(VertexId, VertexId), Dist>,
    all: &FxHashMap<(VertexId, VertexId), Dist>,
    a: VertexId,
    b: VertexId,
    d: Dist,
) {
    debug_assert_ne!(a, b);
    if all.get(&(a, b)).is_some_and(|&cur| cur <= d) {
        return;
    }
    cands
        .entry((a, b))
        .and_modify(|cur| {
            if d < *cur {
                *cur = d;
            }
        })
        .or_insert(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HopDbConfig, Strategy};
    use crate::engine::build_unpruned;
    use hoplabels::verify::assert_exact;
    use sfgraph::GraphBuilder;

    /// Lemmas 3–4 on every labelled directed graph of up to 4 vertices,
    /// by arc mask over the `u ≠ v` pairs (the 4-cycle among them): the
    /// closure is both engines' unpruned fixpoint, and exact.
    #[test]
    fn six_rules_equal_four_rules_on_every_digraph_up_to_4_vertices() {
        for n in 1..=4u32 {
            let arcs: Vec<_> =
                (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).filter(|(u, v)| u != v).collect();
            for mask in 0u32..1 << arcs.len() {
                let mut b = GraphBuilder::new_directed(n as usize);
                let chosen = arcs.iter().enumerate().filter(|&(i, _)| mask >> i & 1 == 1);
                chosen.for_each(|(_, &(u, v))| b.add_edge(u, v));
                let g = b.build();
                let six = six_rule_closure(&g);
                for strategy in [Strategy::Stepping, Strategy::Doubling] {
                    let cfg = HopDbConfig::with_strategy(strategy.clone());
                    let (four, _) = build_unpruned(&g, &cfg);
                    assert_eq!(six, four, "n = {n}, arc mask {mask:#x}: {strategy:?}");
                }
                assert_exact(&g, &six);
            }
        }
    }

    #[test]
    fn lemma_3_4_six_rules_equal_four_rules_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for case in 0..25 {
            let n = rng.gen_range(3..12);
            let mut b = GraphBuilder::new_directed(n);
            for _ in 0..rng.gen_range(n..4 * n) {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                b.add_edge(u, v);
            }
            let g = b.build();
            let six = six_rule_closure(&g);
            let (four, _) = build_unpruned(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
            assert_eq!(six, four, "closures differ on case {case} (n={n})");
        }
    }

    #[test]
    fn lemma_3_4_holds_with_stepping_too() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(3..10);
            let mut b = GraphBuilder::new_directed(n);
            for _ in 0..rng.gen_range(n..3 * n) {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            let six = six_rule_closure(&g);
            let (step, _) = build_unpruned(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
            assert_eq!(six, step);
        }
    }
}
