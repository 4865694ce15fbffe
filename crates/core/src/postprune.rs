//! Canonical labels: §5.2's exhaustive pruning ("the label size is the
//! same as that of Hop-Stepping"), the last step of every pruned build.
//!
//! The per-iteration prune of §3.3 tests a candidate only against the
//! entries that exist *at that moment*, so an entry inserted early can
//! be made redundant by a higher-ranked pivot found later. This filter
//! removes every such straggler and leaves PLL's canonical labelling for
//! the rank order (Akiba et al.): `v ∈ L(u)` iff no vertex that outranks
//! `v` lies on a shortest `u`–`v` path. That set depends on the graph and
//! the order alone, so every strategy and both engines end in one index.
//!
//! The rule is order-free: an entry `(u, v, d)` with `v ≠ u` goes iff
//! some pivot `w < v` has `own(u)[w] + across(v)[w] ≤ d` (`across` is
//! the other side of a directed index, the same side of an undirected
//! one), judged against the labels as the engine left them, never
//! against what the filter removed. That is the answer of the
//! rank-ordered pass (pivots in increasing id, each entry judged against
//! the entries kept so far; the tests keep it as the reference) because
//! * **every entry is a real path length**, `d ≥ dist(u, v)`: a
//!   canonical entry has `d = dist(u, v) < dist(u, w) + dist(w, v)` for
//!   every `w < v`, so it finds no witness and stays;
//! * **every canonical entry is present**, at its distance: any other
//!   entry is witnessed by the highest-ranked vertex `w` on any shortest
//!   `u`–`v` path, which is not `v` (else the entry would be canonical,
//!   or `L(u)` would hold `v` twice) and whose entries `(u, w)` and
//!   `(w, v)` are canonical.
//!
//! Being order-free, the judging splits across owners: up to
//! `parallelism` workers each judge a contiguous range of owners per
//! side ([`split_by_weight`]), read-only, with one bit per entry for a
//! verdict; then each label is compacted in place. No copy of the
//! labels is made.

use hoplabels::index::{merge_join, side_table, LabelIndex, VertexLabels};
use hoplabels::parallel::{run_workers, split_by_weight};
use hoplabels::LabelEntry;
use sfgraph::{Dist, INF_DIST};

use crate::engine::effective_threads;

/// Drop every entry the canonical labelling lacks, on up to `threads`
/// workers (the index is the same for every count); returns how many
/// went.
pub fn post_prune(index: &mut LabelIndex, threads: usize) -> u64 {
    let (n, before) = (index.num_vertices(), index.total_entries());
    let threads = effective_threads(threads, before);
    let (sides, table) = (index.sides(), side_table(index.is_directed()));
    let across = |own: usize| &sides[table[own].across][..];
    // Per side, owner ranges of about equal work: an entry scans the
    // `across` label of its pivot.
    let cuts: Vec<Vec<usize>> = (0..sides.len())
        .map(|own| {
            if threads == 1 {
                return vec![0, n];
            }
            let scan = |e: &LabelEntry| across(own)[e.pivot as usize].len() as u32;
            let work = |l: &VertexLabels| l.entries().iter().map(scan).fold(0, u32::saturating_add);
            split_by_weight(&sides[own].iter().map(work).collect::<Vec<_>>(), threads)
        })
        .collect();
    let verdicts = run_workers(threads > 1, (0..threads).collect(), |w| {
        let mut mark = vec![FAR; n];
        let judged = (0..sides.len())
            .map(|own| judge(&sides[own][cuts[own][w]..cuts[own][w + 1]], across(own), &mut mark));
        judged.collect::<Vec<_>>()
    });
    for (own, labels) in index.sides_mut().iter_mut().enumerate() {
        for (w, verdicts) in verdicts.iter().enumerate() {
            let (mut at, dropped) = (0, &verdicts[own]);
            for label in &mut labels[cuts[own][w]..cuts[own][w + 1]] {
                label.retain(|_| {
                    at += 1;
                    dropped[(at - 1) / 64] >> ((at - 1) % 64) & 1 == 0
                });
            }
        }
    }
    (before - index.total_entries()) as u64
}

/// A byte of [`judge`]'s mark array: `own(u)`'s distance to a pivot,
/// or `FAR` for a pivot it lacks or holds at `FAR` or more — never a
/// witness for an entry shorter than `FAR`.
const FAR: u8 = u8::MAX;

/// Judge every entry of `owners` against the unfiltered `across` labels;
/// returns one bit per entry, owner by owner in pivot order, set where
/// the entry goes.
///
/// A witness `w` of `(v, d)` precedes it in `own` at a distance below
/// `d`, so an entry that no earlier one undercuts (the self entry, a
/// `d = 1` one) needs no test, and the scan of `across(v)` stops past
/// the pivot before `v`. `own` is marked in `mark` (all [`FAR`] in and
/// out), a byte a vertex so that it stays in cache; an entry of `FAR` or
/// more takes the merge join instead.
fn judge(owners: &[VertexLabels], across: &[VertexLabels], mark: &mut [u8]) -> Vec<u64> {
    let (mut dropped, mut at) = (Vec::new(), 0);
    for own in owners {
        let own = own.entries();
        own.iter().for_each(|e| mark[e.pivot as usize] = e.dist.min(Dist::from(FAR)) as u8);
        let mut nearest = INF_DIST;
        for (i, e) in own.iter().enumerate() {
            let witnesses = across[e.pivot as usize].entries();
            let covered = e.dist > nearest
                && if e.dist < Dist::from(FAR) {
                    let last = own[i - 1].pivot;
                    let mut scan = witnesses.iter().take_while(|w| w.pivot <= last);
                    scan.any(|w| Dist::from(mark[w.pivot as usize]) + w.dist <= e.dist)
                } else {
                    merge_join(&own[..i], witnesses, e.pivot, e.dist) <= e.dist
                };
            nearest = nearest.min(e.dist);
            if at % 64 == 0 {
                dropped.push(0);
            }
            dropped[at / 64] |= u64::from(covered) << (at % 64);
            at += 1;
        }
        own.iter().for_each(|e| mark[e.pivot as usize] = FAR);
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_prelabeled;
    use crate::config::{HopDbConfig, Strategy};
    use crate::engine::{build_index, build_unpruned};
    use graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
    use hoplabels::verify::{assert_exact, is_minimal};
    use rand::{Rng, SeedableRng};
    use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
    use sfgraph::{Graph, GraphBuilder, VertexId};

    /// The rank-ordered pass the filter replaced, kept as its reference:
    /// pivots in increasing id, each entry judged against the entries
    /// kept so far through an inverted per-pivot directory, by the one
    /// merge join with the pivot as the ceiling (witnesses outrank it)
    /// and the distance as the bound.
    fn rank_ordered(index: &mut LabelIndex) -> u64 {
        let n = index.num_vertices();
        let table = side_table(index.is_directed());
        let sides = index.sides_mut();
        let mut by_pivot: Vec<Vec<(VertexId, usize)>> = vec![Vec::new(); n];
        for (side, labels) in sides.iter().enumerate() {
            for (owner, l) in labels.iter().enumerate() {
                for e in l.entries().iter().filter(|e| e.pivot != owner as VertexId) {
                    by_pivot[e.pivot as usize].push((owner as VertexId, side));
                }
            }
        }
        let mut removed = 0;
        for pivot in 0..n as VertexId {
            for &(owner, own) in &by_pivot[pivot as usize] {
                let across = table[own].across;
                let Some(dist) = sides[own][owner as usize].get(pivot) else { continue };
                let covered = merge_join(
                    sides[own][owner as usize].entries(),
                    sides[across][pivot as usize].entries(),
                    pivot,
                    dist,
                );
                if covered <= dist {
                    sides[own][owner as usize].retain(|e| e.pivot != pivot);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// A random graph, ranked; weighted iff `weights` is not `1..2`.
    fn random_graph(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        directed: bool,
        weights: std::ops::Range<u32>,
    ) -> Graph {
        let mut b =
            if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
        if weights != (1..2) {
            b = b.weighted();
        }
        for _ in 0..rng.gen_range(n..4 * n) {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            b.add_weighted_edge(s as VertexId, t as VertexId, rng.gen_range(weights.clone()));
        }
        let g = b.build();
        relabel_by_rank(&g, &rank_vertices(&g, &RankBy::paper_default(&g)))
    }

    /// Unweighted, light (every distance below the filter's byte marks'
    /// [`FAR`]) and heavy (most at or past it) by case number.
    fn weights(case: usize) -> std::ops::Range<u32> {
        [1..2, 1..7, 60..200][case % 3].clone()
    }

    /// The engine's labels of `g` under every strategy, pruned and not:
    /// the filter at 1, 2 and 4 threads removes exactly the entries the
    /// rank-ordered pass removes, the result answers exactly, and a
    /// second filter removes nothing.
    fn assert_filter_is_the_reference(g: &Graph, what: &str) {
        let strategies =
            [Strategy::Stepping, Strategy::Doubling, Strategy::Hybrid { switch_at: 3 }];
        for strategy in strategies {
            let cfg = HopDbConfig::with_strategy(strategy);
            for (built, kind) in
                [(build_index(g, &cfg).0, "pruned"), (build_unpruned(g, &cfg).0, "unpruned")]
            {
                let mut reference = built.clone();
                let removed = rank_ordered(&mut reference);
                for threads in [1, 2, 4] {
                    let mut filtered = built.clone();
                    let got = post_prune(&mut filtered, threads);
                    let case = format!("{what}, {kind} {:?}, {threads} threads", cfg.strategy);
                    assert_eq!((got, &filtered), (removed, &reference), "{case}");
                    assert_eq!(post_prune(&mut filtered, threads), 0, "second pass, {case}");
                }
                assert_exact(g, &reference);
            }
        }
    }

    #[test]
    fn post_prune_preserves_exactness_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for case in 0..24 {
            let n = rng.gen_range(4..20);
            let g = random_graph(&mut rng, n, case % 2 == 1, weights(case));
            assert_filter_is_the_reference(&g, &format!("random case {case}"));
        }
    }

    /// GLP graphs large enough that 2 and 4 threads really split owners.
    #[test]
    fn filter_matches_the_rank_ordered_pass_on_glp_at_every_thread_count() {
        let g = glp(&GlpParams::with_density(400, 3.0, 5));
        let graphs = [
            ("undirected", g.clone()),
            ("directed", orient_scale_free(&g, 0.25, 5)),
            ("weighted", with_random_weights(&g, 1, 9, 5)),
            ("heavy", with_random_weights(&g, 100, 300, 5)),
        ];
        for (what, g) in graphs {
            let g = relabel_by_rank(&g, &rank_vertices(&g, &RankBy::paper_default(&g)));
            let entries = build_index(&g, &HopDbConfig::default()).0.total_entries();
            assert_eq!(effective_threads(4, entries), 4, "{what}: {entries} entries");
            assert_filter_is_the_reference(&g, what);
        }
    }

    #[test]
    fn doubling_post_pruned_matches_stepping_size() {
        // §5.2: Hop-Doubling plus exhaustive pruning reaches the label
        // size of Hop-Stepping; the filter makes them one index.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let n = rng.gen_range(4..16);
            let g = random_graph(&mut rng, n, false, 1..2);
            let (dbl, _) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
            let (step, _) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
            assert_exact(&g, &dbl);
            assert_eq!(dbl, step);
        }
    }

    #[test]
    fn removes_pruned_example_entry() {
        // On the Fig. 3 graph, unpruned doubling keeps (2 → 1, 2) in
        // Lout(2); Example 2 prunes it. The filter must remove it too.
        let g = graphgen::example_graph_fig3();
        let (mut index, _) = build_unpruned(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
        assert_eq!(index.source_labels(2).get(1), Some(2), "unpruned keeps (2→1,2)");
        let removed = post_prune(&mut index, 1);
        assert!(removed >= 1);
        assert_eq!(index.source_labels(2).get(1), None, "post-prune removes (2→1,2)");
        assert_exact(&g, &index);
    }

    #[test]
    fn idempotent() {
        let g = graphgen::example_graph_fig3();
        let (mut index, _) = build_unpruned(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
        post_prune(&mut index, 1);
        let again = post_prune(&mut index, 1);
        assert_eq!(again, 0, "second pass must find nothing");
    }

    /// A default build is a minimal cover: no single entry can go.
    #[test]
    fn default_builds_of_small_graphs_are_minimal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for case in 0..30 {
            let n = rng.gen_range(2..=10);
            let (directed, weights) = (case % 2 == 1, weights(case));
            let g = random_graph(&mut rng, n, directed, weights.clone());
            let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
            assert_exact(&g, &index);
            assert!(is_minimal(&g, &index), "case {case}: {n} vertices, {directed}, {weights:?}");
        }
    }
}
