//! Pruned Landmark Labeling (reference \[7\]; Akiba, Iwata, Yoshida,
//! SIGMOD 2013).
//!
//! Vertices are processed in decreasing rank; from each pivot `vk` a
//! BFS (Dijkstra when weighted) runs outward, adding `(vk, δ)` to the
//! label of every vertex reached at distance `δ` — *unless* the labels
//! built so far already answer `dist(vk, u) ≤ δ`, in which case the
//! search is pruned at `u` (the entry is skipped and `u`'s edges are
//! not relaxed). For directed graphs a forward search fills `Lin` and a
//! backward search fills `Lout`: each side's search walks its `step` of
//! `hoplabels::index::side_table`.
//!
//! The result is the canonical minimal 2-hop cover for the given order,
//! which makes PLL the reference point for HopDb's label sizes
//! (Table 6). The known limitation the paper exploits: construction
//! keeps the whole index *and* graph in memory and runs `|V|` searches,
//! so it cannot scale past memory.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hoplabels::index::{merge_join, side_table, LabelIndex, VertexLabels};
use hoplabels::LabelEntry;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::{Direction, Dist, Graph, VertexId};

use crate::oracle::DistanceOracle;

/// A built PLL index plus the ranking mapping original ids to rank ids.
pub struct Pll {
    index: LabelIndex,
    ranking: Ranking,
}

impl Pll {
    /// Build with the paper's default ranking (degree for undirected,
    /// in×out-degree product for directed).
    ///
    /// ```
    /// use baselines::{DistanceOracle, Pll};
    /// use sfgraph::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new_directed(3);
    /// b.add_edge(0, 1);
    /// b.add_edge(1, 2);
    /// let pll = Pll::build(&b.build());
    /// assert_eq!(pll.distance(0, 2), 2);
    /// assert_eq!(pll.distance(2, 0), u32::MAX); // unreachable
    /// ```
    pub fn build(g: &Graph) -> Pll {
        Pll::build_ranked(g, &RankBy::paper_default(g))
    }

    /// Build with an explicit ranking strategy.
    pub fn build_ranked(g: &Graph, rank_by: &RankBy) -> Pll {
        let ranking = rank_vertices(g, rank_by);
        let relabeled = relabel_by_rank(g, &ranking);
        let index = build_prelabeled(&relabeled);
        Pll { index, ranking }
    }

    /// The underlying label index (rank-id space).
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }

    /// The ranking used.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }
}

impl DistanceOracle for Pll {
    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.index.query(self.ranking.rank_of(s), self.ranking.rank_of(t))
    }

    fn name(&self) -> &'static str {
        "PLL"
    }
}

/// Build a PLL index on a rank-relabeled graph (id 0 = highest rank).
///
/// From each root `vk`, one pruned search per side of
/// [`side_table`], along the side's `step`: forward for `Lin`, backward
/// for `Lout`, either way for `L`. It adds `(vk, δ)` to that side's
/// label of every vertex it reaches, pruning with `vk`'s label on the
/// `across` side. A search from `vk` never writes `vk`'s own labels, so
/// the order of the sides does not change the labels.
pub fn build_prelabeled(g: &Graph) -> LabelIndex {
    let mut index = LabelIndex::new(g.num_vertices(), g.is_directed());
    for vk in g.vertices() {
        for (own, rule) in side_table(g.is_directed()).iter().enumerate() {
            let pivot_labels = index.sides()[rule.across][vk as usize].clone();
            let labels = &mut index.sides_mut()[own];
            pruned_search(g, vk, rule.step, &pivot_labels, |u, dist, pivot_labels| {
                prune_or_insert(labels, u, vk, dist, pivot_labels)
            });
        }
    }
    index
}

/// Returns `true` if the entry was inserted (search continues through
/// `u`), `false` if pruned.
fn prune_or_insert(
    labels: &mut [VertexLabels],
    u: VertexId,
    vk: VertexId,
    dist: Dist,
    pivot_labels: &VertexLabels,
) -> bool {
    if u == vk {
        // The root keeps its trivial entry and always expands.
        return true;
    }
    if u < vk {
        // r(u) > r(vk): u was processed earlier; by canonical-labeling
        // correctness the pair (vk, u) is already covered, so prune.
        // (The join test below would conclude the same; this is the
        // standard PLL fast path.)
        return false;
    }
    let own = &labels[u as usize];
    if merge_join(pivot_labels.entries(), own.entries(), VertexId::MAX, dist) <= dist {
        return false;
    }
    labels[u as usize].insert_min(LabelEntry::new(vk, dist));
    true
}

/// BFS / Dijkstra from `vk` in direction `dir`; `visit(u, dist, pivot
/// labels)` decides whether to expand through `u`.
fn pruned_search(
    g: &Graph,
    vk: VertexId,
    dir: Direction,
    pivot_labels: &VertexLabels,
    mut visit: impl FnMut(VertexId, Dist, &VertexLabels) -> bool,
) {
    let n = g.num_vertices();
    if g.is_weighted() {
        let mut dist = vec![Dist::MAX; n];
        let mut settled = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
        dist[vk as usize] = 0;
        heap.push(Reverse((0, vk)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if settled[u as usize] || d > dist[u as usize] {
                continue;
            }
            settled[u as usize] = true;
            if !visit(u, d, pivot_labels) {
                continue;
            }
            for (x, w) in g.edges(u, dir) {
                let nd = d.saturating_add(w);
                if nd < dist[x as usize] {
                    dist[x as usize] = nd;
                    heap.push(Reverse((nd, x)));
                }
            }
        }
    } else {
        let mut seen = vec![false; n];
        let mut queue: VecDeque<(VertexId, Dist)> = VecDeque::new();
        seen[vk as usize] = true;
        queue.push_back((vk, 0));
        while let Some((u, d)) = queue.pop_front() {
            if !visit(u, d, pivot_labels) {
                continue;
            }
            for &x in g.neighbors(u, dir) {
                if !seen[x as usize] {
                    seen[x as usize] = true;
                    queue.push_back((x, d + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplabels::verify::{assert_exact, is_minimal};
    use sfgraph::traversal::all_pairs;
    use sfgraph::GraphBuilder;

    #[test]
    fn exact_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..15 {
            let n = rng.gen_range(3..30);
            let directed = rng.gen_bool(0.5);
            let weighted = rng.gen_bool(0.5);
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            if weighted {
                b = b.weighted();
            }
            for _ in 0..rng.gen_range(n..4 * n) {
                b.add_weighted_edge(
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(0..n) as VertexId,
                    if weighted { rng.gen_range(1..8) } else { 1 },
                );
            }
            let g = b.build();
            let truth = all_pairs(&g);
            let pll = Pll::build(&g);
            for s in 0..n as VertexId {
                for t in 0..n as VertexId {
                    assert_eq!(
                        pll.distance(s, t),
                        truth[s as usize][t as usize],
                        "{s}->{t} (directed={directed}, weighted={weighted})"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_labels_are_minimal() {
        // PLL produces the canonical cover, which is minimal (§2.1).
        let g = graphgen::road_graph_gr();
        let index = build_prelabeled(&g);
        assert_exact(&g, &index);
        assert!(is_minimal(&g, &index));
    }

    #[test]
    fn matches_table_3_on_road_graph() {
        // Degree ranking on G_R gives exactly Table 3's small cover.
        let g = graphgen::road_graph_gr();
        let index = build_prelabeled(&g);
        let sizes: Vec<usize> = index.sides()[0].iter().map(|l| l.len()).collect();
        assert_eq!(sizes, vec![1, 2, 3, 2, 2]);
    }

    #[test]
    fn pll_and_hopdb_agree_on_label_sizes_for_star() {
        let g = graphgen::star_graph_gs();
        let pll_index = build_prelabeled(&g);
        assert_exact(&g, &pll_index);
        assert_eq!(pll_index.total_entries(), 11); // 6 trivial + 5 leaf entries
    }
}
