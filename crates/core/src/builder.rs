//! Top-level build API: rank, relabel, run the engine, wrap the result.

use std::time::Instant;

use hoplabels::flat::FlatIndex;
use hoplabels::image::record_fits;
use hoplabels::index::{side_table, LabelIndex, Record, VertexLabels};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::reduce::{eliminate, Reduced};
use sfgraph::{Direction, Dist, Graph, VertexId};

use crate::config::HopDbConfig;
use crate::engine;
use crate::iteration::BuildStats;
use crate::postprune;

/// A built HopDb index: labels over the rank-relabeled graph plus the
/// ranking that maps user-facing vertex ids to rank ids.
///
/// Queries are served from a frozen [`FlatIndex`] snapshot of the
/// built labels — the nested [`LabelIndex`] is kept alongside for
/// statistics, serialization, and further processing (bit-parallel
/// augmentation), but the hot read path never touches it.
pub struct HopDb {
    index: LabelIndex,
    flat: FlatIndex,
    ranking: Ranking,
    stats: BuildStats,
}

impl HopDb {
    /// Exact distance between two vertices of the *original* graph.
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        self.flat.query(self.ranking.rank_of(s), self.ranking.rank_of(t))
    }

    /// Answer a batch of `(s, t)` pairs (original vertex ids) across up
    /// to `threads` scoped workers (`0` = all cores); results come back
    /// in input order, each bit-identical to [`HopDb::query`].
    pub fn query_many(&self, pairs: &[(VertexId, VertexId)], threads: usize) -> Vec<Dist> {
        let rank_pairs: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .map(|&(s, t)| (self.ranking.rank_of(s), self.ranking.rank_of(t)))
            .collect();
        self.flat.query_many(&rank_pairs, threads)
    }

    /// The underlying label index (vertex ids are rank positions).
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }

    /// The vertex ranking used for relabeling.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }
}

/// Build a HopDb index for any graph: ranks vertices (paper defaults:
/// degree for undirected, in×out-degree product for directed; §8),
/// relabels so id = rank, and runs the configured engine.
///
/// ```
/// use sfgraph::GraphBuilder;
/// use hopdb::{build, HopDbConfig};
///
/// // The road graph G_R of the paper's Figure 1.
/// let mut b = GraphBuilder::new_undirected(5);
/// for (u, v) in [(0, 1), (1, 2), (0, 3), (0, 4)] {
///     b.add_edge(u, v);
/// }
/// let db = build(&b.build(), &HopDbConfig::default());
/// assert_eq!(db.query(2, 3), 3); // c – b – a – d
/// assert_eq!(db.query(3, 3), 0);
/// ```
pub fn build(g: &Graph, cfg: &HopDbConfig) -> HopDb {
    let (ranking, relabeled) = rank(g, cfg);
    let (index, stats) = build_prelabeled(&relabeled, cfg);
    let flat = FlatIndex::from_index(&index);
    HopDb { index, flat, ranking, stats }
}

/// The rank rule every build goes through: `cfg.rank_by`, else the
/// paper's default for `g`. Returns the ranking and `g` relabeled so that
/// id = rank, ready for [`build_prelabeled`] or the external engine.
pub fn rank(g: &Graph, cfg: &HopDbConfig) -> (Ranking, Graph) {
    let rank_by = cfg.rank_by.clone().unwrap_or_else(|| RankBy::paper_default(g));
    let ranking = rank_vertices(g, &rank_by);
    let relabeled = relabel_by_rank(g, &ranking);
    (ranking, relabeled)
}

/// Build on a graph that is *already* rank-relabeled (id 0 = highest
/// rank). Used by tests that encode the paper's pre-ranked examples and
/// by the external engine driver.
///
/// The engine labels the graph's core: the vertices with one or two
/// distinct neighbours are eliminated first, an independent set of them
/// (`sfgraph::reduce`), and each is stored as a record of its parents
/// and arc weights in place of a label (`hoplabels::Record`).
/// [`BuildStats::derived_vertices`] counts them.
pub fn build_prelabeled(g: &Graph, cfg: &HopDbConfig) -> (LabelIndex, BuildStats) {
    let reduced = peel(g);
    let (mut index, mut stats) = engine::build_index(&reduced.core, cfg);
    derive_fringe(&mut index, &mut stats, cfg, g, reduced);
    (index, stats)
}

/// The record of `v`'s arcs in direction `dir`; `None` when it has none
/// there. For a vertex with at most two neighbours.
fn record_of(g: &Graph, v: VertexId, dir: Direction) -> Option<Record> {
    let arcs: Vec<(VertexId, Dist)> = g.edges(v, dir).collect();
    (!arcs.is_empty()).then(|| Record::new(&arcs))
}

/// The vertices of `g` with one or two neighbours whose records fit an
/// image, eliminated from its core.
pub(crate) fn peel(g: &Graph) -> Reduced<'_> {
    let table = side_table(g.is_directed());
    eliminate(g, |v| {
        table
            .iter()
            .all(|rule| record_of(g, v, rule.step.reverse()).is_none_or(|r| record_fits(&r)))
    })
}

/// Finish an index either engine built on the core of `g`. First drop
/// every entry the canonical labelling lacks ([`postprune`]: the
/// order-free test of §5.2's exhaustive pruning, judged against the
/// labels as the engine left them), so the labels are a function of the
/// core and the order, whatever the strategy or the engine. Then each
/// derived vertex's slot — in the core an isolated vertex's
/// self-entry — becomes the record of its arcs on every side it has one
/// on, and the empty label on a side it has none (nothing is reached
/// that way). The per-iteration rows stay the engine's, counting those
/// self-entries and the filtered entries; `final_entries` is the
/// finished index's.
pub(crate) fn derive_fringe(
    index: &mut LabelIndex,
    stats: &mut BuildStats,
    cfg: &HopDbConfig,
    g: &Graph,
    Reduced { core, derived, leaves, shortcuts }: Reduced,
) {
    stats.core_edges = core.num_edges() as u64;
    drop(core);
    let started = Instant::now();
    stats.post_pruned = postprune::post_prune(index, cfg.resolved_parallelism());
    stats.post_prune_elapsed = started.elapsed();
    stats.elapsed += stats.post_prune_elapsed;
    // A side's record holds the arcs its seeds come from: `[Lout, Lin]`
    // the arcs out of and into the vertex, `[L]` all.
    let table = side_table(index.is_directed());
    for (side, rule) in index.sides_mut().iter_mut().zip(table) {
        for &v in &derived {
            let record = record_of(g, v, rule.step.reverse());
            side[v as usize] = record.map_or_else(VertexLabels::new, VertexLabels::from_record);
        }
    }
    stats.derived_vertices = derived.len() as u64;
    stats.derived_leaves = leaves as u64;
    stats.shortcut_arcs = shortcuts as u64;
    stats.final_entries = index.total_entries() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use sfgraph::traversal::all_pairs;
    use sfgraph::GraphBuilder;

    /// A graph whose natural ids are NOT rank order, to exercise the
    /// relabel-and-translate path.
    fn shuffled_star() -> Graph {
        let mut b = GraphBuilder::new_undirected(7);
        for leaf in [0, 1, 2, 4, 5, 6] {
            b.add_edge(3, leaf); // hub is vertex 3
        }
        b.add_edge(0, 6);
        b.build()
    }

    #[test]
    fn query_translates_original_ids() {
        let g = shuffled_star();
        let db = build(&g, &HopDbConfig::default());
        let ap = all_pairs(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(db.query(s, t), ap[s as usize][t as usize], "{s}->{t}");
            }
        }
        // The hub must be rank 0.
        assert_eq!(db.ranking().vertex_at(0), 3);
    }

    #[test]
    fn post_prune_config_is_applied() {
        // Every build is filtered: doubling leaves entries a later round
        // made redundant, and they go, leaving stepping's labels, which
        // the unpruned fixpoint outgrows.
        let g = graphgen::glp(&graphgen::GlpParams::with_density(300, 3.0, 8));
        let doubling = build(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
        let stepping = build(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
        assert!(doubling.stats().post_pruned > 0);
        assert_eq!(doubling.index(), stepping.index());
        let cfg = HopDbConfig::with_strategy(Strategy::Doubling);
        let (unpruned, _) = engine::build_unpruned(&rank(&g, &cfg).1, &cfg);
        assert!(unpruned.total_entries() > doubling.index().total_entries());
        let ap = all_pairs(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(doubling.query(s, t), ap[s as usize][t as usize]);
            }
        }
    }

    #[test]
    fn query_many_agrees_with_query_on_original_ids() {
        let g = shuffled_star();
        let db = build(&g, &HopDbConfig::default());
        let pairs: Vec<(VertexId, VertexId)> =
            g.vertices().flat_map(|s| g.vertices().map(move |t| (s, t))).collect();
        let expect: Vec<u32> = pairs.iter().map(|&(s, t)| db.query(s, t)).collect();
        for threads in [0usize, 1, 2, 8] {
            assert_eq!(db.query_many(&pairs, threads), expect, "threads {threads}");
        }
    }

    #[test]
    fn custom_ranking_is_respected() {
        let g = shuffled_star();
        let db =
            build(&g, &HopDbConfig { rank_by: Some(RankBy::Random(5)), ..HopDbConfig::default() });
        let ap = all_pairs(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(db.query(s, t), ap[s as usize][t as usize]);
            }
        }
    }

    #[test]
    fn directed_default_uses_degree_product() {
        let mut b = GraphBuilder::new_directed(4);
        // Vertex 2: in 2 × out 1 = 2; others smaller products.
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let db = build(&g, &HopDbConfig::default());
        assert_eq!(db.ranking().vertex_at(0), 2);
        let ap = all_pairs(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(db.query(s, t), ap[s as usize][t as usize]);
            }
        }
    }
}
