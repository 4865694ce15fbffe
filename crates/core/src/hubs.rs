//! The hub-distance table: every vertex's distance from the `K`
//! top-ranked vertices, which a pruned undirected build tests each
//! candidate against where it is born — before the external engine
//! sorts, spills, merges or joins it, and before the in-memory engine
//! scans `across` for it.
//!
//! ## The rule
//!
//! Ids are ranks, so the hubs are the vertices `0..K`. A candidate
//! `(x, v, d)` — pivot `v < x` for owner `x` — is *killed* when some hub
//! `h < min(K, v)` has `D[x][h] + D[v][h] ≤ d`, neither entry saturated.
//! That is PLL's pruning lemma (Akiba et al.) with exact distances, and
//! §3.3's prune with `h` as the witness. Why the labels do not move:
//!
//! * a killed entry is never canonical: `h` outranks `v` and lies on an
//!   `x`–`v` walk no longer than `d`, so `d` is not the distance or `h`
//!   lies on a shortest path — the canonical filter
//!   ([`crate::postprune`]) would drop it either way;
//! * anything extended from it stays dominated through the same hub: an
//!   arc `x → y` of weight `w` extends it to `(y, v, d + w)`, and
//!   `dist(y, h) ≤ D[x][h] + w`;
//! * a canonical entry is never killed (that needs a higher-ranked
//!   vertex on one of its shortest paths), and its trough path is made of
//!   canonical prefixes, so every canonical entry is still generated.
//!
//! Killing is monotone in `d`, so killing raw candidates and then
//! keeping the nearest per `(owner, pivot)` — the external engine —
//! leaves what keeping the nearest and then killing leaves — the
//! in-memory engine — and the two engines' rows stay equal. Both drop a
//! killed candidate uncounted, as they drop one its owner's own entry
//! dominates.
//!
//! ## The table
//!
//! `D[x][h]` is one byte, vertex-major, so a check reads two contiguous
//! rows of `K` bytes. The core's weights are small integers (the peeled
//! shortcuts sum a few edges), so each hub's row is one pass of a
//! bounded Dial bucket queue with a bucket per byte value; a distance of
//! 255 or more, or none, *saturates* at 255. A saturated entry is never a
//! witness: on a weighted core `255 + D[v][h] ≤ d` can hold for a `d`
//! past 255 whose true witness distance is larger still. On a graph of
//! large weights most entries saturate and the table kills little, never
//! wrongly. The table costs `n × K` bytes beside the graph, for the
//! length of the rounds.

use sfgraph::{Direction, Dist, Graph, VertexId};

use crate::config::HopDbConfig;

/// Hubs a build's table holds. On a 16 000-vertex GLP's external build,
/// 16 hubs kill 79 % of the raw candidates; a prototype with exact `u32`
/// distances built fastest at 16 (0.46 s against 0.52 s at 64 hubs,
/// which moved 14 % fewer bytes for a 4× table and a 4× check).
pub const HUBS: usize = 16;

/// The byte of a distance of 255 or more, or of none.
const SATURATED: u8 = u8::MAX;

/// `D[x][h]` for every vertex `x` and hub `h < hubs()`; see the module
/// docs.
pub struct HubTable {
    hubs: usize,
    /// `dist[x * hubs + h]`.
    dist: Vec<u8>,
}

impl HubTable {
    /// The table of `g`'s first `min(hubs, n)` vertices: each hub's
    /// distances along `g`'s out-arcs (an undirected graph's edges),
    /// saturated at 255.
    pub fn new(g: &Graph, hubs: usize) -> HubTable {
        let (n, k) = (g.num_vertices(), hubs.min(g.num_vertices()));
        let mut dist = vec![SATURATED; n * k];
        // One hub's distances, vertex by vertex, and its bucket queue.
        let mut column = vec![SATURATED; n];
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); usize::from(SATURATED) + 1];
        for h in 0..k {
            column.fill(SATURATED);
            column[h] = 0;
            buckets[0].push(h as VertexId);
            for at in 0..SATURATED {
                // A vertex queued at a distance it has since lowered was
                // settled from an earlier bucket.
                while let Some(u) = buckets[usize::from(at)].pop() {
                    if column[u as usize] != at {
                        continue;
                    }
                    for (x, w) in g.edges(u, Direction::Out) {
                        let near = Dist::from(at).saturating_add(w);
                        if near < Dist::from(column[x as usize]) {
                            column[x as usize] = near as u8;
                            buckets[near as usize].push(x);
                        }
                    }
                }
            }
            for (row, &d) in dist.chunks_exact_mut(k).zip(&column) {
                row[h] = d;
            }
        }
        HubTable { hubs: k, dist }
    }

    /// The table a build of `g` under `cfg` tests its candidates
    /// against, of `hubs` hubs: none for an unpruned build, whose
    /// fixpoint keeps every entry, or a directed one, which would need
    /// distances to the hubs as well as from them.
    pub(crate) fn for_build(g: &Graph, cfg: &HopDbConfig, hubs: usize) -> Option<HubTable> {
        (cfg.prune && !g.is_directed() && hubs > 0).then(|| HubTable::new(g, hubs))
    }

    /// How many hubs the table holds.
    pub fn hubs(&self) -> usize {
        self.hubs
    }

    /// `D[x][h]`, or `None` when it is saturated.
    pub fn distance(&self, x: VertexId, h: usize) -> Option<Dist> {
        let d = self.row(x)[h];
        (d != SATURATED).then_some(Dist::from(d))
    }

    #[inline]
    fn row(&self, x: VertexId) -> &[u8] {
        let start = x as usize * self.hubs;
        &self.dist[start..start + self.hubs]
    }

    /// Whether candidate `(x, v, d)` dies: some hub `h < v` has
    /// `D[x][h] + D[v][h] ≤ d`, neither entry saturated.
    #[inline]
    pub(crate) fn kills(&self, x: VertexId, v: VertexId, d: Dist) -> bool {
        let k = self.hubs.min(v as usize);
        let (from_x, from_v) = (&self.row(x)[..k], &self.row(v)[..k]);
        // No early exit: a branch-free fold over at most K bytes is
        // cheaper than the branches, and most candidates that reach the
        // check survive it.
        let witness = |(&a, &b): (&u8, &u8)| {
            a != SATURATED && b != SATURATED && Dist::from(a) + Dist::from(b) <= d
        };
        from_x.iter().zip(from_v).fold(false, |hit, pair| hit | witness(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgraph::traversal::sssp;
    use sfgraph::GraphBuilder;

    /// Every hub's row, as a column of the table, against `sssp` from
    /// that hub clipped to 255.
    fn assert_rows_are_sssp(g: &Graph, hubs: usize) {
        let table = HubTable::new(g, hubs);
        assert_eq!(table.hubs(), hubs.min(g.num_vertices()));
        for h in 0..table.hubs() {
            let truth = sssp(g, h as VertexId, Direction::Out);
            for x in g.vertices() {
                let clipped = Some(truth[x as usize]).filter(|&d| d < Dist::from(SATURATED));
                assert_eq!(table.distance(x, h), clipped, "hub {h}, vertex {x}");
            }
        }
    }

    fn ranked(g: &Graph) -> Graph {
        use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
        relabel_by_rank(g, &rank_vertices(g, &RankBy::Degree))
    }

    #[test]
    fn rows_are_sssp_on_unweighted_and_weighted_glp() {
        let g = graphgen::glp(&graphgen::GlpParams::with_density(2_000, 3.0, 3));
        assert_rows_are_sssp(&ranked(&g), HUBS);
        let weighted = graphgen::with_random_weights(&g, 1, 40, 3);
        assert!(weighted.is_weighted());
        assert_rows_are_sssp(&ranked(&weighted), HUBS);
        // Past n hubs the table holds every vertex.
        let small = ranked(&graphgen::glp(&graphgen::GlpParams::with_density(40, 2.0, 5)));
        assert_rows_are_sssp(&small, 64);
    }

    #[test]
    fn rows_are_sssp_on_a_grid_whose_far_corner_saturates() {
        // A 150 × 150 grid: the corners are 298 hops apart.
        let g = graphgen::grid(150, 150);
        assert_rows_are_sssp(&g, HUBS);
        let table = HubTable::new(&g, 1);
        assert_eq!(table.distance(g.num_vertices() as VertexId - 1, 0), None);
    }

    /// Weights past 255 and a second component: a saturated entry reads
    /// `None`, whether the hub is 255 or more away or never reaches the
    /// vertex.
    #[test]
    fn rows_are_sssp_with_weights_past_the_saturation() {
        let mut b = GraphBuilder::new_undirected(8).weighted();
        for (u, v, w) in [(0, 1, 200), (1, 2, 54), (2, 3, 1), (0, 3, 300), (3, 4, 1), (1, 4, 1000)]
        {
            b.add_weighted_edge(u, v, w);
        }
        b.add_weighted_edge(5, 6, 2);
        let g = b.build();
        assert_rows_are_sssp(&g, 8);
        let table = HubTable::new(&g, 8);
        assert_eq!((table.distance(2, 0), table.distance(3, 0)), (Some(254), None));
        assert_eq!((table.distance(4, 2), table.distance(5, 0)), (Some(2), None));
        assert_eq!(table.distance(7, 7), Some(0));
    }

    /// The kill test reads only unsaturated entries of hubs below the
    /// pivot: a sum through a saturated entry, however small the other,
    /// kills nothing.
    #[test]
    fn a_saturated_entry_is_never_a_witness() {
        // Hub 0 is 1 from vertex 2 and 300 from vertex 3 (saturated);
        // vertex 3's one shortest path to 2 is their edge, of 299.
        let mut b = GraphBuilder::new_undirected(4).weighted();
        b.add_weighted_edge(0, 2, 1);
        b.add_weighted_edge(2, 3, 299);
        b.add_weighted_edge(1, 3, 1);
        let g = b.build();
        let table = HubTable::new(&g, HUBS);
        // Read as 255, the saturated entry would kill the canonical
        // `(3, 2, 299)`: 255 + 1 ≤ 299.
        assert_eq!(table.distance(3, 0), None);
        assert!(!table.kills(3, 2, 299));
        // Through hub 1 the other entry saturates: 1 + 300.
        assert!(!table.kills(3, 2, 1_000));
        // A hub at or past the pivot is no witness: pivot 0 has none.
        assert!(!table.kills(2, 0, 1_000));
        // Unsaturated, hub 0 kills at and past its sum: on the path
        // 1 – 0 – 2, pivot 1 is 2 from vertex 2.
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(1, 0);
        b.add_edge(0, 2);
        let table = HubTable::new(&b.build(), HUBS);
        assert!(table.kills(2, 1, 2) && table.kills(2, 1, 3) && !table.kills(2, 1, 1));
    }
}
