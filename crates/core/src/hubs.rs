//! The hub-distance tables: every vertex's distances to and from the
//! `K` top-ranked vertices, which every build tests each candidate
//! against where it is born — before the external engine sorts, spills,
//! merges or joins it, and before the in-memory engine scans `across`
//! for it.
//!
//! ## The rule
//!
//! Ids are ranks, so the hubs are the vertices `0..K`. There is one table
//! per row of the side table (`hoplabels::index::side_table`), `T[s]`,
//! filled by each hub's search along side `s`'s own `step`: on a directed
//! graph `T[Lout][x][h] = dist(x → h)` (the search walks in-arcs from `h`)
//! and `T[Lin][x][h] = dist(h → x)` (out-arcs); on an undirected graph
//! `T[L][x][h] = dist(h, x)`. An entry `(x, v, d)` of side `s` — pivot
//! `v < x` for owner `x` — is *killed* when some hub `h < min(K, v)` has
//! `T[s][x][h] + T[across(s)][v][h] ≤ d`, neither byte saturated: on
//! `Lout`, `dist(x → h) + dist(h → v) ≤ d`; on `Lin`, `dist(h → x) +
//! dist(v → h) ≤ d`; on `L`, the one table joined against itself. That is
//! PLL's pruning lemma (Akiba et al.) with exact distances, and §3.3's
//! prune with `h` as the witness. Read in the side's orientation — the
//! `x ⇝ v` walk of `Lout`, the `v ⇝ x` walk of `Lin`, either of `L` — the
//! labels do not move, on every side alike:
//!
//! * a killed entry is never canonical: `h` outranks `v` and lies on a
//!   walk between `x` and `v` in the side's orientation no longer than
//!   `d`, so `d` is not the distance or `h` lies on a shortest path — the
//!   canonical filter ([`crate::postprune`]) would drop it either way;
//! * anything extended from it along the side's `step` stays dominated
//!   through the same hub: an arc of weight `w` that passes the entry on
//!   to `(y, v, d + w)` puts `y` within `T[s][x][h] + w` of `h` in that
//!   orientation;
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
//! ## The tables
//!
//! `T[s][x][h]` is one byte, vertex-major, so a check reads two
//! contiguous rows of `K` bytes. The core's weights are small integers
//! (the peeled shortcuts sum a few edges), so each hub's column is one
//! pass of a bounded Dial bucket queue with a bucket per byte value; a
//! distance of 255 or more, or none, *saturates* at 255. A saturated
//! entry is never a witness: on a weighted core `255 + T[..][v][h] ≤ d`
//! can hold for a `d` past 255 whose true witness distance is larger
//! still. On a graph of large weights most entries saturate and the
//! tables kill little, never wrongly. They cost `sides × n × K` bytes
//! beside the graph, for the length of the rounds.

use hoplabels::index::{side_table, SideRule};
use sfgraph::{Dist, Graph, VertexId};

/// Hubs a build's table holds. On a 16 000-vertex GLP's external build,
/// 16 hubs kill 79 % of the raw candidates; a prototype with exact `u32`
/// distances built fastest at 16 (0.46 s against 0.52 s at 64 hubs,
/// which moved 14 % fewer bytes for a 4× table and a 4× check).
pub const HUBS: usize = 16;

/// The byte of a distance of 255 or more, or of none.
const SATURATED: u8 = u8::MAX;

/// `T[s][x][h]` for every side `s`, vertex `x` and hub `h < hubs()`;
/// see the module docs.
pub struct HubTable {
    hubs: usize,
    /// The graph's rows of the side table, one table each.
    rules: &'static [SideRule],
    /// Per side, `dist[s][x * hubs + h]`.
    dist: Vec<Box<[u8]>>,
}

impl HubTable {
    /// The tables of `g`'s first `min(hubs, n)` vertices: per side, each
    /// hub's distances along that side's `step`, saturated at 255.
    pub fn new(g: &Graph, hubs: usize) -> HubTable {
        let (n, k) = (g.num_vertices(), hubs.min(g.num_vertices()));
        let rules = side_table(g.is_directed());
        // One hub's distances, vertex by vertex, and its bucket queue.
        let mut column = vec![SATURATED; n];
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); usize::from(SATURATED) + 1];
        let mut search = |rule: &SideRule| {
            let mut dist = vec![SATURATED; n * k].into_boxed_slice();
            for h in 0..k {
                column.fill(SATURATED);
                column[h] = 0;
                buckets[0].push(h as VertexId);
                for at in 0..SATURATED {
                    // A vertex queued at a distance it has since lowered
                    // was settled from an earlier bucket.
                    while let Some(u) = buckets[usize::from(at)].pop() {
                        if column[u as usize] != at {
                            continue;
                        }
                        for (x, w) in g.edges(u, rule.step) {
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
            dist
        };
        HubTable { hubs: k, rules, dist: rules.iter().map(&mut search).collect() }
    }

    /// How many hubs the table holds.
    pub fn hubs(&self) -> usize {
        self.hubs
    }

    /// `T[side][x][h]`, or `None` when it is saturated: on a directed
    /// graph `dist(x → h)` for side 0 (`Lout`) and `dist(h → x)` for
    /// side 1 (`Lin`), on an undirected one `dist(h, x)`.
    pub fn distance(&self, side: usize, x: VertexId, h: usize) -> Option<Dist> {
        let d = self.row(side, x)[h];
        (d != SATURATED).then_some(Dist::from(d))
    }

    #[inline]
    fn row(&self, side: usize, x: VertexId) -> &[u8] {
        let start = x as usize * self.hubs;
        &self.dist[side][start..start + self.hubs]
    }

    /// Whether entry `(x, v, d)` of side `side` dies: some hub `h < v`
    /// has `T[side][x][h] + T[across(side)][v][h] ≤ d`, neither entry
    /// saturated.
    #[inline]
    pub(crate) fn kills(&self, side: usize, x: VertexId, v: VertexId, d: Dist) -> bool {
        let k = self.hubs.min(v as usize);
        let across = self.rules[side].across;
        let (own, far) = (&self.row(side, x)[..k], &self.row(across, v)[..k]);
        // No early exit: a branch-free fold over at most K bytes is
        // cheaper than the branches, and most candidates that reach the
        // check survive it.
        let witness = |(&a, &b): (&u8, &u8)| {
            a != SATURATED && b != SATURATED && Dist::from(a) + Dist::from(b) <= d
        };
        own.iter().zip(far).fold(false, |hit, pair| hit | witness(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HopDbConfig;
    use sfgraph::traversal::sssp;
    use sfgraph::GraphBuilder;

    /// Every side's every hub's row, as a column of that side's table,
    /// against `sssp` from that hub along the side's `step`, clipped to
    /// 255.
    fn assert_rows_are_sssp(g: &Graph, hubs: usize) {
        let table = HubTable::new(g, hubs);
        assert_eq!(table.hubs(), hubs.min(g.num_vertices()));
        for (s, rule) in side_table(g.is_directed()).iter().enumerate() {
            for h in 0..table.hubs() {
                let truth = sssp(g, h as VertexId, rule.step);
                for x in g.vertices() {
                    let clipped = Some(truth[x as usize]).filter(|&d| d < Dist::from(SATURATED));
                    assert_eq!(table.distance(s, x, h), clipped, "side {s}, hub {h}, vertex {x}");
                }
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

    /// A directed graph's two tables, each along its own side's `step`:
    /// `Lout`'s rows are distances to the hub, `Lin`'s from it.
    #[test]
    fn rows_are_sssp_both_ways_on_directed_glp() {
        let und = graphgen::glp(&graphgen::GlpParams::with_density(2_000, 2.5, 11));
        let g = graphgen::orient_scale_free(&und, 0.25, 11);
        assert!(g.is_directed());
        assert_rows_are_sssp(&ranked(&g), HUBS);
        let weighted = graphgen::with_random_weights(&g, 1, 40, 11);
        assert!(weighted.is_directed() && weighted.is_weighted());
        assert_rows_are_sssp(&ranked(&weighted), HUBS);
        let small = graphgen::orient_scale_free(
            &graphgen::glp(&graphgen::GlpParams::with_density(40, 2.0, 5)),
            0.25,
            5,
        );
        assert_rows_are_sssp(&ranked(&small), 64);
    }

    #[test]
    fn rows_are_sssp_on_a_grid_whose_far_corner_saturates() {
        // A 150 × 150 grid: the corners are 298 hops apart.
        let g = graphgen::grid(150, 150);
        assert_rows_are_sssp(&g, HUBS);
        let table = HubTable::new(&g, 1);
        assert_eq!(table.distance(0, g.num_vertices() as VertexId - 1, 0), None);
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
        assert_eq!((table.distance(0, 2, 0), table.distance(0, 3, 0)), (Some(254), None));
        assert_eq!((table.distance(0, 4, 2), table.distance(0, 5, 0)), (Some(2), None));
        assert_eq!(table.distance(0, 7, 7), Some(0));
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
        assert_eq!(table.distance(0, 3, 0), None);
        assert!(!table.kills(0, 3, 2, 299));
        // Through hub 1 the other entry saturates: 1 + 300.
        assert!(!table.kills(0, 3, 2, 1_000));
        // A hub at or past the pivot is no witness: pivot 0 has none.
        assert!(!table.kills(0, 2, 0, 1_000));
        // Unsaturated, hub 0 kills at and past its sum: on the path
        // 1 – 0 – 2, pivot 1 is 2 from vertex 2.
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(1, 0);
        b.add_edge(0, 2);
        let table = HubTable::new(&b.build(), HUBS);
        assert!(table.kills(0, 2, 1, 2) && table.kills(0, 2, 1, 3) && !table.kills(0, 2, 1, 1));
    }

    /// One orientation dominates, the other does not: on the cycle
    /// `2 → 1 → 0 → 2` with a heavy first arc, hub 0 lies on the one
    /// path `1 ⇝ 2` but on no path `2 ⇝ 1` as short as the arc. `kills`
    /// drops the `Lin` entry and keeps the canonical `Lout` one, which a
    /// table read the wrong way round would kill.
    #[test]
    fn each_side_reads_its_own_orientation() {
        let mut b = GraphBuilder::new_directed(3).weighted();
        b.add_weighted_edge(2, 1, 2);
        b.add_weighted_edge(1, 0, 1);
        b.add_weighted_edge(0, 2, 1);
        let g = b.build();
        let table = HubTable::new(&g, HUBS);
        let (lout, lin) = (0, 1);
        // `Lout(2) ∋ (1, 2)`: dist(2 → 1) is the arc, and 2 → 0 → 1 is
        // dist(2 → 0) + dist(0 → 1) = 3 + 3.
        assert_eq!((table.distance(lout, 2, 0), table.distance(lin, 1, 0)), (Some(3), Some(3)));
        assert!(!table.kills(lout, 2, 1, 2));
        // Read the wrong way round — dist(0 → 2) + dist(1 → 0) — the
        // same bytes would kill it.
        let (to_x, from_v) = (table.distance(lin, 2, 0), table.distance(lout, 1, 0));
        assert_eq!((to_x, from_v), (Some(1), Some(1)));
        // `Lin(2) ∋ (1, 2)` is the walk 1 → 0 → 2 through the hub: it dies.
        assert!(table.kills(lin, 2, 1, 2) && !table.kills(lin, 2, 1, 1));
        // A build, which tests every candidate against the tables, keeps
        // the canonical entry.
        let (index, _) = crate::engine::build_index(&g, &HopDbConfig::default());
        assert_eq!(index.sides()[lout][2].get(1), Some(2));
        assert_eq!((index.query(2, 1), index.query(1, 2)), (2, 2));
    }
}
