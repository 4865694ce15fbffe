//! One level of vertex elimination: the periphery a scale-free graph
//! hangs off its core.
//!
//! A vertex `v` with at most [`MAX_PARENTS`] distinct neighbours — its
//! *parents* — over its in- and out-arcs together can leave the graph if
//! every walk through it is replaced: for each in-arc `a → v` and
//! out-arc `v → b` with `a ≠ b`, the rest of the graph gets the
//! *shortcut* `a → b` of weight `w(a, v) + w(v, b)`, which
//! [`GraphBuilder`]'s min-dedup drops when an arc `a → b` that is no
//! longer exists already. Distances among the remaining vertices, the
//! *core*, are then the whole graph's, and every distance from (to) `v`
//! is the least, over its parents `p`, of the weight of its arc to (from)
//! `p` plus a core distance from (to) `p`. A leaf — one neighbour — needs
//! no shortcut: nothing passes through it.
//!
//! [`eliminate`] removes an independent set in one pass, so every parent
//! is a core vertex and a reader resolves a derived vertex in exactly
//! one level. Leaves go first, then the vertices with two neighbours;
//! within each, descending id — lowest rank first on a rank-relabeled
//! graph. A vertex is skipped when a neighbour was already taken (of a
//! two-vertex component only the higher id goes; of a chain, every other
//! vertex), when a shortcut through it would not stay below `INF_DIST`,
//! or when the caller's `keep` refuses it. The core becomes weighted once
//! it has a shortcut.
//!
//! The cap is [`MAX_PARENTS`], a constant. On hopbench's `und-mem-read`
//! (GLP, density 4, no leaves) allowing three neighbours derived more
//! and cut 34.8 % of the image's bytes where two cut 26 %, but a query
//! between two such vertices makes up to 9 core joins instead of 4
//! (≈ 2.7× the uniform-pair time in that prototype), and a record of
//! three `(parent, offset)` pairs rarely fits the image's 7 bytes.

use std::borrow::Cow;

use crate::{Direction, Dist, Graph, GraphBuilder, VertexId, INF_DIST};

/// The most distinct neighbours a derived vertex has: 1 (a leaf) or 2.
pub const MAX_PARENTS: usize = 2;

/// A graph split into its core and the vertices eliminated from it.
#[derive(Debug)]
pub struct Reduced<'g> {
    /// The graph without the derived vertices' arcs, plus the shortcuts
    /// through them, over the same vertex ids (a derived vertex is
    /// isolated in it): the input itself, not a copy, when nothing is
    /// derived.
    pub core: Cow<'g, Graph>,
    /// The derived vertices, ascending. A derived vertex's arcs in the
    /// input are exactly its arcs to and from its parents.
    pub derived: Vec<VertexId>,
    /// How many of them are leaves (one neighbour).
    pub leaves: usize,
    /// Arcs of the core that are shortcuts: no arc of the input joins
    /// their ends.
    pub shortcuts: usize,
}

/// Distinct neighbours of `v` over `out ∪ inn` (its sorted out- and
/// in-neighbour lists), or `usize::MAX` when there are more than
/// [`MAX_PARENTS`].
fn neighbour_count(out: &[VertexId], inn: &[VertexId]) -> usize {
    if out.len().max(inn.len()) > MAX_PARENTS {
        return usize::MAX;
    }
    out.len() + inn.iter().filter(|p| !out.contains(p)).count()
}

/// The shortcuts `(a, b, w(a, v) + w(v, b))` that replace the walks
/// `a → v → b` through `v`; a weight that would reach `INF_DIST` is
/// `INF_DIST`.
fn shortcuts(g: &Graph, v: VertexId) -> impl Iterator<Item = (VertexId, VertexId, Dist)> + '_ {
    g.edges(v, Direction::In).flat_map(move |(a, w1)| {
        g.edges(v, Direction::Out)
            .filter(move |&(b, _)| b != a)
            .map(move |(b, w2)| (a, b, w1.saturating_add(w2)))
    })
}

/// Eliminate an independent set of `g`'s vertices with one or two
/// neighbours that `keep` accepts (see the module docs).
pub fn eliminate(g: &Graph, keep: impl Fn(VertexId) -> bool) -> Reduced<'_> {
    let mut taken = vec![false; g.num_vertices()];
    let (mut derived, mut leaves) = (Vec::new(), 0);
    for degree in 1..=MAX_PARENTS {
        for v in (0..g.num_vertices() as VertexId).rev() {
            let (out, inn) = (g.neighbors(v, Direction::Out), g.neighbors(v, Direction::In));
            if neighbour_count(out, inn) != degree
                || out.iter().chain(inn).any(|&p| taken[p as usize])
                || shortcuts(g, v).any(|(.., w)| w == INF_DIST)
                || !keep(v)
            {
                continue;
            }
            taken[v as usize] = true;
            derived.push(v);
        }
        if degree == 1 {
            leaves = derived.len();
        }
    }
    derived.sort_unstable();
    if derived.is_empty() {
        return Reduced { core: Cow::Borrowed(g), derived, leaves, shortcuts: 0 };
    }
    let n = g.num_vertices();
    let mut core = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    let mut kept = 0;
    for u in g.vertices().filter(|&u| !taken[u as usize]) {
        for (v, w) in g.edges(u, Direction::Out) {
            if !taken[v as usize] && (g.is_directed() || u < v) {
                core.add_weighted_edge(u, v, w);
                kept += 1;
            }
        }
    }
    let mut weighted = g.is_weighted();
    for &v in &derived {
        for (a, b, w) in shortcuts(g, v) {
            core.add_weighted_edge(a, b, w);
            weighted = true;
        }
    }
    if weighted {
        core = core.weighted();
    }
    let core = core.build();
    let shortcuts = core.num_edges() - kept;
    Reduced { core: Cow::Owned(core), derived, leaves, shortcuts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut b = GraphBuilder::new_undirected(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn a_star_peels_its_points_and_keeps_its_centre() {
        let g = undirected(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let r = eliminate(&g, |_| true);
        assert_eq!((r.derived.as_slice(), r.leaves, r.shortcuts), ([1, 2, 3, 4].as_slice(), 4, 0));
        assert_eq!((r.core.num_vertices(), r.core.num_edges()), (5, 0));
        assert!(!r.core.is_weighted(), "leaves add no shortcut");
    }

    #[test]
    fn peeling_is_one_pass_and_a_pair_keeps_its_lower_end() {
        // Path 0–1–2–3–4 plus the pair 5–6 and the isolated 7: the ends
        // 0 and 4 go as leaves, which blocks 1 and 3; 2 then goes with
        // the shortcut 1–3 of weight 2. Of the pair only 6 goes.
        let g = undirected(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        let r = eliminate(&g, |_| true);
        assert_eq!((r.derived.as_slice(), r.leaves, r.shortcuts), ([0, 2, 4, 6].as_slice(), 3, 1));
        assert_eq!(r.core.edge_list(), [(1, 3, 2)]);
        assert!(r.core.is_weighted());

        // A chain loses every other vertex, lowest rank first: of the
        // cycle 0–1–2–3–4–5, 5 and 3 and 1 go.
        let cycle = undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let r = eliminate(&cycle, |_| true);
        assert_eq!((r.derived.as_slice(), r.leaves), ([1, 3, 5].as_slice(), 0));
        assert_eq!(r.core.edge_list(), [(0, 2, 2), (0, 4, 2), (2, 4, 2)]);
    }

    #[test]
    fn a_shortcut_longer_than_an_arc_is_dropped() {
        // K4 on 0, 1, 3, 4 with 0–1 of weight 3, and 0–2–1 of weights
        // 2 + 2: 2 goes, and the arc of 3 is kept over the shortcut of 4.
        let mut b = GraphBuilder::new_undirected(5).weighted();
        for (u, v, w) in [(0, 1, 3), (0, 3, 1), (0, 4, 1), (1, 3, 1), (1, 4, 1), (3, 4, 1)] {
            b.add_weighted_edge(u, v, w);
        }
        b.add_weighted_edge(0, 2, 2);
        b.add_weighted_edge(2, 1, 2);
        let g = b.build();
        let r = eliminate(&g, |_| true);
        assert_eq!((r.derived.as_slice(), r.shortcuts), ([2].as_slice(), 0));
        assert_eq!(r.core.edge_list()[0], (0, 1, 3));
        assert_eq!(r.core.num_edges(), 6);
    }

    #[test]
    fn directed_vertices_shortcut_each_in_arc_to_each_out_arc() {
        // The core is the 2-cycle 0 ⇄ 1 (weights 5 and 6). 2 sits on
        // 0 → 2 → 1, 3 on 1 → 3 ⇄ 0 with different weights; 4 is a
        // sink of 0 and 1, 5 a source to both, 6 hangs off 0 both ways.
        let mut b = GraphBuilder::new_directed(7).weighted();
        for (u, v, w) in [(0, 1, 5), (1, 0, 6), (0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 0, 2)] {
            b.add_weighted_edge(u, v, w);
        }
        for (u, v, w) in
            [(0, 3, 4), (0, 4, 1), (1, 4, 1), (5, 0, 1), (5, 1, 1), (6, 0, 1), (0, 6, 1)]
        {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let r = eliminate(&g, |_| true);
        assert_eq!(
            (r.derived.as_slice(), r.leaves, r.shortcuts),
            ([2, 3, 4, 5, 6].as_slice(), 1, 0)
        );
        // 0 → 2 → 1 = 2 beats 5; 1 → 3 → 0 = 3 beats 6; 0 → 3 → 0 is no
        // arc.
        assert_eq!(r.core.edge_list(), [(0, 1, 2), (1, 0, 3)]);
        assert!(r.core.is_directed());
    }

    #[test]
    fn refused_leaves_stay_and_nothing_peeled_is_no_copy() {
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        let r = eliminate(&g, |v| v != 2);
        assert_eq!(r.derived, [1, 3]);
        assert_eq!(r.core.edge_list(), [(0, 2, 1)]);

        // Every vertex of K4 has three neighbours.
        let k4 = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let r = eliminate(&k4, |_| true);
        assert!(r.derived.is_empty());
        assert!(matches!(r.core, Cow::Borrowed(core) if std::ptr::eq(core, &k4)));

        // A shortcut that would reach INF_DIST keeps its vertex: of the
        // 4-cycle 0–1–2–3 with 2–3 of weight INF_DIST − 1, neither 3
        // nor 2 can go, so 1 does.
        let mut b = GraphBuilder::new_undirected(4).weighted();
        for (u, v, w) in [(0, 1, 1), (1, 2, 1), (2, 3, INF_DIST - 1), (3, 0, 1)] {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let r = eliminate(&g, |_| true);
        assert_eq!(r.derived, [1]);
    }
}
