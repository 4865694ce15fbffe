//! Leaf peeling: the fringe a scale-free graph hangs off its core.
//!
//! A *leaf* is a vertex with exactly one distinct neighbour `p` over its
//! in- and out-arcs together. No shortest path between two other
//! vertices passes through it — a walk through a leaf enters and leaves
//! by `p` — so distances among the rest of the graph, the *core*, are
//! the whole graph's, and every distance from (to) a leaf is the weight
//! of its arc to (from) `p` plus a core distance from (to) `p`.
//!
//! [`peel_leaves`] removes the leaves in one pass. It does not iterate:
//! a vertex that becomes a leaf only once its own leaves are gone stays
//! in the core, so every leaf's parent is a core vertex. In a two-vertex
//! component each end is the other's only neighbour; only the higher id
//! peels.

use std::borrow::Cow;

use crate::{Direction, Dist, Graph, GraphBuilder, VertexId};

/// One peeled vertex: its only neighbour and the arcs between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// The leaf.
    pub vertex: VertexId,
    /// Its one neighbour, which stays in the core.
    pub parent: VertexId,
    /// Weight of the arc `vertex → parent`, if there is one (always
    /// for an undirected graph).
    pub to_parent: Option<Dist>,
    /// Weight of the arc `parent → vertex`, if there is one (always
    /// for an undirected graph).
    pub from_parent: Option<Dist>,
}

/// A graph split into its core and the leaves peeled off it.
#[derive(Debug)]
pub struct Peeled<'g> {
    /// The graph without the leaves' edges, over the same vertex ids (a
    /// peeled leaf is isolated in it): the input itself, not a copy,
    /// when nothing peeled.
    pub core: Cow<'g, Graph>,
    /// The peeled leaves, ascending by vertex id.
    pub leaves: Vec<Leaf>,
}

/// Peel every leaf of `g` that `keep` accepts (see the module docs).
pub fn peel_leaves(g: &Graph, keep: impl Fn(&Leaf) -> bool) -> Peeled<'_> {
    let leaf_of = |v: VertexId| {
        let parent = match (g.neighbors(v, Direction::Out), g.neighbors(v, Direction::In)) {
            (&[p], &[]) | (&[], &[p]) => p,
            (&[p], &[q]) if p == q => p,
            _ => return None,
        };
        let (to_parent, from_parent) = (g.edge_weight(v, parent), g.edge_weight(parent, v));
        Some(Leaf { vertex: v, parent, to_parent, from_parent })
    };
    let mut peeled = vec![false; g.num_vertices()];
    let mut leaves = Vec::new();
    for v in g.vertices() {
        let Some(leaf) = leaf_of(v) else { continue };
        // Two leaves of each other: the lower id stays as the parent.
        if (leaf.parent > v && leaf_of(leaf.parent).is_some()) || !keep(&leaf) {
            continue;
        }
        peeled[v as usize] = true;
        leaves.push(leaf);
    }
    if leaves.is_empty() {
        return Peeled { core: Cow::Borrowed(g), leaves };
    }
    let n = g.num_vertices();
    let mut core = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    if g.is_weighted() {
        core = core.weighted();
    }
    for u in g.vertices().filter(|&u| !peeled[u as usize]) {
        for (v, w) in g.edges(u, Direction::Out) {
            if !peeled[v as usize] && (g.is_directed() || u < v) {
                core.add_weighted_edge(u, v, w);
            }
        }
    }
    Peeled { core: Cow::Owned(core.build()), leaves }
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
        let p = peel_leaves(&g, |_| true);
        let points: Vec<_> = p.leaves.iter().map(|l| (l.vertex, l.parent)).collect();
        assert_eq!(points, [(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert!(p.leaves.iter().all(|l| (l.to_parent, l.from_parent) == (Some(1), Some(1))));
        assert_eq!((p.core.num_vertices(), p.core.num_edges()), (5, 0));
    }

    #[test]
    fn peeling_is_one_pass_and_a_pair_keeps_its_lower_end() {
        // Path 0–1–2–3 plus the pair 4–5 and the isolated 6: the path's
        // ends peel, its middle stays (1 and 2 only become leaves after),
        // and of the pair only 5 peels.
        let g = undirected(7, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let p = peel_leaves(&g, |_| true);
        let peeled: Vec<_> = p.leaves.iter().map(|l| (l.vertex, l.parent)).collect();
        assert_eq!(peeled, [(0, 1), (3, 2), (5, 4)]);
        assert_eq!(p.core.edge_list(), [(1, 2, 1)]);
        assert_eq!(p.core.num_vertices(), 7);
    }

    #[test]
    fn directed_leaves_record_each_arc_they_have() {
        // 0 ⇄ 1 ⇄ 2 ⇄ 0 is the core; 3 → 0 (out only), 1 → 4 (in only),
        // 5 ⇄ 2 with different weights, and 6 → 0, 0 → 6 are two arcs
        // to one neighbour.
        let mut b = GraphBuilder::new_directed(7).weighted();
        for (u, v, w) in
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 0, 1), (0, 2, 1), (3, 0, 4)]
        {
            b.add_weighted_edge(u, v, w);
        }
        for (u, v, w) in [(1, 4, 5), (5, 2, 2), (2, 5, 7), (6, 0, 3), (0, 6, 3)] {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let p = peel_leaves(&g, |_| true);
        let leaf = |vertex, parent, to_parent, from_parent| Leaf {
            vertex,
            parent,
            to_parent,
            from_parent,
        };
        assert_eq!(
            p.leaves,
            [
                leaf(3, 0, Some(4), None),
                leaf(4, 1, None, Some(5)),
                leaf(5, 2, Some(2), Some(7)),
                leaf(6, 0, Some(3), Some(3)),
            ]
        );
        assert_eq!(p.core.num_edges(), 6);
        assert!(p.core.is_weighted() && p.core.is_directed());
    }

    #[test]
    fn refused_leaves_stay_and_nothing_peeled_is_no_copy() {
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        let p = peel_leaves(&g, |l| l.vertex != 2);
        assert_eq!(p.leaves.iter().map(|l| l.vertex).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(p.core.edge_list(), [(0, 2, 1)]);

        let cycle = undirected(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = peel_leaves(&cycle, |_| true);
        assert!(p.leaves.is_empty());
        assert!(matches!(p.core, Cow::Borrowed(core) if std::ptr::eq(core, &cycle)));
    }
}
