//! Incremental graph construction from edge lists.

use crate::csr::Csr;
use crate::graph::Graph;
use crate::{Dist, VertexId};

/// Collects edges and produces a cleaned [`Graph`].
///
/// Cleaning rules, applied at [`build`](GraphBuilder::build) time:
/// * self-loops are dropped (they never lie on a shortest path between
///   distinct vertices);
/// * parallel edges are merged keeping the minimum weight;
/// * undirected edges are normalised to `(min, max)` before deduplication.
pub struct GraphBuilder {
    directed: bool,
    weighted: bool,
    n: usize,
    edges: Vec<(VertexId, VertexId, Dist)>,
}

impl GraphBuilder {
    /// New builder for a directed graph on vertices `0..n`.
    pub fn new_directed(n: usize) -> GraphBuilder {
        GraphBuilder { directed: true, weighted: false, n, edges: Vec::new() }
    }

    /// New builder for an undirected graph on vertices `0..n`.
    pub fn new_undirected(n: usize) -> GraphBuilder {
        GraphBuilder { directed: false, weighted: false, n, edges: Vec::new() }
    }

    /// Declare that edges carry weights; unweighted adds default to 1.
    pub fn weighted(mut self) -> GraphBuilder {
        self.weighted = true;
        self
    }

    /// Number of vertices the graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Grow the vertex set so it covers id `v`.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.n = self.n.max(v as usize + 1);
    }

    /// Add an edge of weight 1.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.add_weighted_edge(u, v, 1);
    }

    /// Add an edge with an explicit weight (weights must be ≥ 1; a zero
    /// weight is clamped to 1 so that distances stay strictly positive as
    /// the paper assumes).
    pub fn add_weighted_edge(&mut self, u: VertexId, v: VertexId, w: Dist) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n, "vertex out of range");
        self.edges.push((u, v, w.max(1)));
    }

    /// Build without consuming the builder (clones the edge list) —
    /// convenient when deriving several graphs from one edge set.
    pub fn build_clone(&self) -> Graph {
        GraphBuilder {
            directed: self.directed,
            weighted: self.weighted,
            n: self.n,
            edges: self.edges.clone(),
        }
        .build()
    }

    /// Finalise into a [`Graph`].
    pub fn build(mut self) -> Graph {
        // Normalise undirected edges and drop self-loops.
        if self.directed {
            self.edges.retain(|&(u, v, _)| u != v);
        } else {
            for e in &mut self.edges {
                if e.0 > e.1 {
                    std::mem::swap(&mut e.0, &mut e.1);
                }
            }
            self.edges.retain(|&(u, v, _)| u != v);
        }
        // Dedup keeping minimum weight per (u, v).
        self.edges.sort_unstable();
        self.edges.dedup_by(|later, first| {
            // `dedup_by` keeps `first`; the list is sorted so the first
            // duplicate already carries the minimal weight.
            later.0 == first.0 && later.1 == first.1
        });
        let logical = self.edges.len();

        let out_edges: Vec<(VertexId, VertexId, Dist)> = if self.directed {
            self.edges.clone()
        } else {
            // Materialise both directions.
            let mut both = Vec::with_capacity(self.edges.len() * 2);
            for &(u, v, w) in &self.edges {
                both.push((u, v, w));
                both.push((v, u, w));
            }
            both
        };
        let out = Csr::from_edges(self.n, &out_edges, self.weighted);
        let inn = if self.directed { Some(out.transpose()) } else { None };
        Graph::new(self.directed, out, inn, logical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    #[test]
    fn removes_self_loops_and_parallel_edges() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0, Direction::Out), &[1]);
    }

    #[test]
    fn parallel_edges_keep_min_weight() {
        let mut b = GraphBuilder::new_directed(2).weighted();
        b.add_weighted_edge(0, 1, 9);
        b.add_weighted_edge(0, 1, 4);
        b.add_weighted_edge(0, 1, 6);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn undirected_normalisation_dedups_mirrored_edges() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0, Direction::Out), &[1]);
        assert_eq!(g.neighbors(1, Direction::Out), &[0]);
    }

    #[test]
    fn zero_weight_clamped_to_one() {
        let mut b = GraphBuilder::new_undirected(2).weighted();
        b.add_weighted_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn ensure_vertex_grows_graph() {
        let mut b = GraphBuilder::new_undirected(0);
        b.ensure_vertex(5);
        b.add_edge(5, 0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn contains_edge_respects_orientation() {
        let mut d = GraphBuilder::new_directed(3);
        d.add_edge(0, 1);
        let d = d.build();
        assert!(d.has_edge(0, 1));
        assert!(!d.has_edge(1, 0));

        let mut u = GraphBuilder::new_undirected(3);
        u.add_edge(0, 1);
        assert!(u.build().has_edge(1, 0));
    }
}
