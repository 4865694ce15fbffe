//! Compressed sparse row adjacency storage.
//!
//! A [`Csr`] stores, for each vertex, a sorted slice of neighbour ids and
//! (optionally) a parallel slice of edge weights. Unweighted graphs store
//! no weight array at all; every edge then has implicit weight 1.

use crate::{Dist, VertexId};

/// Compressed sparse row adjacency: `offsets[v]..offsets[v+1]` indexes the
/// neighbour (and weight) arrays for vertex `v`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    /// Empty for unweighted graphs (implicit weight 1 per edge).
    weights: Vec<Dist>,
}

impl Csr {
    /// Build a CSR from per-edge `(source, target, weight)` triples.
    ///
    /// `edges` must already be deduplicated; they do not need to be sorted.
    /// If `weighted` is false the weight component is ignored and not stored.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId, Dist)], weighted: bool) -> Csr {
        let mut offsets = vec![0u64; n + 1];
        for &(s, _, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut weights = if weighted { vec![0 as Dist; edges.len()] } else { Vec::new() };
        let mut cursor = offsets.clone();
        for &(s, t, w) in edges {
            let pos = cursor[s as usize] as usize;
            targets[pos] = t;
            if weighted {
                weights[pos] = w;
            }
            cursor[s as usize] += 1;
        }
        // Sort each adjacency list by target id for deterministic iteration
        // and binary-searchable neighbourhoods.
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if weighted {
                let mut pairs: Vec<(VertexId, Dist)> =
                    targets[lo..hi].iter().copied().zip(weights[lo..hi].iter().copied()).collect();
                pairs.sort_unstable();
                for (i, (t, w)) in pairs.into_iter().enumerate() {
                    targets[lo + i] = t;
                    weights[lo + i] = w;
                }
            } else {
                targets[lo..hi].sort_unstable();
            }
        }
        Csr { offsets, targets, weights }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Whether a weight array is stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Out-degree of `v` in this adjacency.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbour ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.targets[lo..hi]
    }

    /// Iterate `(neighbor, weight)` pairs of `v`; weight is 1 when unweighted.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Dist)> + '_ {
        let (lo, hi) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        let targets = &self.targets[lo..hi];
        let weights: &[Dist] = if self.weights.is_empty() { &[] } else { &self.weights[lo..hi] };
        targets
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, if weights.is_empty() { 1 } else { weights[i] }))
    }

    /// Whether an edge `v -> u` exists (binary search).
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Weight of the edge `v -> u`, if present.
    pub fn edge_weight(&self, v: VertexId, u: VertexId) -> Option<Dist> {
        let idx = self.neighbors(v).binary_search(&u).ok()?;
        let lo = self.offsets[v as usize] as usize;
        Some(if self.weights.is_empty() { 1 } else { self.weights[lo + idx] })
    }

    /// Reverse every edge, producing the transposed adjacency.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.num_edges());
        for v in 0..n as VertexId {
            for (t, w) in self.edges(v) {
                edges.push((t, v, w));
            }
        }
        Csr::from_edges(n, &edges, self.is_weighted())
    }

    /// Heap bytes used by the adjacency arrays (graph-size reporting).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Dist>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
        Csr::from_edges(4, &[(0, 2, 5), (0, 1, 3), (1, 2, 1), (2, 0, 7)], true)
    }

    #[test]
    fn degrees_and_neighbors_sorted() {
        let c = sample();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.degree(3), 0);
        assert!(c.neighbors(3).is_empty());
    }

    #[test]
    fn weights_follow_targets_through_sorting() {
        let c = sample();
        let e: Vec<_> = c.edges(0).collect();
        assert_eq!(e, vec![(1, 3), (2, 5)]);
        assert_eq!(c.edge_weight(0, 2), Some(5));
        assert_eq!(c.edge_weight(0, 3), None);
    }

    #[test]
    fn unweighted_edges_have_weight_one() {
        let c = Csr::from_edges(3, &[(0, 1, 99), (1, 2, 99)], false);
        assert!(!c.is_weighted());
        assert_eq!(c.edges(0).collect::<Vec<_>>(), vec![(1, 1)]);
        assert_eq!(c.edge_weight(1, 2), Some(1));
    }

    #[test]
    fn transpose_reverses_edges() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.num_edges(), 4);
        assert!(t.has_edge(1, 0));
        assert!(t.has_edge(2, 0));
        assert!(t.has_edge(2, 1));
        assert!(t.has_edge(0, 2));
        assert_eq!(t.edge_weight(2, 0), Some(5));
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), c);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::from_edges(0, &[], false);
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.num_edges(), 0);
    }
}
