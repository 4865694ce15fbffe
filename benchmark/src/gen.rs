//! Seeded input generators: everything the program under test receives
//! is made here, and nothing else is — the graph from the workload's
//! own seed, the traffic from `--seed`.
//!
//! One xorshift stream per purpose (graph, uniform pairs, hub pairs,
//! update edges, oracle sources), each derived from a seed and a purpose
//! tag, so adding a draw to one stream never shifts another.

use std::collections::HashSet;

use graphgen::{glp, orient_scale_free, GlpParams};
use sfgraph::{Dist, Graph, VertexId};

use crate::spec::WorkloadSpec;

/// A vertex pair in original (pre-ranking) ids, as sent on the wire.
pub type Pair = (VertexId, VertexId);
/// A weighted edge insertion in original ids.
pub type Edge = (VertexId, VertexId, Dist);

/// Purpose tags for [`Stream::new`].
pub mod purpose {
    /// Graph topology (handed to `graphgen`).
    pub const GRAPH: u64 = 1;
    /// Edge orientation for directed workloads.
    pub const ORIENT: u64 = 2;
    /// Uniform query pairs.
    pub const UNIFORM: u64 = 3;
    /// Hub-source query pairs.
    pub const HUB: u64 = 4;
    /// Update edges.
    pub const UPDATES: u64 = 5;
    /// Oracle sources and targets.
    pub const ORACLE: u64 = 6;
    /// Records for the external-sort probe.
    pub const SORT: u64 = 7;
}

/// xorshift64* — small, fast, and good enough for drawing vertex ids.
#[derive(Clone, Debug)]
pub struct Stream(u64);

impl Stream {
    /// The stream for `purpose` under run seed `seed`. SplitMix64
    /// finalisation decorrelates neighbouring seeds and tags.
    pub fn new(seed: u64, purpose: u64) -> Stream {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Stream(z | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `0..n` (multiply-shift; bias < 2⁻³² for the
    /// vertex counts used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// The workload's graph, in original ids. It is drawn from the
/// workload's own `graph_seed`, not from the run seed: the graph is what
/// the workload *is*, and a run seed that redrew it would spread the
/// exact metrics (label volume by 2–6 %, external I/O by up to 12 %
/// between GLP draws of one size) by more than the bound they are gated
/// at. The run seed draws everything that is traffic.
pub fn graph(spec: &WorkloadSpec) -> Graph {
    let topo_seed = Stream::new(spec.graph_seed, purpose::GRAPH).next_u64();
    let g = glp(&GlpParams::with_density(spec.vertices, spec.density, topo_seed));
    if spec.directed {
        let orient_seed = Stream::new(spec.graph_seed, purpose::ORIENT).next_u64();
        orient_scale_free(&g, spec.reciprocal, orient_seed)
    } else {
        g
    }
}

/// `count` uniform `(s, t)` pairs over `n` vertices.
pub fn uniform_pairs(n: usize, count: usize, seed: u64) -> Vec<Pair> {
    let mut rng = Stream::new(seed, purpose::UNIFORM);
    (0..count).map(|_| (rng.below(n) as VertexId, rng.below(n) as VertexId)).collect()
}

/// `count` pairs whose source is one of `hubs` and whose target is
/// uniform: a short hub label joined against a long tail label.
pub fn hub_pairs(hubs: &[VertexId], n: usize, count: usize, seed: u64) -> Vec<Pair> {
    assert!(!hubs.is_empty(), "hub set must not be empty");
    let mut rng = Stream::new(seed, purpose::HUB);
    (0..count).map(|_| (hubs[rng.below(hubs.len())], rng.below(n) as VertexId)).collect()
}

/// Endless supply of weight-1 update edges: in range, never a loop,
/// never an edge the graph already has, and pairwise distinct (as an
/// unordered pair, so an undirected overlay never dedups two of them).
pub struct UpdateEdges {
    rng: Stream,
    seen: HashSet<Pair>,
}

impl UpdateEdges {
    /// The update stream under `seed`.
    pub fn new(seed: u64) -> UpdateEdges {
        UpdateEdges { rng: Stream::new(seed, purpose::UPDATES), seen: HashSet::new() }
    }

    /// The next `count` edges new to `g`.
    pub fn take(&mut self, g: &Graph, count: usize) -> Vec<Edge> {
        let n = g.num_vertices();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (s, t) = (self.rng.below(n) as VertexId, self.rng.below(n) as VertexId);
            let fresh = s != t && !g.has_edge(s, t) && !g.has_edge(t, s);
            if fresh && self.seen.insert((s.min(t), s.max(t))) {
                out.push((s, t, 1));
            }
        }
        out
    }
}

/// The sample the BFS/Dijkstra oracle is evaluated on: `sources`
/// distinct seeded vertices and, for each in turn, `targets` pairs from
/// it to seeded targets.
pub fn oracle_pairs(
    n: usize,
    sources: usize,
    targets: usize,
    seed: u64,
) -> (Vec<VertexId>, Vec<Pair>) {
    let mut rng = Stream::new(seed, purpose::ORACLE);
    let mut picked = HashSet::new();
    let (mut from, mut pairs) = (Vec::new(), Vec::new());
    while from.len() < sources.min(n) {
        let s = rng.below(n) as VertexId;
        if picked.insert(s) {
            from.push(s);
            pairs.extend((0..targets).map(|_| (s, rng.below(n) as VertexId)));
        }
    }
    (from, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut s = Stream::new(7, purpose::UNIFORM);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = Stream::new(7, purpose::UNIFORM);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut s = Stream::new(7, purpose::HUB);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut s = Stream::new(8, purpose::UNIFORM);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut s = Stream::new(1, purpose::UNIFORM);
        let mut hit = [false; 10];
        for _ in 0..1_000 {
            hit[s.below(10)] = true;
        }
        assert!(hit.iter().all(|&h| h));
        assert_eq!(s.below(1), 0);
    }

    #[test]
    fn pair_sets_are_seeded_and_in_range() {
        let p = uniform_pairs(500, 2_000, 3);
        assert_eq!(p, uniform_pairs(500, 2_000, 3));
        assert_ne!(p, uniform_pairs(500, 2_000, 4));
        assert!(p.iter().all(|&(s, t)| s < 500 && t < 500));
        let hubs = [3, 9, 27];
        let h = hub_pairs(&hubs, 500, 2_000, 3);
        assert_eq!(h, hub_pairs(&hubs, 500, 2_000, 3));
        assert!(h.iter().all(|&(s, t)| hubs.contains(&s) && t < 500));
    }

    #[test]
    fn update_edges_are_distinct_new_and_never_loops() {
        let mut spec = WORKLOADS[0].clone();
        spec.vertices = 400;
        let g = graph(&spec);
        let edges = UpdateEdges::new(11).take(&g, 300);
        assert_eq!(edges, UpdateEdges::new(11).take(&g, 300));
        let mut seen = HashSet::new();
        for &(s, t, w) in &edges {
            assert!(s != t && (s as usize) < 400 && (t as usize) < 400 && w == 1);
            assert!(!g.has_edge(s, t) && !g.has_edge(t, s));
            assert!(seen.insert((s.min(t), s.max(t))), "edge ({s}, {t}) drawn twice");
        }
        // Two takes continue one stream: no overlap between them.
        let mut stream = UpdateEdges::new(11);
        let (first, second) = (stream.take(&g, 150), stream.take(&g, 150));
        assert_eq!([first, second].concat(), edges);
    }

    #[test]
    fn graphs_follow_the_spec_and_its_seed() {
        for spec in &WORKLOADS {
            let mut small = spec.clone();
            small.vertices = 600;
            let other = WorkloadSpec { graph_seed: spec.graph_seed + 1, ..small.clone() };
            let (a, b, c) = (graph(&small), graph(&small), graph(&other));
            assert_eq!(a.edge_list(), b.edge_list());
            assert_ne!(a.edge_list(), c.edge_list());
            assert_eq!(a.num_vertices(), 600);
            assert_eq!(a.is_directed(), spec.directed);
        }
    }

    #[test]
    fn oracle_pairs_have_distinct_sources_and_source_major_order() {
        let (sources, pairs) = oracle_pairs(100, 50, 8, 2);
        assert_eq!((sources.len(), pairs.len()), (50, 400));
        assert_eq!(sources.iter().collect::<HashSet<_>>().len(), 50);
        for (s, chunk) in sources.iter().zip(pairs.chunks(8)) {
            assert!(chunk.iter().all(|&(from, to)| from == *s && to < 100));
        }
    }
}
