//! Vertex rankings and rank relabeling (Section 2.1 / 3.1 of the paper).
//!
//! The labeling algorithms require a *total* ranking of vertices where
//! higher-ranked vertices are expected to hit more shortest paths. The
//! paper ranks by non-increasing degree for undirected graphs and by the
//! product of in- and out-degree for directed graphs ("due to its better
//! performance", §8). Ties are broken by total degree and then vertex id,
//! making every ranking deterministic.
//!
//! After ranking we *relabel* the graph so that vertex id equals rank
//! position (id 0 = highest rank). Every downstream algorithm then
//! compares ranks with a single integer comparison: `r(u) > r(v)` ⇔
//! `u < v`.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::VertexId;

/// Ranking strategy.
#[derive(Clone, Debug)]
pub enum RankBy {
    /// Non-increasing total degree (paper default for undirected graphs).
    Degree,
    /// Non-increasing `in_degree × out_degree` (paper default for directed
    /// graphs, §8); falls back to [`RankBy::Degree`] semantics on
    /// undirected graphs where in = out.
    DegreeProduct,
    /// A caller-supplied score per vertex, ranked non-increasing.
    Score(Vec<u64>),
    /// Uniformly random permutation from the given seed (ablation baseline
    /// for §7's discussion of general rankings).
    Random(u64),
}

impl RankBy {
    /// §8's rule: in×out degree for a directed graph, degree otherwise.
    pub fn paper_default(g: &Graph) -> RankBy {
        if g.is_directed() {
            RankBy::DegreeProduct
        } else {
            RankBy::Degree
        }
    }
}

/// A total order on vertices.
///
/// `rank_of[v]` is the rank position of original vertex `v` (0 = highest);
/// `vertex_at[r]` is the original vertex occupying rank `r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranking {
    rank_of: Vec<VertexId>,
    vertex_at: Vec<VertexId>,
}

impl Ranking {
    /// Build from an explicit `vertex_at` permutation.
    pub fn from_order(vertex_at: Vec<VertexId>) -> Ranking {
        let mut rank_of = vec![0 as VertexId; vertex_at.len()];
        for (r, &v) in vertex_at.iter().enumerate() {
            rank_of[v as usize] = r as VertexId;
        }
        Ranking { rank_of, vertex_at }
    }

    /// The identity ranking on `n` vertices.
    pub fn identity(n: usize) -> Ranking {
        Ranking::from_order((0..n as VertexId).collect())
    }

    /// Rank position of original vertex `v` (0 = highest rank).
    #[inline]
    pub fn rank_of(&self, v: VertexId) -> VertexId {
        self.rank_of[v as usize]
    }

    /// Original vertex occupying rank position `r`.
    #[inline]
    pub fn vertex_at(&self, r: VertexId) -> VertexId {
        self.vertex_at[r as usize]
    }

    /// Number of ranked vertices.
    pub fn len(&self) -> usize {
        self.vertex_at.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.vertex_at.is_empty()
    }

    /// Serialize as a `HOPRANK1` sidecar image: the magic followed by
    /// the `vertex_at` permutation as little-endian `u32`s. This is the
    /// `.rank` file `hopdb-cli build` writes next to every index.
    pub fn to_sidecar_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(8 + 4 * self.vertex_at.len());
        bytes.extend_from_slice(RANK_SIDECAR_MAGIC);
        for &v in &self.vertex_at {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    /// Parse a `HOPRANK1` sidecar image, validating magic, that the
    /// order is a true permutation, and that it covers exactly `n`
    /// vertices — a sidecar that silently mistranslates ids would
    /// corrupt every answer served through it.
    pub fn from_sidecar_bytes(bytes: &[u8], n: usize) -> Result<Ranking, String> {
        let body = match bytes.strip_prefix(RANK_SIDECAR_MAGIC) {
            Some(body) if body.len().is_multiple_of(4) => body,
            _ => return Err("not a HOPRANK1 ranking sidecar".to_string()),
        };
        if body.len() / 4 != n {
            return Err(format!(
                "ranking sidecar covers {} vertices, expected {n}",
                body.len() / 4
            ));
        }
        let order: Vec<VertexId> = body
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let mut seen = vec![false; n];
        for &v in &order {
            if (v as usize) >= n || std::mem::replace(&mut seen[v as usize], true) {
                return Err(format!("ranking sidecar is not a permutation (vertex {v})"));
            }
        }
        Ok(Ranking::from_order(order))
    }
}

/// Magic prefix of the serialized `.rank` sidecar format.
pub const RANK_SIDECAR_MAGIC: &[u8; 8] = b"HOPRANK1";

/// Compute a ranking of `g`'s vertices.
pub fn rank_vertices(g: &Graph, by: &RankBy) -> Ranking {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    match by {
        RankBy::Degree => {
            order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        }
        RankBy::DegreeProduct => {
            order.sort_by_key(|&v| {
                let prod = g.in_degree(v) as u64 * g.out_degree(v) as u64;
                (std::cmp::Reverse(prod), std::cmp::Reverse(g.degree(v)), v)
            });
        }
        RankBy::Score(scores) => {
            assert_eq!(scores.len(), n, "score vector must cover every vertex");
            order.sort_by_key(|&v| (std::cmp::Reverse(scores[v as usize]), v));
        }
        RankBy::Random(seed) => {
            // Fisher–Yates with a splitmix64 stream; no external dependency.
            let mut state = *seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..n).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
    }
    Ranking::from_order(order)
}

/// Relabel `g` so that the new id of each vertex is its rank position.
///
/// Returns the relabeled graph. In the result, `r(u) > r(v)` ⇔ `u < v`,
/// which is the invariant all engines in `hopdb` rely on. Use the
/// [`Ranking`] to translate ids back to the original graph.
pub fn relabel_by_rank(g: &Graph, ranking: &Ranking) -> Graph {
    assert_eq!(ranking.len(), g.num_vertices());
    let n = g.num_vertices();
    let mut b = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    if g.is_weighted() {
        b = b.weighted();
    }
    for (u, v, w) in g.edge_list() {
        b.add_weighted_edge(ranking.rank_of(u), ranking.rank_of(v), w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    /// Star graph: centre 4 with leaves 0..4 (centre deliberately not id 0).
    fn star() -> Graph {
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 0..4 {
            b.add_edge(4, leaf);
        }
        b.build()
    }

    #[test]
    fn degree_ranking_puts_hub_first() {
        let g = star();
        let r = rank_vertices(&g, &RankBy::Degree);
        assert_eq!(r.vertex_at(0), 4, "the hub has the highest rank");
        assert_eq!(r.rank_of(4), 0);
        // Leaves keep id order among themselves (deterministic ties).
        assert_eq!(r.vertex_at(1), 0);
        assert_eq!(r.vertex_at(4), 3);
    }

    #[test]
    fn relabel_moves_hub_to_id_zero() {
        let g = star();
        let r = rank_vertices(&g, &RankBy::Degree);
        let h = relabel_by_rank(&g, &r);
        assert_eq!(h.degree(0), 4);
        assert_eq!(h.neighbors(0, Direction::Out), &[1, 2, 3, 4]);
        for leaf in 1..5 {
            assert_eq!(h.neighbors(leaf, Direction::Out), &[0]);
        }
    }

    #[test]
    fn degree_product_ranking_directed() {
        // 0 has out-degree 2, in-degree 0 (product 0);
        // 1 has in 1 / out 1 (product 1) => vertex 1 outranks vertex 0.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let r = rank_vertices(&g, &RankBy::DegreeProduct);
        assert_eq!(r.vertex_at(0), 1);
        assert!(r.rank_of(1) < r.rank_of(0));
    }

    #[test]
    fn score_ranking_follows_scores() {
        let g = star();
        let r = rank_vertices(&g, &RankBy::Score(vec![10, 50, 20, 40, 30]));
        assert_eq!(r.vertex_at(0), 1);
        assert_eq!(r.vertex_at(4), 0);
    }

    #[test]
    fn random_ranking_is_a_permutation_and_seed_stable() {
        let g = star();
        let a = rank_vertices(&g, &RankBy::Random(7));
        let b = rank_vertices(&g, &RankBy::Random(7));
        let c = rank_vertices(&g, &RankBy::Random(8));
        assert_eq!(a, b);
        let mut seen: Vec<_> = (0..5).map(|r| a.vertex_at(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Different seeds should (for this size) differ.
        assert!((0..5).any(|r| a.vertex_at(r) != c.vertex_at(r)));
    }

    #[test]
    fn sidecar_round_trips() {
        for order in [vec![], vec![0], vec![2, 0, 3, 1]] {
            let r = Ranking::from_order(order.clone());
            let bytes = r.to_sidecar_bytes();
            assert_eq!(bytes.len(), 8 + 4 * order.len());
            assert_eq!(Ranking::from_sidecar_bytes(&bytes, order.len()).unwrap(), r);
        }
    }

    #[test]
    fn sidecar_refuses_what_is_not_a_ranking_of_n_vertices() {
        let good = Ranking::from_order(vec![2, 0, 3, 1]).to_sidecar_bytes();
        let refuse = |bytes: &[u8], n: usize, why: &str| {
            let err = Ranking::from_sidecar_bytes(bytes, n).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        let mut magic = good.clone();
        magic[7] = b'2';
        refuse(&magic, 4, "not a HOPRANK1");
        refuse(b"NOTRANK!", 0, "not a HOPRANK1");
        let mut ragged = good.clone();
        ragged.push(0);
        refuse(&ragged, 4, "not a HOPRANK1");
        refuse(&good, 3, "covers 4 vertices, expected 3");
        refuse(&good, 5, "covers 4 vertices, expected 5");
        let mut repeated = good.clone();
        repeated[12..16].copy_from_slice(&2u32.to_le_bytes());
        refuse(&repeated, 4, "not a permutation (vertex 2)");
        let mut outside = good.clone();
        outside[20..24].copy_from_slice(&4u32.to_le_bytes());
        refuse(&outside, 4, "not a permutation (vertex 4)");
        for len in 0..good.len() {
            assert!(Ranking::from_sidecar_bytes(&good[..len], 4).is_err(), "cut at {len}");
        }
    }

    #[test]
    fn relabel_preserves_distances() {
        use crate::traversal::bfs;
        let g = star();
        let r = rank_vertices(&g, &RankBy::Degree);
        let h = relabel_by_rank(&g, &r);
        let dg = bfs(&g, 0, Direction::Out);
        let dh = bfs(&h, r.rank_of(0), Direction::Out);
        for v in 0..5u32 {
            assert_eq!(dg[v as usize], dh[r.rank_of(v) as usize]);
        }
    }
}
