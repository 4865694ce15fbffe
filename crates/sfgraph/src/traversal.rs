//! Shortest-path primitives: BFS, Dijkstra, and bidirectional variants.
//!
//! These serve three roles: ground truth for tests, the `BIDIJ` baseline of
//! Table 6, and building blocks inside the PLL / IS-Label / highway-cover
//! baselines.

use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::graph::{Direction, Graph};
use crate::{Dist, VertexId, INF_DIST};

/// Single-source BFS distances over unit edge lengths.
///
/// Edge weights are ignored; every edge counts as one hop. Unreached
/// vertices get [`INF_DIST`].
pub fn bfs(g: &Graph, src: VertexId, dir: Direction) -> Vec<Dist> {
    let mut dist = vec![INF_DIST; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in g.neighbors(v, dir) {
            if dist[u as usize] == INF_DIST {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Single-source Dijkstra distances honouring edge weights.
pub fn dijkstra(g: &Graph, src: VertexId, dir: Direction) -> Vec<Dist> {
    let mut dist = vec![INF_DIST; g.num_vertices()];
    let mut heap: BinaryHeap<std::cmp::Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in g.edges(v, dir) {
            let nd = d.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Single-source shortest-path distances: BFS when unweighted, Dijkstra
/// when weighted.
pub fn sssp(g: &Graph, src: VertexId, dir: Direction) -> Vec<Dist> {
    if g.is_weighted() {
        dijkstra(g, src, dir)
    } else {
        bfs(g, src, dir)
    }
}

/// Bidirectional BFS for unweighted graphs: the least of `bound` and
/// the length of the shortest `s ⇝ t` path whose inner vertices all
/// pass `expand`.
///
/// Alternates expanding whole frontiers from `s` (forward) and `t`
/// (backward), always growing the smaller frontier, and stops once the
/// sum of the two search radii can no longer improve the best meeting
/// distance found so far. A vertex `expand` refuses is still reached,
/// and a meeting there counts, but its edges are not followed.
pub fn bidirectional_bfs(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    bound: Dist,
    expand: impl Fn(VertexId) -> bool,
) -> Dist {
    if s == t {
        return 0;
    }
    let n = g.num_vertices();
    let mut dist_f = vec![INF_DIST; n];
    let mut dist_b = vec![INF_DIST; n];
    dist_f[s as usize] = 0;
    dist_b[t as usize] = 0;
    let mut frontier_f = vec![s];
    let mut frontier_b = vec![t];
    let mut radius_f = 0;
    let mut radius_b = 0;
    let mut best = bound;

    while !frontier_f.is_empty() && !frontier_b.is_empty() {
        if best <= radius_f + radius_b {
            break;
        }
        // Expand the smaller frontier for fewer edge scans.
        let forward = frontier_f.len() <= frontier_b.len();
        let (frontier, dist_mine, dist_other, dir, radius) = if forward {
            (&mut frontier_f, &mut dist_f, &dist_b, Direction::Out, &mut radius_f)
        } else {
            (&mut frontier_b, &mut dist_b, &dist_f, Direction::In, &mut radius_b)
        };
        let mut next = Vec::new();
        for &v in frontier.iter().filter(|&&v| expand(v)) {
            let d = dist_mine[v as usize];
            for &u in g.neighbors(v, dir) {
                if dist_mine[u as usize] == INF_DIST {
                    dist_mine[u as usize] = d + 1;
                    if dist_other[u as usize] != INF_DIST {
                        best = best.min(d + 1 + dist_other[u as usize]);
                    }
                    next.push(u);
                }
            }
        }
        *frontier = next;
        *radius += 1;
    }
    best
}

/// Bidirectional Dijkstra for weighted graphs, with
/// [`bidirectional_bfs`]'s `bound` and `expand`.
///
/// Expands the side with the smaller tentative minimum; terminates when
/// `top_f + top_b ≥ best`, the classic stopping criterion.
pub fn bidirectional_dijkstra(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    bound: Dist,
    expand: impl Fn(VertexId) -> bool,
) -> Dist {
    if s == t {
        return 0;
    }
    let n = g.num_vertices();
    let mut dist = [vec![INF_DIST; n], vec![INF_DIST; n]];
    let mut heaps: [BinaryHeap<std::cmp::Reverse<(Dist, VertexId)>>; 2] =
        [BinaryHeap::new(), BinaryHeap::new()];
    dist[0][s as usize] = 0;
    dist[1][t as usize] = 0;
    heaps[0].push(std::cmp::Reverse((0, s)));
    heaps[1].push(std::cmp::Reverse((0, t)));
    let dirs = [Direction::Out, Direction::In];
    let mut best = bound;

    loop {
        let top_f = heaps[0].peek().map(|r| r.0 .0);
        let top_b = heaps[1].peek().map(|r| r.0 .0);
        let (side, top) = match (top_f, top_b) {
            (None, None) => break,
            (Some(f), None) => (0, f),
            (None, Some(b)) => (1, b),
            (Some(f), Some(b)) => {
                if f <= b {
                    (0, f)
                } else {
                    (1, b)
                }
            }
        };
        let other_top = heaps[1 - side].peek().map_or(INF_DIST, |r| r.0 .0);
        if best != INF_DIST && top.saturating_add(other_top) >= best {
            break;
        }
        let std::cmp::Reverse((d, v)) = heaps[side].pop().unwrap();
        if d > dist[side][v as usize] {
            continue;
        }
        if dist[1 - side][v as usize] != INF_DIST {
            best = best.min(d.saturating_add(dist[1 - side][v as usize]));
        }
        if !expand(v) {
            continue;
        }
        for (u, w) in g.edges(v, dirs[side]) {
            let nd = d.saturating_add(w);
            if nd < dist[side][u as usize] {
                dist[side][u as usize] = nd;
                heaps[side].push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    best
}

/// [`bidirectional_bfs`] on an unweighted graph, [`bidirectional_dijkstra`]
/// otherwise.
pub fn bidirectional_bounded(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    bound: Dist,
    expand: impl Fn(VertexId) -> bool,
) -> Dist {
    if g.is_weighted() {
        bidirectional_dijkstra(g, s, t, bound, expand)
    } else {
        bidirectional_bfs(g, s, t, bound, expand)
    }
}

/// Point-to-point distance by bidirectional search: BFS on unweighted
/// graphs, Dijkstra otherwise, unbounded and through every vertex. This
/// is the paper's `BIDIJ` baseline.
pub fn bidirectional_distance(g: &Graph, s: VertexId, t: VertexId) -> Dist {
    bidirectional_bounded(g, s, t, INF_DIST, |_| true)
}

/// Full pairwise distance matrix via repeated SSSP; `n × n` memory —
/// ground truth for small test graphs only.
pub fn all_pairs(g: &Graph) -> Vec<Vec<Dist>> {
    g.vertices().map(|v| sssp(g, v, Direction::Out)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new_undirected(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, i as VertexId + 1);
        }
        b.build()
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs(&g, 0, Direction::Out);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_directed() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        let g = b.build();
        let d = bfs(&g, 0, Direction::Out);
        assert_eq!(d, vec![0, 1, INF_DIST]);
        let dr = bfs(&g, 1, Direction::In);
        assert_eq!(dr, vec![1, 0, INF_DIST]);
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0 -2-> 1 -2-> 2 is cheaper than the direct 0 -9-> 2.
        let mut b = GraphBuilder::new_directed(3).weighted();
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(1, 2, 2);
        b.add_weighted_edge(0, 2, 9);
        let g = b.build();
        assert_eq!(dijkstra(&g, 0, Direction::Out), vec![0, 2, 4]);
    }

    #[test]
    fn bidirectional_bfs_matches_bfs_on_path() {
        let g = path_graph(9);
        for s in 0..9u32 {
            for t in 0..9u32 {
                assert_eq!(
                    bidirectional_bfs(&g, s, t, INF_DIST, |_| true),
                    s.abs_diff(t),
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_respects_direction() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(bidirectional_bfs(&g, 0, 2, INF_DIST, |_| true), 2);
        assert_eq!(bidirectional_bfs(&g, 2, 0, INF_DIST, |_| true), INF_DIST);
    }

    #[test]
    fn bidirectional_dijkstra_matches_dijkstra_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(2..30);
            let mut b = GraphBuilder::new_directed(n).weighted();
            for _ in 0..(n * 3) {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                b.add_weighted_edge(u, v, rng.gen_range(1..10));
            }
            let g = b.build();
            let s = rng.gen_range(0..n) as VertexId;
            let truth = dijkstra(&g, s, Direction::Out);
            for t in 0..n as VertexId {
                assert_eq!(
                    bidirectional_dijkstra(&g, s, t, INF_DIST, |_| true),
                    truth[t as usize],
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_bfs_matches_bfs_random_undirected() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.gen_range(2..40);
            let mut b = GraphBuilder::new_undirected(n);
            for _ in 0..(n * 2) {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                b.add_edge(u, v);
            }
            let g = b.build();
            let s = rng.gen_range(0..n) as VertexId;
            let truth = bfs(&g, s, Direction::Out);
            for t in 0..n as VertexId {
                assert_eq!(
                    bidirectional_bfs(&g, s, t, INF_DIST, |_| true),
                    truth[t as usize],
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn all_pairs_small() {
        let g = path_graph(4);
        let ap = all_pairs(&g);
        assert_eq!(ap[0][3], 3);
        assert_eq!(ap[3][0], 3);
        assert_eq!(ap[2][2], 0);
    }
}
