//! Deterministic topologies, including the paper's worked examples.
//!
//! [`road_graph_gr`], [`star_graph_gs`], and [`example_graph_fig3`] encode
//! the exact graphs of Figures 1–3 so the labeling engines can be tested
//! against the labelings printed in Tables 1–4 and Figure 5 of the paper.

use sfgraph::{Graph, GraphBuilder, VertexId};

/// The road graph `G_R` of Fig. 1 (undirected, 5 vertices).
///
/// Vertices `a..e` map to ids `0..5`. Edges: `a–b, b–c, a–d, a–e` —
/// reconstructed from the distances implied by the 2-hop covers in
/// Tables 1 and 3 (e.g. `dist(c,d) = 3` via `c–b–a–d`).
pub fn road_graph_gr() -> Graph {
    let mut b = GraphBuilder::new_undirected(5);
    b.add_edge(0, 1); // a – b
    b.add_edge(1, 2); // b – c
    b.add_edge(0, 3); // a – d
    b.add_edge(0, 4); // a – e
    b.build()
}

/// The star graph `G_S` of Fig. 2 (undirected, centre `a` = id 0 with
/// leaves `b..f` = ids 1..6).
pub fn star_graph_gs() -> Graph {
    star(6)
}

/// The 8-vertex directed example graph `G` of Fig. 3(a).
///
/// Vertex ids equal the paper's (already ranked by non-increasing degree:
/// id 0 is the top-degree vertex). The edge set is reconstructed from the
/// initialization entries of the labeling in Fig. 5 — each distance-1
/// label entry corresponds to one edge:
///
/// ```text
/// 0→1 1→0 2→0 2→3 2→6 0→6 3→1 3→7 4→0 4→1 4→5 5→3 7→2
/// ```
pub fn example_graph_fig3() -> Graph {
    let mut b = GraphBuilder::new_directed(8);
    for (u, v) in [
        (0, 1),
        (1, 0),
        (2, 0),
        (2, 3),
        (2, 6),
        (0, 6),
        (3, 1),
        (3, 7),
        (4, 0),
        (4, 1),
        (4, 5),
        (5, 3),
        (7, 2),
    ] {
        b.add_edge(u, v);
    }
    b.build()
}

/// Star: vertex 0 is the centre, vertices `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new_undirected(n);
    for leaf in 1..n {
        b.add_edge(0, leaf as VertexId);
    }
    b.build()
}

/// Simple path `0 – 1 – … – n-1`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new_undirected(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(i as VertexId, (i + 1) as VertexId);
    }
    b.build()
}

/// `rows × cols` grid — a road-network-like topology with no hubs and a
/// large diameter, the adversarial case for degree ranking (§7).
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new_undirected(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new_undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as VertexId, v as VertexId);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgraph::traversal::all_pairs;
    use sfgraph::Direction;

    #[test]
    fn gr_distances_match_table_1() {
        // Table 1's 2-hop cover implies these exact distances.
        let g = road_graph_gr();
        let d = all_pairs(&g);
        let (a, bb, c, dd, e) = (0usize, 1usize, 2usize, 3usize, 4usize);
        assert_eq!(d[a][bb], 1);
        assert_eq!(d[a][c], 2);
        assert_eq!(d[a][dd], 1);
        assert_eq!(d[a][e], 1);
        assert_eq!(d[bb][c], 1);
        assert_eq!(d[bb][dd], 2);
        assert_eq!(d[bb][e], 2);
        assert_eq!(d[c][e], 3);
        assert_eq!(d[dd][c], 3);
        assert_eq!(d[e][dd], 2);
    }

    #[test]
    fn gs_is_a_five_leaf_star() {
        let g = star_graph_gs();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.degree(0), 5);
        let d = all_pairs(&g);
        assert_eq!(d[1][2], 2);
        assert_eq!(d[0][3], 1);
    }

    #[test]
    fn fig3_graph_shape() {
        let g = example_graph_fig3();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 13);
        // Degrees must be non-increasing in id (the paper pre-ranked them).
        let degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        for w in degs.windows(2) {
            assert!(w[0] >= w[1], "ids must follow non-increasing degree: {degs:?}");
        }
        // Spot-check adjacency used by Example 1.
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(3, 1));
        assert!(g.has_edge(7, 2));
        assert_eq!(g.neighbors(6, Direction::Out), &[] as &[VertexId]);
        assert_eq!(g.neighbors(6, Direction::In), &[0, 2]);
    }

    #[test]
    fn fig3_distances_used_in_example_1() {
        let g = example_graph_fig3();
        let d = all_pairs(&g);
        assert_eq!(d[2][1], 2); // 2→0→1 (the pruned path 2→3→1 also has length 2)
        assert_eq!(d[4][2], 4); // 4→5→3→7→2
        assert_eq!(d[5][2], 3);
        assert_eq!(d[5][0], 3);
        assert_eq!(d[2][7], 2);
    }

    #[test]
    fn grid_diameter() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        let d = all_pairs(&g);
        assert_eq!(d[0][11], 5); // (0,0) -> (2,3): 2 + 3
    }

    #[test]
    fn complete_has_diameter_one() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        let d = all_pairs(&g);
        assert_eq!(d[2][4], 1);
    }
}
