//! Bit-parallel labels (§6) on HopDb-built indexes, plus the coverage
//! statistics that back Table 7 and Figure 8.

use hop_doubling::baselines::bitparallel::BitParallelIndex;
use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hoplabels::stats::CoverageStats;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::bidirectional_distance;
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId};
use rand::{Rng, SeedableRng};

fn ranked(g: &Graph) -> Graph {
    let ranking = rank_vertices(g, &RankBy::Degree);
    relabel_by_rank(g, &ranking)
}

#[test]
fn bit_parallel_exact_on_hopdb_indexes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    for _ in 0..8 {
        let n = rng.gen_range(5..40);
        let mut b = GraphBuilder::new_undirected(n);
        for _ in 0..rng.gen_range(n..4 * n) {
            b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
        }
        let g = ranked(&b.build());
        let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
        for roots in [1, 4, 50] {
            let bp = BitParallelIndex::build(&g, &index, roots);
            for s in 0..n as VertexId {
                for t in 0..n as VertexId {
                    assert_eq!(bp.query(s, t), index.query(s, t), "{s}->{t} roots={roots}");
                }
            }
        }
    }
}

#[test]
fn bit_parallel_shrinks_normal_labels_on_scale_free() {
    let g = ranked(&glp(&GlpParams::with_vertices(800, 13)));
    let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
    let bp = BitParallelIndex::build(&g, &index, 50);
    assert!(
        bp.total_normal_entries() < index.total_entries(),
        "transformation moved no entries: {} vs {}",
        bp.total_normal_entries(),
        index.total_entries()
    );
    // Sampled equality against bidirectional BFS on the same graph.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for _ in 0..800 {
        let s = rng.gen_range(0..g.num_vertices()) as VertexId;
        let t = rng.gen_range(0..g.num_vertices()) as VertexId;
        assert_eq!(bp.query(s, t), bidirectional_distance(&g, s, t));
    }
}

#[test]
fn coverage_stats_show_small_hitting_sets_on_glp() {
    // Table 7's phenomenon: a tiny fraction of top vertices covers 90%
    // of all label entries on scale-free graphs.
    let g = ranked(&glp(&GlpParams::with_vertices(2_000, 77)));
    let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
    let cov = CoverageStats::from_index(&index);
    let pct90 = cov.percent_vertices_for_coverage(0.9);
    assert!(pct90 < 10.0, "90% coverage needed {pct90:.2}% of vertices — not scale-free-like");
    // The curve is monotone and reaches 100%.
    let curve = cov.coverage_curve(1.0, 20);
    assert!(curve.last().unwrap().1 > 99.0);
}

#[test]
fn avg_label_size_stays_small_on_glp() {
    // Fig. 9's flat avg-label curve, in miniature: label size per
    // vertex must stay orders of magnitude below |V|.
    for (n, seed) in [(500usize, 1u64), (1_000, 2), (2_000, 3)] {
        let g = ranked(&glp(&GlpParams::with_vertices(n, seed)));
        let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
        let avg = index.avg_label_size();
        assert!(avg < 60.0, "avg label {avg} too large for |V| = {n}");
    }
}
