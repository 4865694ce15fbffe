//! Bit-parallel labels (§6) on HopDb-built indexes, plus the coverage
//! statistics that back Table 7 and Figure 8.

mod labelkit;

use hop_doubling::baselines::bitparallel::BitParallelIndex;
use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hoplabels::stats::CoverageStats;
use hop_doubling::sfgraph::ranking::RankBy;
use hop_doubling::sfgraph::VertexId;
use labelkit::{assert_readers, assert_readers_on, random_graph, ranked};
use rand::{Rng, SeedableRng};

#[test]
fn bit_parallel_exact_on_hopdb_indexes() {
    // `assert_readers` holds the §6 index at 1, 4 and 50 roots to BFS.
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    for case in 0..8 {
        let g = ranked(&random_graph(&mut rng, 5..40, false, None), &RankBy::Degree);
        let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
        assert_readers(&g, &index, &format!("case {case}"));
    }
}

#[test]
fn bit_parallel_shrinks_normal_labels_on_scale_free() {
    let g = ranked(&glp(&GlpParams::with_vertices(800, 13)), &RankBy::Degree);
    let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
    let bp = BitParallelIndex::build(&g, &index, 50);
    assert!(
        bp.total_normal_entries() < index.total_entries(),
        "transformation moved no entries: {} vs {}",
        bp.total_normal_entries(),
        index.total_entries()
    );
    // Sampled equality against BFS on the same graph, at 1, 4 and 50 roots.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut vertex = || rng.gen_range(0..g.num_vertices()) as VertexId;
    let pairs: Vec<_> = (0..800).map(|_| (vertex(), vertex())).collect();
    assert_readers_on(&g, &index, &pairs, "glp 800");
}

#[test]
fn coverage_stats_show_small_hitting_sets_on_glp() {
    // Table 7's phenomenon: a tiny fraction of top vertices covers 90%
    // of all label entries on scale-free graphs.
    let g = ranked(&glp(&GlpParams::with_vertices(2_000, 77)), &RankBy::Degree);
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
        let g = ranked(&glp(&GlpParams::with_vertices(n, seed)), &RankBy::Degree);
        let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
        let avg = index.avg_label_size();
        assert!(avg < 60.0, "avg label {avg} too large for |V| = {n}");
    }
}
