//! Strategy-equivalence and external-engine integration tests:
//!
//! * all strategies answer identically, and write one image: every
//!   pruned build ends in the canonical filter (§5.2's exhaustive
//!   pruning), so the labels do not depend on the strategy;
//! * the external §4 build is bit-identical to the in-memory build;
//! * disk-serialized indexes answer like in-memory ones;
//! * iteration counts respect Theorems 4 and 6.

use hop_doubling::extmem::device::TempStore;
use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig, Strategy};
use hop_doubling::hoplabels::disk::DiskIndex;
use hop_doubling::sfgraph::analysis::hop_diameter;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId};
use rand::{Rng, SeedableRng};

fn ranked_random(rng: &mut rand::rngs::StdRng, directed: bool) -> Graph {
    let n = rng.gen_range(4..30);
    let mut b =
        if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    for _ in 0..rng.gen_range(n..4 * n) {
        b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
    }
    let g = b.build();
    let ranking = rank_vertices(&g, &RankBy::Degree);
    relabel_by_rank(&g, &ranking)
}

#[test]
fn strategies_answer_identically() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for _ in 0..10 {
        let directed = rng.gen_bool(0.5);
        let g = ranked_random(&mut rng, directed);
        let configs = [
            HopDbConfig::with_strategy(Strategy::Doubling),
            HopDbConfig::with_strategy(Strategy::Stepping),
            HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 3 }),
            HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 10 }),
        ];
        let indexes: Vec<_> = configs.iter().map(|c| build_prelabeled(&g, c).0).collect();
        let n = g.num_vertices() as VertexId;
        for s in 0..n {
            for t in 0..n {
                let d0 = indexes[0].query(s, t);
                for idx in &indexes[1..] {
                    assert_eq!(idx.query(s, t), d0, "{s}->{t}");
                }
            }
        }
    }
}

#[test]
fn post_pruned_sizes_coincide_across_strategies() {
    // §5.2: Hop-Doubling with exhaustive pruning reaches Hop-Stepping's
    // label size. Every default build is exhaustively pruned, so the
    // three strategies write one canonical image, byte for byte.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for case in 0..8 {
        let g = ranked_random(&mut rng, case % 2 == 1);
        let images: Vec<Vec<u8>> =
            [Strategy::Doubling, Strategy::Stepping, Strategy::Hybrid { switch_at: 4 }]
                .into_iter()
                .map(|s| {
                    let (idx, _) = build_prelabeled(&g, &HopDbConfig::with_strategy(s));
                    let mut bytes = Vec::new();
                    idx.write_hopidx(&mut bytes).expect("serialize");
                    bytes
                })
                .collect();
        assert!(images.windows(2).all(|w| w[0] == w[1]), "case {case}: the images differ");
    }
}

#[test]
fn external_build_matches_memory_on_glp() {
    let raw = glp(&GlpParams::with_vertices(400, 17));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    let cfg = HopDbConfig::default();
    let (mem, _) = build_prelabeled(&g, &cfg);
    let ext = ExtMemConfig { memory_records: 512, block_bytes: 1024 };
    let result = build_external(&g, &cfg, &ext).expect("external build");
    assert_eq!(result.index, mem);
    let (read_bytes, write_bytes, _, _) = result.io;
    assert!(read_bytes > 0 && write_bytes > 0, "build must touch the disk");
}

#[test]
fn disk_index_round_trips_queries() {
    let raw = glp(&GlpParams::with_vertices(300, 3));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
    let store = TempStore::new().unwrap();
    let mut disk = DiskIndex::create(&index, &store, "it").unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    for _ in 0..500 {
        let s = rng.gen_range(0..g.num_vertices()) as VertexId;
        let t = rng.gen_range(0..g.num_vertices()) as VertexId;
        assert_eq!(disk.query(s, t).unwrap(), index.query(s, t));
    }
}

#[test]
fn iteration_bounds_hold_on_scale_free_graphs() {
    // Theorem 6: stepping ≤ D_H (+1 to detect the fixpoint);
    // Theorem 4: doubling ≤ 2⌈log D_H⌉ (+1).
    let raw = glp(&GlpParams::with_vertices(800, 21));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    let dh = hop_diameter(&g, 8, 1000).max(2);

    let (_, step) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
    assert!(
        step.num_iterations() <= dh + 1,
        "stepping {} iterations > D_H {} + 1",
        step.num_iterations(),
        dh
    );

    let (_, dbl) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
    let bound = 2 * (dh as f64).log2().ceil() as u32 + 1;
    assert!(
        dbl.num_iterations() <= bound,
        "doubling {} iterations > bound {}",
        dbl.num_iterations(),
        bound
    );
}

#[test]
fn hybrid_reduces_iterations_on_long_diameter_graphs() {
    // Table 8's headline: on large-diameter graphs, hybrid needs far
    // fewer iterations than pure stepping.
    let g = {
        let raw = hop_doubling::graphgen::grid(6, 40); // diameter 44
        let ranking = rank_vertices(&raw, &RankBy::Degree);
        relabel_by_rank(&raw, &ranking)
    };
    let (_, step) = build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
    let (_, hybrid) =
        build_prelabeled(&g, &HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 10 }));
    assert!(
        hybrid.num_iterations() < step.num_iterations(),
        "hybrid {} !< stepping {}",
        hybrid.num_iterations(),
        step.num_iterations()
    );
}
