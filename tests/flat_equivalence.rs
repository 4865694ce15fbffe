//! Property: every query surface answers identically.
//!
//! On random GLP scale-free graphs (directed, undirected, and weighted
//! so that hub distances need more than one byte), the frozen
//! [`FlatIndex`], the nested [`LabelIndex`], the on-disk [`DiskIndex`],
//! and the BFS/Dijkstra ground truth must agree on every tested pair,
//! `FlatIndex::query_many` must return the same answers in input order
//! at every thread count, and the flat index must be the image's bytes
//! and nothing else.

use hop_doubling::extmem::device::TempStore;
use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hoplabels::disk::DiskIndex;
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::hoplabels::LabelIndex;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Graph, VertexId};
use proptest::prelude::*;

/// Strategy: a small random GLP graph, optionally oriented (directed).
fn glp_strategy(directed: bool) -> impl Strategy<Value = Graph> {
    (30usize..90, 1u64..5000, 20u64..45).prop_map(move |(n, seed, density_tenths)| {
        let und = glp(&GlpParams::with_density(n, density_tenths as f64 / 10.0, seed));
        if directed {
            orient_scale_free(&und, 0.25, seed)
        } else {
            und
        }
    })
}

/// Check every surface against BFS truth on all pairs of `g`; returns
/// the nested index it built.
fn check_equivalence(g: &Graph) -> LabelIndex {
    let ranking = rank_vertices(g, &RankBy::paper_default(g));
    let relabeled = relabel_by_rank(g, &ranking);
    let truth = all_pairs(&relabeled);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let flat = FlatIndex::from_index(&index);
    let store = TempStore::new().expect("temp store");
    let mut disk = DiskIndex::create(&index, &store, "flat-eq").expect("disk index");

    // Served in place: what is resident is the image the one writer
    // produces, and the per-label counts read off its bytes are the
    // nested index's.
    let mut image = Vec::new();
    index.write_hopidx(&mut image).expect("serialize");
    prop_assert_eq!(flat.resident_bytes(), image.len());
    prop_assert_eq!(flat.total_entries(), index.total_entries());

    let n = g.num_vertices() as VertexId;
    let mut pairs = Vec::with_capacity((n as usize) * (n as usize));
    for s in 0..n {
        prop_assert_eq!(flat.out_label_len(s), index.source_labels(s).len(), "out len {s}");
        prop_assert_eq!(flat.in_label_len(s), index.target_labels(s).len(), "in len {s}");
        for t in 0..n {
            let want = truth[s as usize][t as usize];
            prop_assert_eq!(index.query(s, t), want, "nested {s}->{t}");
            prop_assert_eq!(flat.query(s, t), want, "flat {s}->{t}");
            prop_assert_eq!(disk.query(s, t).expect("disk query"), want, "disk {s}->{t}");
            pairs.push((s, t));
        }
    }

    // The batched path must agree pair-for-pair, in input order, at
    // every thread count.
    let expect: Vec<u32> = pairs.iter().map(|&(s, t)| flat.query(s, t)).collect();
    for threads in [1usize, 2, 4, 8] {
        let got = flat.query_many(&pairs, threads);
        prop_assert_eq!(&got, &expect, "query_many at {threads} threads");
    }

    // And the flat index reloaded from the serialized on-disk image
    // must be the same structure queries are already served from.
    let path = disk.persist();
    let reloaded = FlatIndex::load(&path).expect("flat load");
    std::fs::remove_file(path).ok();
    prop_assert_eq!(reloaded, flat);
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_query_surfaces_agree_undirected(g in glp_strategy(false)) {
        check_equivalence(&g);
    }

    #[test]
    fn all_query_surfaces_agree_directed(g in glp_strategy(true)) {
        check_equivalence(&g);
    }

    #[test]
    fn all_query_surfaces_agree_weighted((g, seed) in (glp_strategy(false), 1u64..5000)) {
        // Weights of 200–400 put every hub distance but the self entry
        // past one byte, and a few past two hops past 255 × 2.
        let index = check_equivalence(&with_random_weights(&g, 200, 400, seed));
        let hub_max = index.sides()[0]
            .iter()
            .flat_map(|l| l.entries())
            .filter(|e| e.pivot < 64)
            .map(|e| e.dist)
            .max();
        prop_assert!(hub_max > Some(255), "the weighted case must leave the 1-byte width");
    }
}
