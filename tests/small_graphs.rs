//! Every small graph, exhaustively. The derived periphery (vertices of
//! one or two neighbours, eliminated before the engine runs) is all
//! corner cases — two-vertex components, chains, 4- and 5-cycles, sinks
//! and sources, shortcuts an arc beats — which random graphs rarely
//! draw. So this enumerates instead: every *labelled* graph of a size,
//! not one per isomorphism class, because the rank's id tie-break is
//! part of what is tested.
//!
//! A graph is its code over a weight alphabet of `k` letters: digit `i`
//! in base `k + 1` stands for the `i`-th vertex pair of [`slots`], 0 for
//! no edge and `j` for an edge of the alphabet's `j`-th weight. Over the
//! alphabet `{1}` the code is the edge mask. The codes count up through
//! the graphs of a size and the first failure printed is the smallest.
//! For each graph, ranked as every build ranks it:
//!
//! * every in-memory reader of the default build — the nested and flat
//!   indexes, a 2-shard cut min-merged and, unweighted and undirected,
//!   the bit-parallel one — answers every pair as BFS (Dijkstra, when
//!   weighted) does, and its cover is minimal
//!   (`hoplabels::verify::is_minimal`);
//! * the default build is PLL's canonical labelling under the same order,
//!   slot for slot, on the core, each derived vertex a record;
//! * stepping, doubling, the default and — where the sweep takes it —
//!   the external build at a budget that spills write one `HOPIDX`
//!   image;
//! * the unpruned fixpoint (`engine::build_unpruned`) answers exactly;
//! * on undirected graphs of up to 4 vertices and directed ones of up to
//!   3, a [`LiveIndex`] over the default build's flat index, with any one
//!   missing edge in its overlay at weight 1 (and at 2 over a weighted
//!   alphabet), answers every pair as BFS/Dijkstra on the graph plus that
//!   edge does.
//!
//! `cargo test` sweeps every undirected graph on up to 5 vertices and
//! every directed graph on up to 3 with both engines, and every directed
//! graph on 4 in memory, and every undirected graph on 4 with weights in
//! `{1, 2, 3}` with both engines. The larger sweeps are `#[ignore]`d here
//! and run in release by CI: `cargo test --release --test small_graphs
//! -- --ignored`.

mod labelkit;

use std::sync::Arc;

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::hopdb::engine::build_unpruned;
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, rank, HopDbConfig, Strategy};
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::hoplabels::verify::{check_exact, is_minimal};
use hop_doubling::hoplabels::{LabelIndex, LiveIndex, QueryBackend};
use hop_doubling::sfgraph::{Dist, Graph};
use labelkit::{assert_canonical, assert_readers, image, pairs_from, truth, Pair};

/// The vertex pairs of `n` vertices a code's digits stand for, digit 0
/// first: each `u < v` once on an undirected graph, each `u ≠ v` in
/// either order on a directed one.
fn slots(n: u32, directed: bool) -> Vec<Pair> {
    let pairs = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
    pairs.filter(|&(u, v)| if directed { u != v } else { u < v }).collect()
}

/// The graph of `code` over `slots` and the alphabet `weights`; weighted
/// unless the alphabet is `{1}`.
fn graph(n: u32, directed: bool, slots: &[Pair], weights: &[Dist], code: u32) -> Graph {
    let letters = weights.len() as u32 + 1;
    let letter = |i: usize| (code / letters.pow(i as u32) % letters) as usize;
    let weight = |i: usize| weights.get(letter(i).checked_sub(1)?).copied();
    let arcs = slots.iter().enumerate().filter_map(|(i, &(u, v))| Some((u, v, weight(i)?)));
    labelkit::graph(directed, n as usize, weights != [1], arcs)
}

/// A [`LiveIndex`] over `index`, the default build of `g`, with one
/// overlay edge at a time: each slot where `g` has no edge, at each of
/// `weights`. Every pair must answer as on `g` plus that edge.
fn assert_overlay(g: &Graph, index: &LabelIndex, slots: &[Pair], weights: &[Dist], at: &str) {
    let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(index));
    let pairs = pairs_from(g, 1);
    let missing = slots.iter().filter(|&&(u, v)| !g.has_edge(u, v));
    for (u, v, w) in missing.flat_map(|&(u, v)| weights.iter().map(move |&w| (u, v, w))) {
        let live =
            LiveIndex::new(frozen.clone(), 1).rebuild_overlay(&[(u, v, w)]).expect("overlay");
        let got: Vec<Dist> =
            pairs.iter().map(|&(s, t)| live.query(s, t).expect("live query")).collect();
        let arcs = g.edge_list().into_iter().chain([(u, v, w)]);
        let want = truth(&labelkit::graph(g.is_directed(), g.num_vertices(), true, arcs), &pairs);
        assert_eq!(got, want, "{at}: overlay edge {:?}", (u, v, w));
    }
}

/// Every check of the module docs on every graph of `n` vertices with
/// edge weights from `weights`, the external build among the images if
/// `external`.
fn sweep(n: u32, directed: bool, weights: &[Dist], external: bool) {
    let slots = slots(n, directed);
    let default = HopDbConfig::default();
    let ext = ExtMemConfig::tiny();
    let graphs = (weights.len() as u32 + 1).pow(slots.len() as u32);
    let overlay = n <= if directed { 3 } else { 4 };
    for code in 0..graphs {
        let at = format!("n = {n}, directed = {directed}, weights {weights:?}, code {code}");
        let (_, g) = rank(&graph(n, directed, &slots, weights, code), &default);
        let (index, _) = build_prelabeled(&g, &default);
        assert_readers(&g, &index, &at);
        assert!(is_minimal(&g, &index), "{at}: the default build's cover is not minimal");
        assert_canonical(&g, &index, &at);
        let expect = image(&index);
        for strategy in [Strategy::Stepping, Strategy::Doubling] {
            let (other, _) = build_prelabeled(&g, &HopDbConfig::with_strategy(strategy.clone()));
            assert!(image(&other) == expect, "{at}: {strategy:?} wrote another image");
        }
        if external {
            let built = build_external(&g, &default, &ext).expect("external build");
            assert!(image(&built.index) == expect, "{at}: the external build wrote another image");
        }
        let wrong = check_exact(&g, &build_unpruned(&g, &default).0);
        assert!(wrong.is_none(), "{at}: the unpruned fixpoint answers {wrong:?}");
        if overlay {
            assert_overlay(&g, &index, &slots, &weights[..weights.len().min(2)], &at);
        }
    }
}

#[test]
fn every_undirected_graph_on_up_to_5_vertices() {
    for n in 1..=5 {
        sweep(n, false, &[1], true);
    }
}

#[test]
fn every_directed_graph_on_up_to_3_vertices() {
    for n in 1..=3 {
        sweep(n, true, &[1], true);
    }
}

#[test]
fn every_directed_graph_on_4_vertices_in_memory() {
    sweep(4, true, &[1], false);
}

#[test]
fn every_undirected_graph_on_4_vertices_with_weights_1_to_3() {
    sweep(4, false, &[1, 2, 3], true);
}

#[test]
#[ignore = "32 768 graphs: CI runs it in release"]
fn every_undirected_graph_on_6_vertices() {
    sweep(6, false, &[1], true);
}

#[test]
#[ignore = "4 096 external builds: CI runs it in release"]
fn every_directed_graph_on_4_vertices() {
    sweep(4, true, &[1], true);
}
