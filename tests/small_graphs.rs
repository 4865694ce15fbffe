//! Every small graph, exhaustively. The derived periphery (vertices of
//! one or two neighbours, eliminated before the engine runs) is all
//! corner cases — two-vertex components, chains, 4- and 5-cycles, sinks
//! and sources, shortcuts an arc beats — which random graphs rarely
//! draw. So this enumerates instead: every *labelled* graph of a size,
//! not one per isomorphism class, because the rank's id tie-break is
//! part of what is tested.
//!
//! A graph is its edge mask: bit `i` stands for the `i`-th vertex pair
//! of [`slots`], so the masks count up through the graphs of a size and
//! the first failure printed is the smallest. For each graph, ranked as
//! every build ranks it:
//!
//! * the default build answers every pair as BFS does, and its cover is
//!   minimal (`hoplabels::verify::is_minimal`);
//! * stepping, doubling, the default and — where the sweep takes it —
//!   the external build at a budget that spills write one `HOPIDX`
//!   image;
//! * the unpruned fixpoint (`engine::build_unpruned`) answers exactly.
//!
//! `cargo test` sweeps every undirected graph on up to 5 vertices and
//! every directed graph on up to 3 with both engines, and every directed
//! graph on 4 in memory. The larger sweeps are `#[ignore]`d here and run
//! in release by CI: `cargo test --release --test small_graphs --
//! --ignored`.

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::hopdb::engine::build_unpruned;
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, rank, HopDbConfig, Strategy};
use hop_doubling::hoplabels::verify::{check_exact, is_minimal};
use hop_doubling::hoplabels::LabelIndex;
use hop_doubling::sfgraph::{Graph, GraphBuilder, VertexId};

/// The vertex pairs of `n` vertices an edge mask's bits stand for, bit 0
/// first: each `u < v` once on an undirected graph, each `u ≠ v` in
/// either order on a directed one.
fn slots(n: u32, directed: bool) -> Vec<(VertexId, VertexId)> {
    let pairs = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
    pairs.filter(|&(u, v)| if directed { u != v } else { u < v }).collect()
}

/// The graph of `mask` over `slots`.
fn graph(n: u32, directed: bool, slots: &[(VertexId, VertexId)], mask: u32) -> Graph {
    let mut b = if directed {
        GraphBuilder::new_directed(n as usize)
    } else {
        GraphBuilder::new_undirected(n as usize)
    };
    for (i, &(u, v)) in slots.iter().enumerate() {
        if mask >> i & 1 == 1 {
            b.add_edge(u, v);
        }
    }
    b.build()
}

fn image(index: &LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).expect("an image writes into memory");
    bytes
}

/// Every check of the module docs on every graph of `n` vertices, the
/// external build among the images if `external`.
fn sweep(n: u32, directed: bool, external: bool) {
    let slots = slots(n, directed);
    let default = HopDbConfig::default();
    let ext = ExtMemConfig::tiny();
    for mask in 0..1u32 << slots.len() {
        let at = format!("n = {n}, directed = {directed}, edge mask {mask:#b}");
        let (_, g) = rank(&graph(n, directed, &slots, mask), &default);
        let (index, _) = build_prelabeled(&g, &default);
        let wrong = check_exact(&g, &index);
        assert!(wrong.is_none(), "{at}: the default build answers (s, t, got, want) {wrong:?}");
        assert!(is_minimal(&g, &index), "{at}: the default build's cover is not minimal");
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
    }
}

#[test]
fn every_undirected_graph_on_up_to_5_vertices() {
    for n in 1..=5 {
        sweep(n, false, true);
    }
}

#[test]
fn every_directed_graph_on_up_to_3_vertices() {
    for n in 1..=3 {
        sweep(n, true, true);
    }
}

#[test]
fn every_directed_graph_on_4_vertices_in_memory() {
    sweep(4, true, false);
}

#[test]
#[ignore = "32 768 graphs: CI runs it in release"]
fn every_undirected_graph_on_6_vertices() {
    sweep(6, false, true);
}

#[test]
#[ignore = "4 096 external builds: CI runs it in release"]
fn every_directed_graph_on_4_vertices() {
    sweep(4, true, true);
}
