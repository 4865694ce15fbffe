#![forbid(unsafe_code)]
//! Table 8 — Hop-Doubling vs Hop-Stepping vs Hybrid: indexing time and
//! iteration counts, plus two ablations:
//! `--sweep` varies the hybrid switch point, `--rankings` compares
//! vertex orderings (§7/§8).
//!
//! ```text
//! BENCH_SCALE=small cargo run --release -p bench --bin table8 [-- --sweep --rankings]
//! ```

use bench::{secs, suite, Scale};
use graphgen::grid;
use hopdb::{build_prelabeled, HopDbConfig, Strategy};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::Graph;

fn run(g: &Graph, strategy: Strategy) -> (f64, u32, u64, u64) {
    let start = std::time::Instant::now();
    let (index, stats) = build_prelabeled(g, &HopDbConfig::with_strategy(strategy));
    (
        secs(start.elapsed()),
        stats.num_iterations(),
        stats.peak_candidates(),
        index.total_entries() as u64,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_env();
    println!("Table 8 reproduction (scale: {scale:?})\n");
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>6} {:>6} {:>6} | {:>10} {:>10} {:>10}",
        "graph",
        "Double(s)",
        "Step(s)",
        "Hybrid(s)",
        "itD",
        "itS",
        "itH",
        "peakD",
        "peakS",
        "peakH"
    );

    // The Table 8 suite plus a large-diameter graph (the case that
    // motivates the hybrid: grids behave like the paper's BTC /
    // wikiItaly rows where stepping needs many iterations).
    let mut graphs: Vec<(String, Graph)> = suite(scale)
        .into_iter()
        .map(|w| {
            let rank_by =
                if w.graph.is_directed() { RankBy::DegreeProduct } else { RankBy::Degree };
            let ranking = rank_vertices(&w.graph, &rank_by);
            (w.name, relabel_by_rank(&w.graph, &ranking))
        })
        .collect();
    let side = 20 * scale.factor();
    let long = grid(8, side);
    let ranking = rank_vertices(&long, &RankBy::Degree);
    graphs.push((format!("grid8x{side}"), relabel_by_rank(&long, &ranking)));

    for (name, g) in &graphs {
        let (td, id, pd, _) = run(g, Strategy::Doubling);
        let (ts, is, ps, _) = run(g, Strategy::Stepping);
        let (th, ih, ph, _) = run(g, Strategy::Hybrid { switch_at: 10 });
        println!(
            "{name:<14} | {td:>9.2} {ts:>9.2} {th:>9.2} | {id:>6} {is:>6} {ih:>6} | {pd:>10} {ps:>10} {ph:>10}"
        );
    }

    if args.iter().any(|a| a == "--sweep") {
        println!("\n-- hybrid switch-point sweep (grid8x{side}) --");
        println!("{:<10} {:>9} {:>6} {:>10}", "switch_at", "time(s)", "iters", "peak cands");
        let g = &graphs.last().unwrap().1;
        for switch_at in [2, 4, 6, 8, 10, 14, 20] {
            let (t, it, peak, _) = run(g, Strategy::Hybrid { switch_at });
            println!("{switch_at:<10} {t:>9.2} {it:>6} {peak:>10}");
        }
    }

    if args.iter().any(|a| a == "--rankings") {
        println!("\n-- ranking ablation (first directed workload, hybrid) --");
        println!("{:<14} {:>9} {:>6} {:>12}", "ranking", "time(s)", "iters", "index entries");
        let w = suite(scale).into_iter().find(|w| w.graph.is_directed()).unwrap();
        for (name, rank_by) in [
            ("degree", RankBy::Degree),
            ("in×out", RankBy::DegreeProduct),
            ("random", RankBy::Random(1)),
        ] {
            let ranking = rank_vertices(&w.graph, &rank_by);
            let g = relabel_by_rank(&w.graph, &ranking);
            let (t, it, _, entries) = run(&g, Strategy::Hybrid { switch_at: 10 });
            println!("{name:<14} {t:>9.2} {it:>6} {entries:>12}");
        }
    }

    println!("\nExpected shape (paper): doubling slowest on big graphs (candidate");
    println!("bursts), stepping needs ~diameter iterations, hybrid wins on both.");
}
