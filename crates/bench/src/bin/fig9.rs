#![forbid(unsafe_code)]
//! Figure 9 — scalability on synthetic GLP graphs:
//! (a) fixed |V|, density |E|/|V| swept upward;
//! (b) fixed density 20, |V| swept upward.
//! Reports graph size and the average label-entry count per vertex —
//! the paper's headline: average label size stays flat and small while
//! the graph grows linearly.
//!
//! ```text
//! BENCH_SCALE=small cargo run --release -p bench --bin fig9 [-- --part a|b]
//! ```

use bench::{mb, Scale};
use graphgen::{glp, GlpParams};
use hopdb::{build_prelabeled, HopDbConfig};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};

fn measure(n: usize, density: f64, seed: u64) -> (usize, f64, f64, u32) {
    let g = glp(&GlpParams::with_density(n, density, seed));
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);
    let (index, stats) = build_prelabeled(&relabeled, &HopDbConfig::default());
    (g.num_edges(), mb(g.size_bytes()), index.avg_label_size(), stats.num_iterations())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let part = args.iter().position(|a| a == "--part").and_then(|i| args.get(i + 1)).cloned();
    let scale = Scale::from_env();
    let f = scale.factor();

    if part.as_deref() != Some("b") {
        // Part (a): |V| fixed, density swept (paper: 10M vertices,
        // density 2→70; scaled down to what `BENCH_SCALE` affords).
        let n = 12_500 * f;
        println!("Figure 9(a) reproduction: |V| = {n}, density swept\n");
        println!(
            "{:>8} {:>10} {:>10} {:>12} {:>6}",
            "|E|/|V|", "|E|", "G(MB)", "avg |label|", "iters"
        );
        for (i, density) in [2.0, 5.0, 10.0, 20.0, 40.0, 70.0].into_iter().enumerate() {
            let (e, size, avg, iters) = measure(n, density, 900 + i as u64);
            println!("{density:>8.0} {e:>10} {size:>10.1} {avg:>12.1} {iters:>6}");
        }
        println!();
    }

    if part.as_deref() != Some("a") {
        // Part (b): density fixed at 20, |V| swept (paper: 2M→30M).
        println!("Figure 9(b) reproduction: density = 20, |V| swept\n");
        println!("{:>9} {:>10} {:>10} {:>12} {:>6}", "|V|", "|E|", "G(MB)", "avg |label|", "iters");
        for (i, n) in
            [2_500 * f, 5_000 * f, 10_000 * f, 20_000 * f, 40_000 * f].into_iter().enumerate()
        {
            let (e, size, avg, iters) = measure(n, 20.0, 950 + i as u64);
            println!("{n:>9} {e:>10} {size:>10.1} {avg:>12.1} {iters:>6}");
        }
    }

    println!("\nPaper shape: graph size grows linearly; the average label size stays");
    println!("flat (below ~200 in the paper) — small hub dimension at every scale.");
}
