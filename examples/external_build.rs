//! Disk-based index construction under a small memory budget (§4).
//!
//! The paper's headline systems claim: with 4 GB of RAM it indexes a
//! 9 GB graph, because candidate generation and pruning run as joins
//! over label files. This example scales that down: a deliberately tiny
//! memory budget forces the build through the external sorter and the
//! block nested-loop pruning, and the I/O counters report the traffic
//! in Aggarwal–Vitter block I/Os.
//!
//! ```text
//! cargo run --release --example external_build
//! ```

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::HopDbConfig;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};

fn main() {
    let raw = glp(&GlpParams::with_vertices(5_000, 31));
    // External builds run on rank-relabeled graphs (id = rank).
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let graph = relabel_by_rank(&raw, &ranking);
    println!("graph: |V| = {}, |E| = {}", graph.num_vertices(), graph.num_edges());

    // A "RAM" of 4096 label records (~48 KB) and 4 KB blocks: the build
    // must spill, sort, and merge on disk, like the paper's 4 GB
    // machine against multi-GB label files.
    let ext = ExtMemConfig { memory_records: 4096, block_bytes: 4096 };
    let cfg = HopDbConfig::default();

    let t0 = std::time::Instant::now();
    let result = build_external(&graph, &cfg, &ext).expect("external build");
    let (read_bytes, write_bytes, read_blocks, write_blocks) = result.io;
    println!(
        "external build: {} entries in {:?}, {} iterations",
        result.index.total_entries(),
        t0.elapsed(),
        result.stats.num_iterations()
    );
    println!(
        "I/O: {:.1} MB read / {:.1} MB written = {} + {} block I/Os (B = {} bytes), {} seeks",
        read_bytes as f64 / 1e6,
        write_bytes as f64 / 1e6,
        read_blocks,
        write_blocks,
        ext.block_bytes,
        result.seeks
    );

    println!("\nper-iteration profile (growing/pruning factors of Fig. 10):");
    println!(
        "{:>4} {:>9} {:>10} {:>10} {:>8} {:>7} {:>8} {:>8}",
        "iter", "mode", "candidates", "pruned", "prune%", "total", "read MB", "wrote MB"
    );
    for it in &result.stats.iterations {
        println!(
            "{:>4} {:>9} {:>10} {:>10} {:>7.1}% {:>7} {:>8.2} {:>8.2}",
            it.iteration,
            if it.stepping { "stepping" } else { "doubling" },
            it.candidates,
            it.pruned,
            100.0 * it.pruning_factor(),
            it.total_entries,
            it.io_read_bytes as f64 / 1e6,
            it.io_write_bytes as f64 / 1e6
        );
    }

    // Cross-check a few queries against the in-memory build.
    let (mem_index, _) = hop_doubling::hopdb::build_prelabeled(&graph, &cfg);
    assert_eq!(mem_index, result.index, "external and in-memory builds must agree");
    println!("\nexternal index is bit-identical to the in-memory build ✓");
}
