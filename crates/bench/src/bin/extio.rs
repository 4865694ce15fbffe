#![forbid(unsafe_code)]
//! External-build I/O budget gate (the CI `external-io` job).
//!
//! Runs the §4 I/O-efficient engine on two small, fully deterministic
//! GLP stand-ins (one undirected, one directed) with a tiny memory
//! budget, prints the `extmem::stats` accounting, and fails (exit 1)
//! when any counter regresses past its budget. The budgets are measured
//! baselines plus ~25% headroom — tight enough that an accidental extra
//! pass over a label file (the §4 cost model is `O(Σ scan + sort)` per
//! iteration) blows the gate, loose enough for platform noise in run
//! sizing.
//!
//! Each case then rebuilds with the threaded pipeline (4 workers) and
//! asserts every counter is *exactly* the sequential number: the
//! threaded engine only reschedules the same record streams, so any
//! drift means a worker did I/O the sequential build would not.
//!
//! ```text
//! cargo run --release -p bench --bin extio
//! ```

use extmem::ExtMemConfig;
use graphgen::{glp, orient_scale_free, GlpParams};
use hopdb::external::build_external;
use hopdb::HopDbConfig;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::Graph;

struct Budget {
    name: &'static str,
    read_bytes: u64,
    write_bytes: u64,
    read_ops: u64,
    write_ops: u64,
    sort_runs: u64,
    merge_passes: u64,
}

#[derive(PartialEq, Eq, Debug)]
struct Measured {
    read_bytes: u64,
    write_bytes: u64,
    read_ops: u64,
    write_ops: u64,
    sort_runs: u64,
    merge_passes: u64,
}

fn run_case(g: &Graph, rank_by: &RankBy, threads: usize) -> Measured {
    let ranking = rank_vertices(g, rank_by);
    let relabeled = relabel_by_rank(g, &ranking);
    // Tiny budget so the sorters actually spill: M = 16 Ki records,
    // B = 4 KiB — the workloads are ~100 Ki records of traffic.
    let ext = ExtMemConfig { memory_records: 1 << 14, block_bytes: 4 << 10 };
    let cfg = HopDbConfig::default().with_parallelism(threads);
    let result = build_external(&relabeled, &cfg, &ext).expect("external build");
    let (read_bytes, write_bytes, _, _) = result.io;
    // Re-derive op counts from the block report: io.2/io.3 are blocks.
    Measured {
        read_bytes,
        write_bytes,
        read_ops: result.io.2,
        write_ops: result.io.3,
        sort_runs: result.sort_runs,
        merge_passes: result.merge_passes,
    }
}

fn check(b: &Budget, m: &Measured) -> bool {
    let rows = [
        ("read_bytes", m.read_bytes, b.read_bytes),
        ("write_bytes", m.write_bytes, b.write_bytes),
        ("read_blocks", m.read_ops, b.read_ops),
        ("write_blocks", m.write_ops, b.write_ops),
        ("sort_runs", m.sort_runs, b.sort_runs),
        ("merge_passes", m.merge_passes, b.merge_passes),
    ];
    let mut ok = true;
    println!("{}:", b.name);
    for (what, actual, budget) in rows {
        let flag = if actual <= budget { "ok" } else { "REGRESSION" };
        println!("  {what:<13} {actual:>12} / budget {budget:>12}  {flag}");
        ok &= actual <= budget;
    }
    ok
}

fn main() {
    let und = glp(&GlpParams::with_density(2_000, 3.0, 7));
    let dir = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 13)), 0.25, 13);

    // Baselines re-measured when the external build stopped writing runs
    // nobody reads as a file (survivors leave the prune sorted, the in
    // side sorts its candidates inverted, `prev` is the survivor run,
    // `inv` waits for the first doubling round, the candidate sort streams
    // into the prune): undirected 5.80 MB read / 3.06 MB written, 9 runs,
    // 6 merges (from 9.44 / 6.71 MB, 22 runs, 12 merges); directed 4.68 /
    // 2.45 MB, 4 runs, 12 merges (from 7.66 / 5.43 MB, 37 runs, 22
    // merges). A sort that never spills is no longer counted as a run.
    let budgets = [
        Budget {
            name: "undirected glp-2k-d3 (seed 7)",
            read_bytes: 7_250_000,
            write_bytes: 3_825_000,
            read_ops: 1_770,
            write_ops: 935,
            sort_runs: 12,
            merge_passes: 8,
        },
        Budget {
            name: "directed glp-1.5k-d2.5 (seed 13)",
            read_bytes: 5_850_000,
            write_bytes: 3_060_000,
            read_ops: 1_430,
            write_ops: 750,
            sort_runs: 5,
            merge_passes: 15,
        },
    ];

    println!("external-build I/O budget gate (§4 cost model)\n");
    let m_und = run_case(&und, &RankBy::Degree, 1);
    let m_dir = run_case(&dir, &RankBy::DegreeProduct, 1);
    let ok = check(&budgets[0], &m_und) & check(&budgets[1], &m_dir);
    if !ok {
        eprintln!("\nI/O budget regression: the external build does more I/O than the");
        eprintln!("recorded §4 baseline allows. If the algorithm legitimately changed,");
        eprintln!("re-measure and update the budgets in crates/bench/src/bin/extio.rs.");
        std::process::exit(1);
    }
    println!("\nall counters within budget");

    // The threaded pipeline reschedules the same record streams across
    // workers; the atomic counters must land on exactly the sequential
    // totals or a worker is doing I/O the cost model does not account.
    println!("\nthreaded rebuild (4 workers): counters must match exactly");
    for (name, g, rank_by, sequential) in [
        ("undirected", &und, RankBy::Degree, &m_und),
        ("directed", &dir, RankBy::DegreeProduct, &m_dir),
    ] {
        let threaded = run_case(g, &rank_by, 4);
        if &threaded != sequential {
            eprintln!("threaded {name} build I/O diverged from sequential:");
            eprintln!("  sequential {sequential:?}");
            eprintln!("  threaded   {threaded:?}");
            std::process::exit(1);
        }
        println!("  {name}: threaded counters identical");
    }
}
