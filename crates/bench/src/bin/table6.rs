#![forbid(unsafe_code)]
//! Table 6 — performance comparison of BIDIJ, IS-Label, PLL, HCL*, and
//! HopDb on complete 2-hop indexing.
//!
//! For every workload: graph statistics, index sizes, indexing times,
//! in-memory query times, and disk-based query times. HopDb builds with
//! the I/O-efficient external engine (§4); IS-Label runs with an edge
//! budget and reports DNF when augmentation explodes (the paper's
//! 24-hour timeouts); PLL builds in memory.
//!
//! ```text
//! BENCH_SCALE=small cargo run --release -p bench --bin table6
//! ```

use baselines::{Bidij, DistanceOracle, HighwayCover, IsLabel, Pll};
use bench::{mb, query_pairs, secs, suite, time_queries, Kind, Scale, Workload};
use extmem::device::TempStore;
use extmem::ExtMemConfig;
use hopdb::external::build_external;
use hopdb::HopDbConfig;
use hoplabels::bitparallel::BitParallelIndex;
use hoplabels::disk::DiskIndex;
use hoplabels::flat::FlatIndex;
use hoplabels::LabelIndex;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};

struct Row {
    name: String,
    v: usize,
    e: usize,
    maxdeg: usize,
    graph_mb: f64,
    isl_mb: Option<f64>,
    pll_mb: f64,
    /// The index image: what `hopdb-cli build` writes and what a
    /// serving `FlatIndex` holds resident (the ISL and PLL columns
    /// serialize their labellings the same way).
    hop_mb: f64,
    isl_build: Option<f64>,
    pll_build: f64,
    hop_build: f64,
    /// In-memory engine build time at `BENCH_THREADS` workers — the
    /// build-time scaling companion of the external `hop_build` column.
    hop_mem_build: f64,
    bidij_us: f64,
    isl_us: Option<f64>,
    pll_us: f64,
    hcl_us: f64,
    hop_us: f64,
    bp_us: Option<f64>,
    isl_disk_us: Option<f64>,
    hop_disk_us: f64,
    hop_io_blocks: u64,
}

fn bench_workload(w: &Workload) -> Row {
    let g = &w.graph;
    let pairs = query_pairs(g, 20_000, 0xBEEF);
    let bidij_pairs = query_pairs(g, 200, 0xBEEF);

    // --- BIDIJ ---
    let bidij = Bidij::new(g.clone());
    let (bidij_us, _) = time_queries(&bidij_pairs, |s, t| bidij.distance(s, t));

    // --- IS-Label (edge budget mirrors the paper's timeouts) ---
    let budget = 8 * g.num_edges().max(1) * if g.is_directed() { 1 } else { 2 } + 10_000;
    let isl_start = std::time::Instant::now();
    let isl = IsLabel::build(g, budget).ok();
    let isl_build = isl.as_ref().map(|_| secs(isl_start.elapsed()));
    let isl_mb = isl.as_ref().map(|i| image_mb(i.index()));
    let isl_us = isl.as_ref().map(|i| time_queries(&pairs, |s, t| i.distance(s, t)).0);

    // --- PLL ---
    let pll_start = std::time::Instant::now();
    let pll = Pll::build(g);
    let pll_build = secs(pll_start.elapsed());
    let pll_mb = image_mb(pll.index());
    let (pll_us, _) = time_queries(&pairs, |s, t| pll.distance(s, t));

    // --- HCL* (highway cover) ---
    let hcl = HighwayCover::build(g.clone(), 16);
    let hcl_pairs = query_pairs(g, 2_000, 0xBEEF);
    let (hcl_us, _) = time_queries(&hcl_pairs, |s, t| hcl.distance(s, t));

    // --- HopDb: external build (§4), memory + disk queries ---
    let ranking =
        rank_vertices(g, if g.is_directed() { &RankBy::DegreeProduct } else { &RankBy::Degree });
    let relabeled = relabel_by_rank(g, &ranking);
    let hop_start = std::time::Instant::now();
    let ext_cfg = ExtMemConfig { memory_records: 1 << 18, block_bytes: 64 << 10 };
    let result =
        build_external(&relabeled, &HopDbConfig::default(), &ext_cfg).expect("external build");
    let hop_build = secs(hop_start.elapsed());
    // In-memory parallel build (same index, counted for scaling runs).
    let mem_cfg = HopDbConfig::default().with_parallelism(bench::threads_from_env());
    let mem_start = std::time::Instant::now();
    let (mem_index, _) = hopdb::build_prelabeled(&relabeled, &mem_cfg);
    let hop_mem_build = secs(mem_start.elapsed());
    assert_eq!(mem_index, result.index, "in-memory and external engines must agree");
    let hop_io_blocks = result.io.2 + result.io.3;
    let rank_pairs: Vec<(u32, u32)> =
        pairs.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();
    // Memory queries go through the frozen flat index — the serving
    // read path — and the memory column reports what it holds: the image.
    let flat = FlatIndex::from_index(&result.index);
    let hop_mb = mb(flat.resident_bytes());
    let (hop_us, _) = time_queries(&rank_pairs, |s, t| flat.query(s, t));

    // Bit-parallel post-processing (§6): undirected unweighted only.
    let bp_us = (!g.is_directed() && !g.is_weighted()).then(|| {
        let bp = BitParallelIndex::build(&relabeled, &result.index, 50);
        time_queries(&rank_pairs, |s, t| bp.query(s, t)).0
    });

    // Disk-based queries: two label reads per query, counted.
    let store = TempStore::new().expect("store");
    let disk_pairs = &rank_pairs[..rank_pairs.len().min(2_000)];
    let mut hop_disk = DiskIndex::create(&result.index, &store, "hopdb").expect("disk index");
    let (hop_disk_us, _) =
        time_queries(disk_pairs, |s, t| hop_disk.query(s, t).expect("disk query"));
    let isl_disk_us = isl.as_ref().map(|i| {
        let mut d = DiskIndex::create(i.index(), &store, "isl").expect("disk index");
        let orig_pairs = &pairs[..pairs.len().min(2_000)];
        time_queries(orig_pairs, |s, t| d.query(s, t).expect("disk query")).0
    });

    Row {
        name: w.name.clone(),
        v: g.num_vertices(),
        e: g.num_edges(),
        maxdeg: g.max_degree(),
        graph_mb: mb(g.size_bytes()),
        isl_mb,
        pll_mb,
        hop_mb,
        isl_build,
        pll_build,
        hop_build,
        hop_mem_build,
        bidij_us,
        isl_us,
        pll_us,
        hcl_us,
        hop_us,
        bp_us,
        isl_disk_us,
        hop_disk_us,
        hop_io_blocks,
    }
}

/// Megabytes of `index` serialized as an image.
fn image_mb(index: &LabelIndex) -> f64 {
    mb(index.write_hopidx(&mut std::io::sink()).expect("serialize") as usize)
}

fn fmt_f(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "—".to_string(), |x| format!("{x:.prec$}"))
}

fn main() {
    let scale = Scale::from_env();
    println!("Table 6 reproduction (scale: {scale:?}; datasets are GLP stand-ins)\n");
    println!(
        "{:<12} {:>8} {:>9} {:>7} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>10}",
        "graph", "|V|", "|E|", "maxdeg", "G(MB)",
        "ISL(MB)", "PLL(MB)", "Hop(MB)",
        "ISL(s)", "PLL(s)", "Hop(s)", "HopT(s)",
        "BIDIJ(µs)", "ISL(µs)", "PLL(µs)", "HCL*(µs)", "Hop(µs)", "BP(µs)",
        "ISLdk(µs)", "Hopdk(µs)", "HopIO(blk)"
    );

    let mut last_kind: Option<Kind> = None;
    for w in suite(scale) {
        if last_kind != Some(w.kind) {
            println!("-- {} --", w.kind.header());
            last_kind = Some(w.kind);
        }
        let r = bench_workload(&w);
        println!(
            "{:<12} {:>8} {:>9} {:>7} {:>7.1} | {:>8} {:>8.1} {:>8.1} | {:>8} {:>8.2} {:>8.2} {:>8.2} | {:>9.1} {:>9} {:>8.2} {:>8.1} {:>8.2} {:>8} | {:>9} {:>9.1} {:>10}",
            r.name, r.v, r.e, r.maxdeg, r.graph_mb,
            fmt_f(r.isl_mb, 1), r.pll_mb, r.hop_mb,
            fmt_f(r.isl_build, 2), r.pll_build, r.hop_build, r.hop_mem_build,
            r.bidij_us, fmt_f(r.isl_us, 2), r.pll_us, r.hcl_us, r.hop_us, fmt_f(r.bp_us, 2),
            fmt_f(r.isl_disk_us, 1), r.hop_disk_us, r.hop_io_blocks,
        );
    }
    println!("\n— = did not finish (IS-Label edge augmentation exceeded budget, cf. the paper's 24 h timeouts)");
    println!("HopDb builds with the external §4 engine (M = 256 Ki records, B = 64 KiB).");
    println!("ISL/PLL/Hop(MB) = each labelling's HOPIDX02 image, which is also what a serving");
    println!("FlatIndex holds resident; Hop(µs) queries FlatIndex.");
    println!(
        "HopT(s) = in-memory engine at BENCH_THREADS={} worker threads (same index, bit-identical).",
        bench::threads_from_env()
    );
}
