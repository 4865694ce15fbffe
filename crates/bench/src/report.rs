//! The §8 report: every table and figure printed from one set of builds.
//!
//! Each suite workload is ranked once and built once per distinct
//! (engine, strategy): the external default (Table 6's `Hop` columns);
//! the in-memory default at `BENCH_THREADS`, asserted equal to it (`HopT`,
//! Table 7, Figure 8, Table 8's hybrid column, and Figure 10 for the
//! largest directed workload); `Doubling` and `Stepping` (Table 8). Only
//! Figure 9's sweep graphs and Table 8's long grid are builds of their
//! own. Nothing is built that no requested section reads, and the
//! returned [`Tally`] counts what was.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use baselines::{Bidij, BitParallelIndex, DistanceOracle, HighwayCover, IsLabel, Pll};
use extmem::device::TempStore;
use extmem::ExtMemConfig;
use graphgen::{glp, grid, GlpParams};
use hopdb::external::build_external;
use hopdb::{build_prelabeled, BuildStats, HopDbConfig, Strategy};
use hoplabels::disk::DiskIndex;
use hoplabels::flat::FlatIndex;
use hoplabels::stats::CoverageStats;
use hoplabels::LabelIndex;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::Graph;

use crate::{mb, query_pairs, suite, time_queries, Scale, Workload};

/// Section names, in print order: the paper's six, then Table 8's two
/// ablations — `sweep` (hybrid switch point, on the grid) and `rankings`
/// (vertex orderings, on the first directed workload).
pub const SECTIONS: [&str; 8] =
    ["table6", "table7", "table8", "fig8", "fig9", "fig10", "sweep", "rankings"];

/// What a report runs on.
pub struct Inputs {
    /// The suite: Tables 6–8, Figures 8 and 10.
    pub workloads: Vec<Workload>,
    /// Figure 9's vertex unit: 5 units in (a), 1–16 units in (b).
    pub sweep_unit: usize,
    /// Long side of Table 8's `8 × side` grid — the large-diameter case
    /// that motivates the hybrid (the paper's BTC / wikiItaly rows).
    pub grid_side: usize,
    /// Worker threads of the in-memory default build.
    pub threads: usize,
}

impl Inputs {
    /// The inputs `paper` runs at `scale`.
    pub fn at(scale: Scale, threads: usize) -> Inputs {
        let f = scale.factor();
        Inputs { workloads: suite(scale), sweep_unit: 2_500 * f, grid_side: 20 * f, threads }
    }
}

/// `(graph, what) → times it happened`, `what` being `rank` or the
/// engine/strategy of a build (`external`, `memory`, `doubling`, …).
pub type Tally = BTreeMap<(String, String), usize>;

/// One finished in-memory build.
struct Build {
    index: LabelIndex,
    stats: BuildStats,
    secs: f64,
}

/// The numbers Table 8 and its ablations print for one build.
#[derive(Clone, Copy)]
struct Timed {
    secs: f64,
    iters: u32,
    peak: u64,
    entries: usize,
}

impl Timed {
    fn of(b: &Build) -> Timed {
        let (iters, peak) = (b.stats.num_iterations(), b.stats.peak_candidates());
        Timed { secs: b.secs, iters, peak, entries: b.index.total_entries() }
    }
}

/// The one place the report ranks and builds, so the tally is complete.
struct Run {
    threads: usize,
    tally: Tally,
}

impl Run {
    fn count(&mut self, graph: &str, what: &str) {
        *self.tally.entry((graph.to_string(), what.to_string())).or_default() += 1;
    }

    fn ranked(&mut self, name: &str, what: &str, g: &Graph, by: &RankBy) -> (Ranking, Graph) {
        self.count(name, what);
        let ranking = rank_vertices(g, by);
        let relabeled = relabel_by_rank(g, &ranking);
        (ranking, relabeled)
    }

    /// In-memory build of the rank-relabeled `g`.
    fn built(&mut self, name: &str, what: &str, g: &Graph, cfg: &HopDbConfig) -> Build {
        self.count(name, what);
        let start = Instant::now();
        let (index, stats) = build_prelabeled(g, cfg);
        Build { index, stats, secs: start.elapsed().as_secs_f64() }
    }

    /// The default strategy at `BENCH_THREADS` workers.
    fn default_build(&mut self, name: &str, what: &str, g: &Graph) -> Build {
        let cfg = HopDbConfig::default().with_parallelism(self.threads);
        self.built(name, what, g, &cfg)
    }

    /// A Table 8 line: `Doubling` and `Stepping` of `g` beside its default build `h`.
    fn table8(&mut self, name: &str, g: &Graph, h: Timed) -> String {
        let [d, s] = [("doubling", Strategy::Doubling), ("stepping", Strategy::Stepping)]
            .map(|(what, s)| Timed::of(&self.built(name, what, g, &HopDbConfig::with_strategy(s))));
        format!(
            "{name:<14} | {:>9.2} {:>9.2} {:>9.2} | {:>6} {:>6} {:>6} | {:>10} {:>10} {:>10}",
            d.secs, s.secs, h.secs, d.iters, s.iters, h.iters, d.peak, s.peak, h.peak
        )
    }

    /// A Table 6 line: the baselines, the external build (§4), every query timing.
    fn table6(
        &mut self,
        w: &Workload,
        ranking: &Ranking,
        relabeled: &Graph,
        mem: &Build,
    ) -> String {
        let g = &w.graph;
        let pairs = query_pairs(g, 20_000, 0xBEEF);
        let short = &pairs[..2_000];
        let dash = |v: Option<f64>, prec: usize| {
            v.map_or_else(|| "—".to_string(), |x| format!("{x:.prec$}"))
        };
        let image_mb = |index: &LabelIndex| {
            mb(index.write_hopidx(&mut io::sink()).expect("serialize") as usize)
        };

        let bidij = Bidij::new(g.clone());
        let (bidij_us, _) = time_queries(&pairs[..200], |s, t| bidij.distance(s, t));
        // IS-Label's edge budget mirrors the paper's 24-hour timeouts.
        let budget = 8 * g.num_edges().max(1) * if g.is_directed() { 1 } else { 2 } + 10_000;
        let start = Instant::now();
        let isl = IsLabel::build(g, budget).ok();
        let isl_s = isl.as_ref().map(|_| start.elapsed().as_secs_f64());
        let isl_us = isl.as_ref().map(|i| time_queries(&pairs, |s, t| i.distance(s, t)).0);
        let start = Instant::now();
        let pll = Pll::build(g);
        let pll_s = start.elapsed().as_secs_f64();
        let (pll_us, _) = time_queries(&pairs, |s, t| pll.distance(s, t));
        let hcl = HighwayCover::build(g.clone(), 16);
        let (hcl_us, _) = time_queries(short, |s, t| hcl.distance(s, t));

        self.count(&w.name, "external");
        let start = Instant::now();
        let ext_cfg = ExtMemConfig { memory_records: 1 << 18, block_bytes: 64 << 10 };
        let ext = build_external(relabeled, &HopDbConfig::default(), &ext_cfg)
            .expect("external build in a temp store");
        let hop_s = start.elapsed().as_secs_f64();
        assert_eq!(mem.index, ext.index, "in-memory and external engines must agree");

        // Memory queries go through the frozen flat index — the serving
        // read path — and the size column is what it holds: the image.
        let rank_pairs: Vec<(u32, u32)> =
            pairs.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();
        let flat = FlatIndex::from_index(&ext.index);
        let (hop_us, _) = time_queries(&rank_pairs, |s, t| flat.query(s, t));
        // Bit-parallel post-processing (§6): undirected unweighted only.
        let bp_us = (!g.is_directed() && !g.is_weighted()).then(|| {
            let bp = BitParallelIndex::build(relabeled, &ext.index, 50);
            time_queries(&rank_pairs, |s, t| bp.query(s, t)).0
        });
        // Disk queries: two label reads per query, counted.
        let store = TempStore::new().expect("temp store");
        let disk_us = |index: &LabelIndex, tag: &str, pairs: &[(u32, u32)]| {
            let mut disk = DiskIndex::create(index, &store, tag).expect("disk index");
            time_queries(pairs, |s, t| disk.query(s, t).expect("disk query")).0
        };
        // An image needs IS-Label's labels renumbered by its hierarchy.
        let isl_leveled = isl.as_ref().map(IsLabel::leveled);
        let isl_disk_us = isl_leveled.as_ref().map(|(index, id)| {
            let pairs: Vec<_> =
                short.iter().map(|&(s, t)| (id[s as usize], id[t as usize])).collect();
            disk_us(index, "isl", &pairs)
        });
        let hop_disk_us = disk_us(&ext.index, "hopdb", &rank_pairs[..short.len()]);

        format!(
            "{:<12} {:>8} {:>9} {:>7} {:>7.1} | {:>8} {:>8.1} {:>8.1} | {:>8} {:>8.2} {:>8.2} {:>8.2} | {:>9.1} {:>9} {:>8.2} {:>8.1} {:>8.2} {:>8} | {:>9} {:>9.1} {:>10}",
            w.name, g.num_vertices(), g.num_edges(), g.max_degree(), mb(g.size_bytes()),
            dash(isl_leveled.as_ref().map(|(index, _)| image_mb(index)), 1), image_mb(pll.index()), mb(flat.resident_bytes()),
            dash(isl_s, 2), pll_s, hop_s, mem.secs,
            bidij_us, dash(isl_us, 2), pll_us, hcl_us, hop_us, dash(bp_us, 2),
            dash(isl_disk_us, 1), hop_disk_us, ext.io.2 + ext.io.3,
        )
    }

    /// A Figure 9 line after its first column: one GLP graph, ranked and built.
    fn fig9(&mut self, n: usize, density: f64, seed: u64) -> String {
        let g = glp(&GlpParams::with_density(n, density, seed));
        let name = format!("glp{n}-d{density}");
        let (_, relabeled) = self.ranked(&name, "rank", &g, &RankBy::Degree);
        let b = self.built(&name, "memory", &relabeled, &HopDbConfig::default());
        let (avg, iters) = (b.index.avg_label_size(), b.stats.num_iterations());
        format!("{:>10} {:>10.1} {avg:>12.1} {iters:>6}", g.num_edges(), mb(g.size_bytes()))
    }
}

/// Print one section: title, column header, lines, notes.
fn section(
    out: &mut impl Write,
    title: &str,
    header: &str,
    lines: &str,
    notes: &str,
) -> io::Result<()> {
    writeln!(out, "{title}\n\n{header}\n{lines}\n{notes}\n")
}

/// The sections `named` on a command line — the paper's six when none
/// is — or why a name is not a section.
pub fn parse_sections(named: &[String]) -> Result<Vec<&str>, String> {
    if let Some(bad) = named.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
        return Err(format!("`{bad}` is not one of {}", SECTIONS.join(", ")));
    }
    let six = SECTIONS[..6].to_vec();
    Ok(if named.is_empty() { six } else { named.iter().map(String::as_str).collect() })
}

/// Run and print `sections` (names from [`SECTIONS`], printed in that
/// order) over `inputs`.
pub fn report(out: &mut impl Write, inputs: &Inputs, sections: &[&str]) -> io::Result<Tally> {
    let want = |s: &str| sections.contains(&s);
    let mut run = Run { threads: inputs.threads, tally: Tally::new() };
    let directed = || inputs.workloads.iter().filter(|w| w.graph.is_directed());
    let fig10_of = directed().max_by_key(|w| w.graph.num_vertices()).map(|w| w.name.as_str());
    let rankings_of = directed().next().map(|w| w.name.as_str());
    let whole_suite = SECTIONS[..4].iter().any(|s| want(s));

    // Each workload's line in the first four sections (Tables 6–8 and
    // Figure 8), and what Figure 10 and `rankings` read of a default build.
    let mut lines: [String; 4] = Default::default();
    let (mut fig10, mut default_order, mut group) = (None, None, None);
    for w in &inputs.workloads {
        let name = Some(w.name.as_str());
        let alone =
            (want("fig10") && fig10_of == name) || (want("rankings") && rankings_of == name);
        if !(whole_suite || alone) {
            continue;
        }
        eprintln!("paper: measuring {}", w.name);
        let (ranking, relabeled) =
            run.ranked(&w.name, "rank", &w.graph, &RankBy::paper_default(&w.graph));
        let mem = run.default_build(&w.name, "memory", &relabeled);
        let (hybrid, avg_label) = (Timed::of(&mem), mem.index.avg_label_size());
        let cov = CoverageStats::from_index(&mem.index);
        let [c70, c80, c90] = [0.7, 0.8, 0.9].map(|f| cov.percent_vertices_for_coverage(f));
        let curve =
            cov.coverage_curve(0.01, 10).into_iter().map(|(_, pct)| format!(" {pct:>7.1} "));
        let table6 = want("table6").then(|| run.table6(w, &ranking, &relabeled, &mem));
        let table8 = want("table8").then(|| run.table8(&w.name, &relabeled, hybrid));
        let new = [
            table6.unwrap_or_default(),
            format!(
                "{:<12} {:>10} {avg_label:>12.1} {:>8} | {c70:>7.2}% {c80:>7.2}% {c90:>7.2}%",
                w.name, hybrid.iters, mem.stats.derived_vertices
            ),
            table8.unwrap_or_default(),
            format!("{:<12}{}", w.name, curve.collect::<String>()),
        ];
        for (lines, new) in lines.iter_mut().zip(new) {
            if group != Some(w.kind) {
                *lines += &format!("-- {} --\n", w.kind.header());
            }
            *lines += &(new + "\n");
        }
        group = Some(w.kind);
        if rankings_of == name {
            default_order = Some((w, hybrid));
        }
        if fig10_of == name {
            fig10 = Some((w, hybrid, avg_label, mem.stats));
        }
    }
    let [table6, table7, mut table8, fig8] = lines;

    if want("table6") {
        let header = "graph             |V|       |E|  maxdeg   G(MB) |  ISL(MB)  PLL(MB)  Hop(MB) |   ISL(s)   PLL(s)   Hop(s)  HopT(s) | BIDIJ(µs)   ISL(µs)  PLL(µs) HCL*(µs)  Hop(µs)   BP(µs) | ISLdk(µs) Hopdk(µs) HopIO(blk)";
        let title = "Table 6 — BIDIJ, IS-Label, PLL, HCL* and HopDb on complete 2-hop indexing";
        let notes = format!(
            "— = did not finish (IS-Label's edge augmentation exceeded its budget, cf. the paper's 24 h timeouts)\n\
             Hop(s), HopIO = the external §4 engine (M = 256 Ki records, B = 64 KiB); HopT(s) = the in-memory\n\
             engine at {} worker thread(s), the same index bit for bit. ISL/PLL/Hop(MB) = each labelling's\n\
             HOPIDX04 image (IS-Label's renumbered by its hierarchy), which is also what a serving FlatIndex\n\
             holds resident; Hop(µs) queries FlatIndex.",
            run.threads
        );
        section(out, title, header, &table6, &notes)?;
    }

    if want("table7") {
        let header = "graph        iterations  avg |label|   fringe |      70%      80%      90%";
        let title =
            "Table 7 — iterations, label size, share of top vertices covering 70–90% of entries";
        let notes = "Small percentages confirm Assumptions 1–3: a handful of top-degree vertices\n\
                     hits the vast majority of shortest paths (small hub dimension). fringe = vertices\n\
                     with one or two neighbours (no two adjacent), each stored as a record of its\n\
                     neighbours: no label, no entries.";
        section(out, title, header, &table7, notes)?;
    }

    // The long grid's default build is Table 8's hybrid column and the
    // sweep's `10` row.
    let grid_name = format!("grid8x{}", inputs.grid_side);
    let long = (want("table8") || want("sweep")).then(|| {
        let g = grid(8, inputs.grid_side);
        let (_, relabeled) = run.ranked(&grid_name, "rank", &g, &RankBy::Degree);
        let hybrid = Timed::of(&run.default_build(&grid_name, "memory", &relabeled));
        (relabeled, hybrid)
    });

    if let Some((relabeled, hybrid)) = long.as_ref().filter(|_| want("table8")) {
        let header = "graph          | Double(s)   Step(s) Hybrid(s) |    itD    itS    itH |      peakD      peakS      peakH";
        table8 += &format!("-- long diameter --\n{}\n", run.table8(&grid_name, relabeled, *hybrid));
        let notes = "Expected shape (paper): doubling slowest on big graphs (candidate bursts),\n\
                     stepping needs ~diameter iterations, hybrid wins on both.";
        section(out, "Table 8 — Hop-Doubling vs Hop-Stepping vs Hybrid", header, &table8, notes)?;
    }

    if want("fig8") {
        let shares: String = (1..=10).map(|i| format!(" {:>7.1}%", i as f64 / 10.0)).collect();
        let title = "Figure 8 — label coverage (%) by the top-ranked share of vertices";
        let notes = "Paper shape: curves jump above 60–90% within the first 0.1–1% of vertices —\n\
                     the top-degree hubs cover nearly all label entries.";
        section(out, title, &format!("{:<12}{shares}", "graph"), &fig8, notes)?;
    }

    if want("fig9") {
        // Paper: (a) 10M vertices, density 2→70; (b) density 20, 2M→30M.
        let columns = "       |E|      G(MB)  avg |label|  iters";
        let n = 5 * inputs.sweep_unit;
        let mut lines = String::new();
        for (i, density) in [2.0, 5.0, 10.0, 20.0, 40.0, 70.0].into_iter().enumerate() {
            lines += &format!("{density:>8.0} {}\n", run.fig9(n, density, 900 + i as u64));
        }
        lines += &format!("\n(b) density = 20, |V| swept\n\n      |V| {columns}\n");
        for (i, units) in [1, 2, 4, 8, 16].into_iter().enumerate() {
            let n = units * inputs.sweep_unit;
            lines += &format!("{n:>9} {}\n", run.fig9(n, 20.0, 950 + i as u64));
        }
        let title = format!("Figure 9 — GLP scalability\n\n(a) |V| = {n}, density swept");
        let notes = "Paper shape: graph size grows linearly; the average label size stays flat\n\
                     (below ~200 in the paper) — small hub dimension at every scale.";
        section(out, &title, &format!(" |E|/|V| {columns}"), &lines, notes)?;
    }

    if let Some((w, hybrid, avg_label, stats)) = fig10.filter(|_| want("fig10")) {
        let header = "iter      mode |  growing  pruning |  cand/fin  old/fin prev/fin |   time%";
        let of_final = |x: u64| 100.0 * x as f64 / hybrid.entries as f64;
        let total: f64 = stats.iterations.iter().map(|it| it.elapsed.as_secs_f64()).sum();
        let (mut lines, growing) = (String::new(), stats.growing_factors());
        for it in &stats.iterations {
            let factor = growing.iter().find(|&&(i, _)| i == it.iteration);
            lines += &format!(
                "{:>4} {:>9} | {:>8.2} {:>7.1}% | {:>8.1}% {:>7.1}% {:>7.1}% | {:>6.1}%\n",
                it.iteration,
                if it.stepping { "stepping" } else { "doubling" },
                factor.map_or(f64::NAN, |&(_, f)| f),
                100.0 * it.pruning_factor(),
                of_final(it.candidates),
                of_final(it.total_entries),
                of_final(it.inserted),
                100.0 * it.elapsed.as_secs_f64() / total.max(1e-12),
            );
        }
        let title = format!(
            "Figure 10 — anatomy of the hybrid build of {} (|V| = {}, arcs = {})",
            w.name,
            w.graph.num_vertices(),
            w.graph.num_edges()
        );
        let notes = format!(
            "final index: {} entries over {} iterations (avg |label| {avg_label:.1})\n\n\
             Paper shape: growing factor ≈ 3–4 during the stepping phase (the expansion factor R\n\
             of §2.2), a spike after the doubling switch, a pruning factor climbing to ~90–100%;\n\
             candidates never dwarf the final index (the paper reports ≤ 1.5×).",
            hybrid.entries, hybrid.iters
        );
        section(out, &title, header, &lines, &notes)?;
    }

    if let Some((relabeled, hybrid)) = long.as_ref().filter(|_| want("sweep")) {
        let header = "switch_at    time(s)  iters peak cands";
        let mut lines = String::new();
        for switch_at in [2, 4, 6, 8, 10, 14, 20] {
            let strategy = Strategy::Hybrid { switch_at };
            let t = if strategy == Strategy::default_hybrid() {
                *hybrid
            } else {
                let cfg = HopDbConfig::with_strategy(strategy);
                Timed::of(&run.built(&grid_name, &format!("hybrid@{switch_at}"), relabeled, &cfg))
            };
            lines += &format!("{switch_at:<10} {:>9.2} {:>6} {:>10}\n", t.secs, t.iters, t.peak);
        }
        let notes = "switch_at 10 is the paper's default — Table 8's row for this grid.";
        section(out, &format!("Hybrid switch-point sweep ({grid_name})"), header, &lines, notes)?;
    }

    if let Some((w, default)) = default_order.filter(|_| want("rankings")) {
        let header = "ranking          time(s)  iters index entries";
        let orders = [
            ("degree", Some(RankBy::Degree)),
            ("in×out", None),
            ("random", Some(RankBy::Random(1))),
        ];
        let mut lines = String::new();
        for (order, by) in orders {
            let t = by.map_or(default, |by| {
                let (_, g) = run.ranked(&w.name, &format!("rank:{order}"), &w.graph, &by);
                Timed::of(&run.default_build(&w.name, &format!("memory:{order}"), &g))
            });
            lines += &format!("{order:<14} {:>9.2} {:>6} {:>12}\n", t.secs, t.iters, t.entries);
        }
        let notes = "in×out is the paper's default for directed graphs — what every table reads.";
        section(out, &format!("Ranking ablation ({}, hybrid)", w.name), header, &lines, notes)?;
    }
    Ok(run.tally)
}
