#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # bench — the paper's evaluation (Section 8)
//!
//! One binary, `paper`, over one function, [`report()`]: every suite graph
//! is ranked and built once and feeds all of
//!
//! | section  | reproduces |
//! |----------|------------|
//! | `table6` | index size / build time / memory & disk query time for BIDIJ, IS-Label, PLL, HCL*, HopDb(+BP) |
//! | `table7` | iterations, avg label size, top-vertex coverage (small hitting sets) |
//! | `table8` | Hop-Doubling vs Hop-Stepping vs Hybrid (ablations: `sweep`, `rankings`) |
//! | `fig8`   | label coverage vs top-ranked vertex share curves |
//! | `fig9`   | GLP scalability sweeps: density and vertex count |
//! | `fig10`  | per-iteration growing/pruning factors and size ratios |
//!
//! Real datasets are replaced by GLP-generated scale-free graphs of
//! matched shape (README "Paper tables and figures"). `BENCH_SCALE`
//! (`small` / `medium` / `large`, default `medium`) sizes every graph and
//! `BENCH_THREADS` sets the in-memory build's workers. Speed and size
//! numbers the repo is judged by come from `hopbench`, not from here.

pub mod report;

pub use report::{parse_sections, report, Inputs, Tally, SECTIONS};

use std::time::Instant;

use graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use sfgraph::{Graph, VertexId, INF_DIST};

/// Workload category, mirroring Table 6's row groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Undirected unweighted (Delicious/BTC/Skitter stand-ins).
    UndirectedUnweighted,
    /// Directed unweighted (wiki/Baidu/gplus stand-ins).
    DirectedUnweighted,
    /// GLP synthetic sweep graphs (syn1–syn6 stand-ins).
    Synthetic,
    /// Undirected weighted (rating-network stand-ins).
    UndirectedWeighted,
}

impl Kind {
    /// Section header used in printed tables.
    pub fn header(self) -> &'static str {
        match self {
            Kind::UndirectedUnweighted => "undirected unweighted",
            Kind::DirectedUnweighted => "directed unweighted",
            Kind::Synthetic => "synthetic (GLP)",
            Kind::UndirectedWeighted => "undirected weighted",
        }
    }
}

/// One benchmark graph.
pub struct Workload {
    /// Stable name used in the printed tables.
    pub name: String,
    /// Row group.
    pub kind: Kind,
    /// The graph itself.
    pub graph: Graph,
}

/// Harness scale, from the `BENCH_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke test.
    Small,
    /// Minutes-long default.
    Medium,
    /// The full evaluation.
    Large,
}

impl Scale {
    /// Parse a `BENCH_SCALE` value.
    fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            other => Err(format!("`{other}` is not one of small, medium, large")),
        }
    }

    /// Read `BENCH_SCALE` (unset = medium; an unknown name ends the
    /// process with exit status 2 — a typo must not run the default).
    pub fn from_env() -> Scale {
        env_or_exit("BENCH_SCALE", Scale::Medium, Scale::parse)
    }

    /// Multiplier applied to base workload sizes.
    pub fn factor(self) -> usize {
        match self {
            Scale::Small => 1,
            Scale::Medium => 4,
            Scale::Large => 16,
        }
    }
}

/// The workload suite behind Tables 6–8 and Figures 8 and 10.
pub fn suite(scale: Scale) -> Vec<Workload> {
    use Kind::*;
    // Row group, name prefix, seed, vertices at `small`, density. Sizes
    // grow within a group; `syn` are the denser graphs.
    let shapes = [
        (UndirectedUnweighted, "u", 100, 5_000, 2.1),
        (UndirectedUnweighted, "u", 101, 12_000, 3.0),
        (UndirectedUnweighted, "u", 102, 25_000, 6.0),
        (DirectedUnweighted, "d", 200, 5_000, 2.5),
        (DirectedUnweighted, "d", 201, 12_000, 5.0),
        (Synthetic, "syn", 300, 4_000, 10.0),
        (Synthetic, "syn", 301, 10_000, 16.0),
        (UndirectedWeighted, "w", 400, 5_000, 3.0),
        (UndirectedWeighted, "w", 401, 10_000, 8.0),
    ];
    let workload = |(kind, prefix, seed, n, d): (Kind, &str, u64, usize, f64)| {
        let n = n * scale.factor();
        let und = glp(&GlpParams::with_density(n, d, seed));
        let graph = match kind {
            DirectedUnweighted => orient_scale_free(&und, 0.25, seed), // 25% reciprocity
            UndirectedWeighted => with_random_weights(&und, 1, 10, seed), // ratings 1..=10
            _ => und,
        };
        Workload { name: format!("{prefix}{}k-d{}", n / 1000, d as u32), kind, graph }
    };
    shapes.into_iter().map(workload).collect()
}

/// Parse a `BENCH_THREADS` value: any `usize` (0 = all cores).
fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a thread count (0 = all cores, or 1, 2, …)"))
}

/// Build-worker threads from the `BENCH_THREADS` environment variable
/// (unset = 1 = sequential; 0 = all cores; anything unparsable ends the
/// process with exit status 2). The built index is bit-identical
/// regardless — the knob only changes build time, so Table 6's `HopT`
/// column can report scaling at 1/2/4/8 threads.
pub fn threads_from_env() -> usize {
    env_or_exit("BENCH_THREADS", 1, parse_threads)
}

/// `default` when `var` is unset, else its parsed value; a value `parse`
/// rejects is a usage error (message on stderr, exit status 2).
fn env_or_exit<T>(var: &str, default: T, parse: fn(&str) -> Result<T, String>) -> T {
    let Some(value) = std::env::var_os(var) else { return default };
    let parsed = value.to_str().ok_or_else(|| "the value is not unicode".to_string());
    parsed.and_then(parse).unwrap_or_else(|why| {
        eprintln!("{var}: {why}");
        std::process::exit(2)
    })
}

/// Deterministic query pairs (uniform random vertices).
pub fn query_pairs(g: &Graph, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices().max(1) as u64;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..count).map(|_| ((next() % n) as VertexId, (next() % n) as VertexId)).collect()
}

/// Time a batch of queries; returns (µs per query, answered count).
pub fn time_queries(
    pairs: &[(VertexId, VertexId)],
    mut f: impl FnMut(VertexId, VertexId) -> u32,
) -> (f64, usize) {
    let start = Instant::now();
    let mut reachable = 0usize;
    for &(s, t) in pairs {
        if f(s, t) != INF_DIST {
            reachable += 1;
        }
    }
    (start.elapsed().as_secs_f64() * 1e6 / pairs.len().max(1) as f64, reachable)
}

/// Human-readable MB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_has_all_kinds() {
        let suite = suite(Scale::Small);
        for kind in [
            Kind::UndirectedUnweighted,
            Kind::DirectedUnweighted,
            Kind::Synthetic,
            Kind::UndirectedWeighted,
        ] {
            assert!(suite.iter().any(|w| w.kind == kind), "missing {kind:?}");
        }
        for w in &suite {
            assert!(w.graph.num_vertices() > 0);
            assert_eq!(w.kind == Kind::DirectedUnweighted, w.graph.is_directed());
            assert_eq!(w.kind == Kind::UndirectedWeighted, w.graph.is_weighted());
        }
    }

    #[test]
    fn threads_env_default_is_sequential() {
        // The suite must not depend on the environment of the test
        // runner; BENCH_THREADS is unset in CI's tier-1 job.
        if std::env::var("BENCH_THREADS").is_err() {
            assert_eq!(threads_from_env(), 1);
        }
    }

    #[test]
    fn scale_and_thread_values_parse_or_name_what_is_accepted() {
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("medium"), Ok(Scale::Medium));
        assert_eq!(Scale::parse("large"), Ok(Scale::Large));
        for bad in ["smal", "", "Small", " small"] {
            let why = Scale::parse(bad).expect_err(bad);
            assert!(why.contains("small, medium, large"), "{why}");
        }
        if std::env::var("BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Medium);
        }

        for (text, n) in [("0", 0), ("1", 1), ("4", 4), ("64", 64)] {
            assert_eq!(parse_threads(text), Ok(n));
        }
        for bad in ["four", "", "-1", "2.5"] {
            let why = parse_threads(bad).expect_err(bad);
            assert!(why.contains("thread count"), "{why}");
        }
    }

    #[test]
    fn section_names_parse_or_name_what_is_accepted() {
        assert_eq!(parse_sections(&[]), Ok(SECTIONS[..6].to_vec()), "none named = the paper's six");
        let named = ["fig8".to_string(), "sweep".to_string()];
        assert_eq!(parse_sections(&named), Ok(vec!["fig8", "sweep"]));
        for bad in ["table9", "--sweep", "Fig8", ""] {
            let why = parse_sections(&["table6".to_string(), bad.to_string()]).expect_err(bad);
            assert!(why.contains("table6, table7, table8, fig8, fig9, fig10"), "{why}");
        }
    }

    /// One report over two ~300-vertex workloads: all six sections print,
    /// each workload is ranked once and built once per (engine, strategy)
    /// — by the report's own count — and the only other builds are
    /// Figure 9's eleven graphs and Table 8's grid.
    #[test]
    fn report_prints_six_sections_from_one_build_per_engine_and_strategy() {
        let glp300 = |seed| glp(&GlpParams::with_density(300, 3.0, seed));
        let workloads = vec![
            Workload { name: "u300".into(), kind: Kind::UndirectedUnweighted, graph: glp300(11) },
            Workload {
                name: "d300".into(),
                kind: Kind::DirectedUnweighted,
                graph: orient_scale_free(&glp300(12), 0.25, 12),
            },
        ];
        let inputs = Inputs { workloads, sweep_unit: 40, grid_side: 6, threads: 2 };
        let mut out = Vec::new();
        let tally = report(&mut out, &inputs, &SECTIONS[..6]).expect("write to a Vec");
        let text = String::from_utf8(out).expect("utf-8");

        for title in [
            "Table 6 —",
            "Table 7 —",
            "Table 8 —",
            "Figure 8 —",
            "Figure 9 —",
            "Figure 10 — anatomy of the hybrid build of d300",
        ] {
            assert!(text.contains(title), "no `{title}` in:\n{text}");
        }
        // Every table has a line per workload; Table 6's is printed only
        // after `report` asserted the 2-thread in-memory index equal to
        // the external one.
        for name in ["u300", "d300"] {
            assert_eq!(text.matches(&format!("\n{name} ")).count(), 4, "{name} in:\n{text}");
            let mine: Vec<(&str, usize)> = tally
                .iter()
                .filter(|((graph, _), _)| graph == name)
                .map(|((_, what), &times)| (what.as_str(), times))
                .collect();
            let once = ["doubling", "external", "memory", "rank", "stepping"].map(|what| (what, 1));
            assert_eq!(mine, once, "{name}");
        }
        assert!(tally.values().all(|&times| times == 1), "{tally:?}");
        let builds = tally.keys().filter(|(_, what)| what != "rank").count();
        assert_eq!(builds, 2 * 4 + 11 + 3, "{tally:?}");
        let ranked = tally.keys().filter(|(_, what)| what == "rank").count();
        assert_eq!(ranked, 2 + 11 + 1, "{tally:?}");

        // A section that reads one workload builds one workload.
        let tally = report(&mut Vec::new(), &inputs, &["fig10"]).expect("write to a Vec");
        let keys: Vec<_> = tally.keys().map(|(g, what)| (g.as_str(), what.as_str())).collect();
        assert_eq!(keys, [("d300", "memory"), ("d300", "rank")]);
    }

    #[test]
    fn query_pairs_are_deterministic_and_in_range() {
        let g = graphgen::star(100);
        let a = query_pairs(&g, 50, 9);
        let b = query_pairs(&g, 50, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(s, t)| (s as usize) < 100 && (t as usize) < 100));
    }

    #[test]
    fn time_queries_counts_reachable() {
        let pairs = vec![(0, 1), (1, 2), (2, 3)];
        let (_, reachable) = time_queries(&pairs, |s, t| if s + t < 4 { 1 } else { INF_DIST });
        assert_eq!(reachable, 2);
    }
}
