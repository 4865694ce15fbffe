#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # bench — the evaluation harness (Section 8)
//!
//! One binary per table/figure of the paper:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table6` | performance comparison: index size / build time / memory & disk query time for BIDIJ, IS-Label, PLL, HCL*, HopDb(+BP) |
//! | `table7` | iterations, avg label size, top-vertex coverage (small hitting sets) |
//! | `table8` | Hop-Doubling vs Hop-Stepping vs Hybrid (+ ranking & switch-point ablations) |
//! | `fig8`   | label coverage vs top-ranked vertex share curves |
//! | `fig9`   | GLP scalability sweeps: density and vertex count |
//! | `fig10`  | per-iteration growing/pruning factors and size ratios |
//!
//! Real datasets are replaced by GLP-generated scale-free graphs with
//! matched shapes (the SNAP/KONECT originals are not redistributable —
//! README "Paper tables and figures"); every binary honours the
//! `BENCH_SCALE` environment variable (`small` / `medium` / `large`,
//! default `medium`) so the whole suite can run as a smoke test or as a
//! full evaluation. Speed and size numbers the repo is judged by come
//! from `hopbench` (`benchmark/`), not from here.

use std::time::{Duration, Instant};

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

/// The Table 6 / Table 7 workload suite.
pub fn suite(scale: Scale) -> Vec<Workload> {
    let f = scale.factor();
    let mut v = Vec::new();
    // Undirected unweighted: increasing size, paper-default density.
    for (i, (n, d)) in
        [(5_000 * f, 2.1), (12_000 * f, 3.0), (25_000 * f, 6.0)].into_iter().enumerate()
    {
        v.push(Workload {
            name: format!("u{}k-d{}", n / 1000, d as u32),
            kind: Kind::UndirectedUnweighted,
            graph: glp(&GlpParams::with_density(n, d, 100 + i as u64)),
        });
    }
    // Directed unweighted: oriented GLP with 25% reciprocity.
    for (i, (n, d)) in [(5_000 * f, 2.5), (12_000 * f, 5.0)].into_iter().enumerate() {
        let und = glp(&GlpParams::with_density(n, d, 200 + i as u64));
        v.push(Workload {
            name: format!("d{}k-d{}", n / 1000, d as u32),
            kind: Kind::DirectedUnweighted,
            graph: orient_scale_free(&und, 0.25, 200 + i as u64),
        });
    }
    // Synthetic: the syn-style denser graphs.
    for (i, (n, d)) in [(4_000 * f, 10.0), (10_000 * f, 16.0)].into_iter().enumerate() {
        v.push(Workload {
            name: format!("syn{}k-d{}", n / 1000, d as u32),
            kind: Kind::Synthetic,
            graph: glp(&GlpParams::with_density(n, d, 300 + i as u64)),
        });
    }
    // Undirected weighted: rating-network stand-ins, weights 1..=10.
    for (i, (n, d)) in [(5_000 * f, 3.0), (10_000 * f, 8.0)].into_iter().enumerate() {
        let und = glp(&GlpParams::with_density(n, d, 400 + i as u64));
        v.push(Workload {
            name: format!("w{}k-d{}", n / 1000, d as u32),
            kind: Kind::UndirectedWeighted,
            graph: with_random_weights(&und, 1, 10, 400 + i as u64),
        });
    }
    v
}

/// Parse a `BENCH_THREADS` value: any `usize` (0 = all cores).
fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a thread count (0 = all cores, or 1, 2, …)"))
}

/// Build-worker threads from the `BENCH_THREADS` environment variable
/// (unset = 1 = sequential; 0 = all cores; anything unparsable ends the
/// process with exit status 2). Every harness builds the bit-identical
/// index regardless — the knob only changes build time, so Fig. 8 /
/// Table 6 runs can report scaling at 1/2/4/8 threads.
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
    let elapsed = start.elapsed();
    (elapsed.as_secs_f64() * 1e6 / pairs.len().max(1) as f64, reachable)
}

/// Human-readable MB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Human-readable seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
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
