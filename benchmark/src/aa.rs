//! `hopbench aa`: run the same code in alternating sets and check that
//! the sets agree within the benchmark's own bounds.
//!
//! This is the repeatability criterion the driver applies before it
//! accepts the benchmark, run the way the driver runs it: every run is a
//! fresh process, every run of a set has its own seed. For each workload
//! and end-to-end metric it prints both medians, the quartiles, each
//! set's spread (distance between quartiles as a share of the median)
//! and how far the medians are apart, and fails a pair when a spread or
//! that distance — in either direction: the code is the same — exceeds
//! the metric's bound. `setup_s` is exempt from the spread rule, as it
//! is in the driver.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::report::parse_result_line;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{summarize, Summary};

/// `hopbench aa` parameters.
pub struct Options {
    /// Sets of runs (alternating: run `i` of every set before run `i+1`).
    pub sets: usize,
    /// Runs per set and workload; run `i` uses seed `seed + i`.
    pub runs: usize,
    /// `--seconds` of each run.
    pub seconds: u64,
    /// First seed.
    pub seed: u64,
    /// Scratch directory handed to the child runs.
    pub out_dir: PathBuf,
}

type Values = BTreeMap<(usize, &'static str, String), Vec<f64>>;

fn child_run(opts: &Options, workload: &str, seed: u64) -> std::io::Result<Vec<(String, f64)>> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out_dir)
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match (output.status.success(), parsed) {
        (true, Some((true, values))) => Ok(values),
        _ => Err(std::io::Error::other(format!(
            "run of {workload} seed {seed} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ))),
    }
}

/// How far the sets' medians are apart: the distance between the best
/// and the worst of them as a share of the best. Both sets ran the same
/// code, so a difference in either direction is disagreement — a set
/// that reads 30 % *better* than the other fails a 10 % bound exactly as
/// one that reads 30 % worse.
fn disagreement(better: Better, medians: &[f64]) -> f64 {
    let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match better {
        Better::Lower => (hi - lo) / lo,
        Better::Higher => (hi - lo) / hi,
    }
}

fn verdict(decl_name: &str, bound: f64, better: Better, sets: &[Summary]) -> (String, bool) {
    let medians: Vec<f64> = sets.iter().map(|s| s.median).collect();
    let apart = disagreement(better, &medians);
    let too_wide = decl_name != "setup_s" && sets.iter().any(|s| s.spread() > bound);
    let mut line = String::new();
    for (i, s) in sets.iter().enumerate() {
        line.push_str(&format!(
            "  set{i} med {:>14.5} [q1 {:.5} q3 {:.5}] spread {:>5.1}%",
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0
        ));
    }
    line.push_str(&format!("  apart {:>5.1}%  bound {:.0}%", apart * 100.0, bound * 100.0));
    (line, !(apart > bound || too_wide))
}

/// Run the A/A check; returns whether every workload/metric pair passed.
pub fn run(opts: &Options) -> std::io::Result<bool> {
    if opts.sets < 2 || opts.runs < 2 {
        // Quartiles need two values, agreement two sets.
        return Err(std::io::Error::other("aa needs --sets >= 2 and --runs >= 2"));
    }
    let mut values: Values = BTreeMap::new();
    for run in 0..opts.runs {
        for set in 0..opts.sets {
            for w in &WORKLOADS {
                let seed = opts.seed + run as u64;
                eprintln!("hopbench aa: set {set} run {run} {} seed {seed}", w.name);
                for (metric, value) in child_run(opts, w.name, seed)? {
                    values.entry((set, w.name, metric)).or_default().push(value);
                }
            }
        }
    }

    let mut all_passed = true;
    println!(
        "hopbench aa: {} sets x {} runs x {} s, seeds {}..{}",
        opts.sets,
        opts.runs,
        opts.seconds,
        opts.seed,
        opts.seed + opts.runs as u64 - 1
    );
    for w in &WORKLOADS {
        println!("{}", w.name);
        for decl in &END_TO_END {
            let sets: Vec<Summary> = (0..opts.sets)
                .map(|set| summarize(&values[&(set, w.name, decl.name.to_string())]))
                .collect();
            let (line, passed) = verdict(decl.name, decl.bound, decl.better, &sets);
            all_passed &= passed;
            println!("  {:<26}{line}  {}", decl.name, if passed { "PASS" } else { "FAIL" });
        }
    }
    println!("hopbench aa: {}", if all_passed { "PASS" } else { "FAIL" });
    Ok(all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(median: f64) -> Summary {
        Summary { count: 10, q1: median * 0.99, median, q3: median * 1.01 }
    }

    #[test]
    fn sets_that_disagree_fail_in_either_direction() {
        let verdict = |better, a, b| verdict("build_s", 0.10, better, &[at(a), at(b)]).1;
        assert!(verdict(Better::Lower, 100.0, 109.0));
        assert!(!verdict(Better::Lower, 100.0, 112.0));
        // The second set reading much *better* is the same disagreement.
        assert!(!verdict(Better::Lower, 100.0, 70.0));
        assert!(!verdict(Better::Higher, 100.0, 140.0));
        assert!(!verdict(Better::Higher, 100.0, 88.0));
        assert!(verdict(Better::Higher, 100.0, 95.0));
        // Relative to the better median: 100 vs 90 is 11.1 % of 90.
        assert!(!verdict(Better::Lower, 100.0, 90.0));
        assert!(verdict(Better::Higher, 100.0, 90.5));
    }

    #[test]
    fn wide_spread_fails_except_for_setup() {
        let tight = Summary { count: 10, q1: 99.0, median: 100.0, q3: 101.0 };
        let wide = Summary { count: 10, q1: 80.0, median: 100.0, q3: 120.0 };
        assert!(verdict("build_s", 0.10, Better::Lower, &[tight, tight]).1);
        assert!(!verdict("build_s", 0.10, Better::Lower, &[tight, wide]).1);
        assert!(verdict("setup_s", 0.10, Better::Lower, &[tight, wide]).1);
        // Three runs are judged like ten: their quartiles are their extremes.
        let few = Summary { count: 3, ..wide };
        assert!(!verdict("build_s", 0.10, Better::Lower, &[tight, few]).1);
    }
}
