#![forbid(unsafe_code)]

//! `hopbench` — the repo benchmark.
//!
//! ```text
//! hopbench --workload NAME --seed N --seconds S --trace 0|1   (what BENCHMARK.json's command runs)
//! hopbench run   --workload NAME [--seed N] [--seconds S]     (= --trace 0)
//! hopbench trace --workload NAME [--seed N] [--seconds S]     (= --trace 1)
//! hopbench aa [--sets 2] [--runs N] [--seconds S] [--seed N]  (A/A repeatability check)
//! hopbench manifest                                           (prints BENCHMARK.json)
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits 1 when any checked
//! answer was wrong and 2 when it could not run at all. See
//! `benchmark/README.md` for the catalogue and the estimators.

use std::path::PathBuf;
use std::process::ExitCode;

use hopbench::run::RunOptions;
use hopbench::{aa, host, report, run, spec, trace};

const USAGE: &str =
    "usage: hopbench [run|trace|aa|manifest] --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--sets K] [--runs N] [--vertices N] [--inject-fault]\n\
workloads: und-mem-read, dir-ext-read, und-mem-writes";

/// Flags after the optional subcommand, as `(flag, value)` pairs;
/// `--inject-fault` takes no value.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = if flag == "--inject-fault" {
                String::new()
            } else {
                it.next().ok_or_else(|| format!("`{flag}` needs a value"))?.clone()
            };
            flags.push((flag.clone(), value));
        }
        Ok(Args(flags))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for `{flag}`")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &raw[1..]),
        _ => ("", &raw[..]),
    };
    let args = Args::parse(rest)?;
    let out_dir = args.get("--out").map_or_else(host::default_out_dir, PathBuf::from);
    let io = |e: std::io::Error| e.to_string();

    match command {
        "manifest" => {
            print!("{}", spec::manifest_json());
            return Ok(ExitCode::SUCCESS);
        }
        "build-once" => {
            let spec = workload(&args)?;
            let graph = args.get("--graph").ok_or("build-once needs --graph")?;
            let out = args.get("--out").ok_or("build-once needs --out")?;
            run::build_once(spec, graph.as_ref(), out.as_ref()).map_err(io)?;
            return Ok(ExitCode::SUCCESS);
        }
        "aa" => {
            let opts = aa::Options {
                sets: args.number("--sets", 2)?,
                runs: args.number("--runs", 3)?,
                seconds: args.number("--seconds", spec::RUN_SECONDS)?,
                seed: args.number("--seed", 1)?,
                out_dir,
            };
            let passed = aa::run(&opts).map_err(io)?;
            return Ok(if passed { ExitCode::SUCCESS } else { ExitCode::FAILURE });
        }
        "" | "run" | "trace" => {}
        other => return Err(format!("unknown command `{other}`")),
    }

    let spec = workload(&args)?;
    let traced = match (command, args.get("--trace")) {
        ("trace", _) | (_, Some("1")) => true,
        ("run", _) | (_, None | Some("0")) => false,
        (_, Some(other)) => return Err(format!("bad value `{other}` for `--trace`")),
    };
    let opts = RunOptions {
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", spec::RUN_SECONDS as f64)?,
        out_dir,
        inject_fault: args.get("--inject-fault").is_some(),
    };
    let (title, report) = if traced {
        (
            format!("{} (traced, seed {}): per-layer metrics", spec.name, opts.seed),
            trace::run(spec, &opts),
        )
    } else {
        (format!("{} (seed {}): end-to-end metrics", spec.name, opts.seed), run::run(spec, &opts))
    };
    let report = report.map_err(io)?;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric `{}` is not a finite number ({})", m.name, m.value));
    }
    print!("{}", report::table(&title, &report));
    println!("{}", report::result_line(&report));
    Ok(if report.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The workload `--workload` names. `--vertices N` shrinks its graph for
/// smoke tests; numbers from a shrunken run compare with nothing.
fn workload(args: &Args) -> Result<&'static spec::WorkloadSpec, String> {
    let name = args.get("--workload").ok_or("missing --workload")?;
    let spec = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    match args.number("--vertices", spec.vertices)? {
        n if n == spec.vertices => Ok(spec),
        n => Ok(Box::leak(Box::new(spec::WorkloadSpec { vertices: n, ..spec.clone() }))),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hopbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
