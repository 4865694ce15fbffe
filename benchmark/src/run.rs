//! The end-to-end run: generate inputs, repeat deployment rounds for as
//! long as the run measures, and reduce the samples to the gated
//! end-to-end metrics and the ungated timings printed beside them.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::deploy::{self, Checks, Inputs, RoundFacts, Samples};
use crate::host::Scratch;
use crate::span::Tracer;
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value (a median wherever the metric is a timing).
    pub value: f64,
    /// Spread of the samples behind the value, when there are samples.
    pub samples: Option<Summary>,
    /// A tail percentile worth printing beside a latency median:
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

/// The result of a run.
pub struct Report {
    /// The values of the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Values printed in the table only: the ungated timings of an
    /// end-to-end run (the traced run reports them as metrics).
    pub ungated: Vec<Metric>,
    /// Verified operations.
    pub attempted: u64,
    /// Operations that gave a wrong answer.
    pub failed: u64,
}

/// How a run is parameterised from the command line.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// Directory scratch space and trace files go under.
    pub out_dir: PathBuf,
    /// Corrupt one oracle expectation on purpose.
    pub inject_fault: bool,
}

/// Deployment rounds are never fewer than this, however short
/// `--seconds` is: one warm-up round plus two kept.
const MIN_ROUNDS: usize = 3;

/// Samples, facts and checks gathered by [`rounds`].
pub struct Gathered {
    /// Samples of the kept rounds.
    pub samples: Samples,
    /// Facts of the last round (exact values repeat every round).
    pub facts: RoundFacts,
    /// Kept rounds.
    pub kept: usize,
}

/// Repeat deployment rounds until `seconds` have passed. The first round
/// is discarded: the first in-process build runs on a cold heap and
/// faults its pages in, and the first daemon boot pays for lazy
/// initialisation that later boots do not.
pub fn rounds(
    inputs: &mut Inputs,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    checks: &mut Checks,
    seconds: f64,
    inject_fault: bool,
) -> std::io::Result<Gathered> {
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut done = 0usize;
    loop {
        let mut round_samples = Samples::default();
        let facts = deploy::round(
            inputs,
            scratch,
            tracer,
            &mut round_samples,
            checks,
            inject_fault && done == 0,
        )?;
        done += 1;
        if done > 1 {
            samples.absorb(round_samples);
        }
        // Stop when another round would overshoot the budget by more
        // than half a round.
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / done as f64;
        if done >= MIN_ROUNDS && elapsed + per_round / 2.0 >= seconds {
            return Ok(Gathered { samples, facts, kept: done - 1 });
        }
    }
}

/// What the child process of [`cold_build`] measured.
pub struct ColdBuild {
    /// `VmHWM` of the child, MB.
    pub peak_rss_mb: f64,
    /// Wall time of the child's read → rank → build → write, seconds.
    pub wall_s: f64,
}

/// Re-execute this program as `hopbench build-once`: a fresh process
/// that reads the edge list, ranks, builds and writes the image once —
/// what `hopdb-cli build` holds — and reports its own peak RSS.
pub fn cold_build(
    spec: &WorkloadSpec,
    graph_path: &Path,
    scratch: &mut Scratch,
) -> std::io::Result<ColdBuild> {
    let dir = scratch.fresh_dir("cold")?;
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .arg("build-once")
        .args(["--workload", spec.name])
        .arg("--graph")
        .arg(graph_path)
        .arg("--out")
        .arg(&dir)
        .env("TMPDIR", scratch.root())
        .output()?;
    std::fs::remove_dir_all(&dir)?;
    let text = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| -> Option<f64> {
        text.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.parse().ok())
    };
    match (output.status.success(), field("peak_rss_mb="), field("wall_s=")) {
        (true, Some(peak_rss_mb), Some(wall_s)) => Ok(ColdBuild { peak_rss_mb, wall_s }),
        _ => Err(std::io::Error::other(format!(
            "build-once child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ))),
    }
}

/// The body of `hopbench build-once` (runs in the child).
pub fn build_once(spec: &WorkloadSpec, graph_path: &Path, out_dir: &Path) -> std::io::Result<()> {
    let t0 = Instant::now();
    let g = deploy::read_graph(graph_path, spec.directed)?;
    let ranking = sfgraph::ranking::rank_vertices(&g, &deploy::rank_by(spec.directed));
    let relabeled = sfgraph::ranking::relabel_by_rank(&g, &ranking);
    drop(g);
    let built = deploy::build_labels(spec, &relabeled, 1)?;
    deploy::persist_image(&built.index, &ranking, out_dir)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let peak = crate::host::peak_rss_mb()
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?;
    println!("peak_rss_mb={peak} wall_s={wall_s}");
    Ok(())
}

/// The stages from an edge list on disk to the first correct wire
/// answer, in order.
pub const SETUP_STAGES: [&str; 6] =
    ["read_s", "rank_s", "build_s", "persist_s", "load_s", "boot_s"];

/// The steady-state timings of a deployment, each the median of the
/// samples of its name: ISSUE 13's end-to-end timings, reported but
/// ungated (see `spec::END_TO_END`).
pub const TIMINGS: [&str; 8] = [
    "build_s",
    "query_uniform_ns",
    "query_hub_ns",
    "wire_small_p50_us",
    "wire_large_pairs_per_s",
    "update_cycle_ms",
    "overlay_read_ms",
    "compact_s",
];

fn median_of(samples: &Samples, name: &str) -> f64 {
    let values = samples.get(name);
    assert!(!values.is_empty(), "stage `{name}` produced no samples");
    stats::median(values)
}

/// Sum of the per-stage medians from an edge list on disk to the first
/// correct wire answer.
pub fn setup_seconds(samples: &Samples) -> f64 {
    SETUP_STAGES.iter().map(|stage| median_of(samples, stage)).sum()
}

/// One of [`TIMINGS`] as a table row: median, quartiles and sample
/// count over the kept rounds, and for the small-frame round trip the
/// highest percentile that still has ten samples beyond it.
pub fn timing(samples: &Samples, name: &'static str) -> Metric {
    let decl = PER_LAYER
        .iter()
        .find(|decl| decl.name == name)
        .unwrap_or_else(|| panic!("timing `{name}` is not declared"));
    let trips = samples.get("wire_small_us");
    let tail = (name == "wire_small_p50_us").then(|| {
        let pct = stats::supported_tail(trips.len());
        (pct, stats::percentile(trips, pct))
    });
    Metric {
        name,
        unit: decl.unit,
        value: median_of(samples, name),
        samples: Some(stats::summarize(samples.get(name))),
        tail,
    }
}

/// What the external engine moves through storage to label the
/// workload's graph at the benchmark's memory budget — the paper's I/O
/// cost. Exact. Where the deployment itself builds externally these are
/// its own build's counts; where it builds in memory, the external
/// engine is run once here, untimed, and its labels are checked against
/// the oracle.
pub struct ExternalIo {
    /// Bytes read from the external-memory devices.
    pub read_bytes: u64,
    /// Bytes written to them.
    pub written_bytes: u64,
    /// Sorted runs spilled.
    pub sort_runs: u64,
    /// K-way merge passes.
    pub merge_passes: u64,
}

impl ExternalIo {
    /// Count it for `inputs`' graph.
    pub fn measure(
        inputs: &Inputs,
        facts: &RoundFacts,
        checks: &mut Checks,
    ) -> std::io::Result<ExternalIo> {
        let of = |built: &deploy::Built| ExternalIo {
            read_bytes: built.ext_io.0,
            written_bytes: built.ext_io.1,
            sort_runs: built.sort_runs,
            merge_passes: built.merge_passes,
        };
        if inputs.spec.external {
            return Ok(of(&facts.built));
        }
        let relabeled = sfgraph::ranking::relabel_by_rank(&inputs.graph, &facts.ranking);
        let external = WorkloadSpec { external: true, ..inputs.spec.clone() };
        let built = deploy::build_labels(&external, &relabeled, 1)?;
        let flat = hoplabels::FlatIndex::from_index(&built.index);
        checks.compare(
            "external engine's labels vs sssp on the original graph",
            &flat.query_many(&deploy::to_rank_space(&facts.ranking, &inputs.pool), 1),
            &inputs.pool_truth,
        );
        Ok(of(&built))
    }

    /// `ext_io_mb`: bytes read plus bytes written, in MB.
    pub fn total_mb(&self) -> f64 {
        (self.read_bytes + self.written_bytes) as f64 / 1e6
    }
}

/// Run `spec` end to end with tracing off.
pub fn run(spec: &'static WorkloadSpec, opts: &RunOptions) -> std::io::Result<Report> {
    let mut scratch = Scratch::create(&opts.out_dir, spec.name)?;
    scratch.adopt_as_tmpdir();
    let mut inputs = Inputs::generate(spec, opts.seed, &scratch)?;
    let cold = cold_build(spec, &inputs.graph_path, &mut scratch)?;

    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let g = rounds(
        &mut inputs,
        &mut scratch,
        &mut tracer,
        &mut checks,
        opts.seconds,
        opts.inject_fault,
    )?;
    let ext_io = ExternalIo::measure(&inputs, &g.facts, &mut checks)?;
    eprintln!(
        "hopbench: {}: {} kept rounds, {} checks, {} failed",
        spec.name, g.kept, checks.attempted, checks.failed
    );
    for stage in SETUP_STAGES {
        eprintln!(
            "hopbench:   set-up stage {stage:<10} median {:.6}",
            median_of(&g.samples, stage)
        );
    }

    let n = inputs.graph.num_vertices() as f64;
    let metrics = END_TO_END
        .iter()
        .map(|decl| {
            let value = match decl.name {
                "setup_s" => setup_seconds(&g.samples),
                "build_peak_rss_mb" => cold.peak_rss_mb,
                "index_bytes_per_vertex" => g.facts.image_bytes as f64 / n,
                "resident_bytes_per_vertex" => g.facts.flat.resident_bytes() as f64 / n,
                "ext_io_mb" => ext_io.total_mb(),
                other => unreachable!("end-to-end metric `{other}` has no measurement"),
            };
            Metric { name: decl.name, unit: decl.unit, value, samples: None, tail: None }
        })
        .collect();
    let ungated = TIMINGS.iter().map(|name| timing(&g.samples, name)).collect();
    Ok(Report { metrics, ungated, attempted: checks.attempted, failed: checks.failed })
}
