//! Whole-program smoke tests: run the real binary on shrunken graphs
//! (`--vertices`, so a debug build finishes in seconds) and check what
//! the driver will check — the result line, the exit code, and that the
//! emitted metric names are exactly the declared ones.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use hopbench::report::parse_result_line;
use hopbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Tests run on parallel threads: each invocation gets its own `--out`.
static INVOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn hopbench(args: &[&str]) -> (Option<i32>, String) {
    let out_dir = std::env::temp_dir().join(format!(
        "hopbench-smoke-{}-{}",
        std::process::id(),
        INVOCATIONS.fetch_add(1, Ordering::Relaxed)
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_hopbench"))
        .args(args)
        .args(["--vertices", "700", "--seconds", "0", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn hopbench");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.code() == Some(2) {
        panic!("hopbench {args:?} could not run: {}", String::from_utf8_lossy(&output.stderr));
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name())
                .filter(|n| n.to_string_lossy().starts_with("hopbench-"))
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch directories left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&out_dir);
    (output.status.code(), stdout)
}

fn emitted_names(stdout: &str) -> (bool, Vec<String>) {
    let last = stdout.lines().last().expect("hopbench printed nothing");
    let (correct, values) =
        parse_result_line(last).unwrap_or_else(|| panic!("bad result line: {last}"));
    assert!(values.iter().all(|(_, v)| v.is_finite()), "non-finite metric in {last}");
    (correct, values.into_iter().map(|(name, _)| name).collect())
}

#[test]
fn every_workload_emits_exactly_the_declared_end_to_end_metrics() {
    let declared: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    for w in &WORKLOADS {
        // A seed other than the default must pass every check too.
        let (code, stdout) = hopbench(&["--workload", w.name, "--seed", "4242", "--trace", "0"]);
        let (correct, names) = emitted_names(&stdout);
        assert_eq!((code, correct), (Some(0), true), "{}: {stdout}", w.name);
        assert_eq!(names, declared, "{}", w.name);
        let last = stdout.lines().last().unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| !last.contains(&format!("\"{}\": {{\"value\": 0,", m.name))));
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_per_layer_metrics() {
    let declared: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    for w in &WORKLOADS {
        let (code, stdout) = hopbench(&["trace", "--workload", w.name, "--seed", "7"]);
        let (correct, names) = emitted_names(&stdout);
        assert_eq!((code, correct), (Some(0), true), "{}: {stdout}", w.name);
        assert_eq!(names, declared, "{}", w.name);
    }
}

#[test]
fn a_corrupted_expectation_fails_the_run_and_counts_a_failed_operation() {
    let (code, stdout) = hopbench(&["run", "--workload", "und-mem-read", "--inject-fault"]);
    assert_eq!(code, Some(1));
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": false, "), "{last}");
    assert!(last.contains("\"failed\": 1,"), "{last}");
}

#[test]
fn exact_metrics_repeat_on_every_seed() {
    // The graph is the workload's, not the run's: a different seed draws
    // different traffic and must leave every exact metric where it was.
    let run = |seed: &str| {
        let (_, stdout) = hopbench(&["--workload", "dir-ext-read", "--seed", seed, "--trace", "0"]);
        let values = parse_result_line(stdout.lines().last().unwrap()).unwrap().1;
        let pick = |name: &str| values.iter().find(|(n, _)| n == name).unwrap().1;
        [pick("ext_io_mb"), pick("index_bytes_per_vertex"), pick("resident_bytes_per_vertex")]
    };
    let first = run("9");
    assert_eq!(first, run("9"));
    assert_eq!(first, run("10"));
}
