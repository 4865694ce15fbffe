//! `hopdb-cli build --external` checks its budget before it does any
//! work: `--block-bytes 0` used to run every iteration and then panic
//! (`attempt to divide by zero` in the I/O report) with no index
//! written. The degenerate budgets that *do* work — they clamp — keep
//! working.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hopdb-cli")).args(args).output().expect("spawn hopdb-cli")
}

#[test]
fn zero_block_bytes_is_refused_before_the_graph_is_read() {
    let dir = std::env::temp_dir().join(format!("hopdb-buildargs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // The edge list does not exist: a refusal that names the option, and
    // not the file, came before any attempt to read the graph.
    let (missing, index) = (path("no-such-graph.txt"), path("zero.idx"));
    let out = cli(&["build", "-i", &missing, "-o", &index, "--external", "--block-bytes", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--block-bytes"), "{stderr}");
    assert!(!stderr.contains("cannot open") && !stderr.contains("panicked"), "{stderr}");
    assert!(!std::path::Path::new(&index).exists(), "no index may be written");

    let (graph, mem, ext) = (path("g.txt"), path("mem.idx"), path("ext.idx"));
    assert!(cli(&["gen", "--vertices", "40", "--seed", "3", "-o", &graph]).status.success());
    assert!(cli(&["build", "-i", &graph, "-o", &mem]).status.success());
    for budget in [["--memory-records", "0"], ["--memory-records", "1"], ["--block-bytes", "1"]] {
        let out = cli(&["build", "-i", &graph, "-o", &ext, "--external", budget[0], budget[1]]);
        assert!(out.status.success(), "{budget:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(std::fs::read(&ext).unwrap(), std::fs::read(&mem).unwrap(), "{budget:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
