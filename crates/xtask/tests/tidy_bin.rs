//! End-to-end proof that the tidy pass is live: each test builds a
//! throwaway workspace fixture, runs the real `xtask` binary against it
//! with `--root`, and asserts the exit status and the `file:line`
//! diagnostics. One test runs over a consistent fixture and expects
//! `tidy: clean`, so a pass that silently stops finding anything, or
//! starts finding too much, fails here rather than rotting.

use std::path::PathBuf;
use std::process::Command;

/// A self-cleaning fixture workspace under the system temp dir.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("tidy-bin-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    /// Write `contents` at `rel`, creating parent directories.
    fn write(&self, rel: &str, contents: &str) -> &Fixture {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("rel has a parent"))
            .expect("create fixture dirs");
        std::fs::write(path, contents).expect("write fixture file");
        self
    }

    /// Run `xtask tidy --root <fixture> [extra…]`, returning
    /// (exit success, stdout, stderr).
    fn tidy(&self, extra: &[&str]) -> (bool, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg("tidy")
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run xtask");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn loc_pass_flags_a_crate_over_its_budget_and_an_unbudgeted_one() {
    let fx = Fixture::new("loc-violation");
    fx.write("crates/demo/src/lib.rs", "pub fn a() {}\npub fn b() {}\n");
    fx.write("crates/demo/src/deep/more.rs", "pub fn c() {}\n");
    fx.write("crates/other/src/lib.rs", "pub fn d() {}\n");
    fx.write("crates/xtask/loc.budget", "# ceilings\ndemo: 2\n");
    let (ok, _out, err) = fx.tidy(&[]);
    assert!(!ok, "a crate over its ceiling must fail tidy");
    assert!(
        err.contains(
            "tidy: crates/xtask/loc.budget:2: crates/demo has 3 non-test source lines, over its ceiling of 2"
        ),
        "diagnostic must name crate, count and ceiling, got:\n{err}"
    );
    assert!(err.contains("crates/other has 1 non-test source lines and no ceiling"), "got:\n{err}");

    fx.write("crates/xtask/loc.budget", "demo: 3\nother: 1\n");
    let (ok, _out, err) = fx.tidy(&[]);
    assert!(ok, "raising the budget in the same tree must pass, stderr:\n{err}");

    // Test lines are free: a test module that alone is several times
    // the ceiling leaves the crate at its three shipped lines.
    let tests: String = (0..20).map(|i| format!("    #[test]\n    fn t{i}() {{}}\n")).collect();
    fx.write(
        "crates/demo/src/deep/more.rs",
        &format!("pub fn c() {{}}\n#[cfg(test)]\nmod tests {{\n{tests}}}\n"),
    );
    let (ok, _out, err) = fx.tidy(&[]);
    assert!(ok, "a #[cfg(test)] module must not count against the ceiling, stderr:\n{err}");
}

#[test]
fn loc_pass_flags_a_line_above_its_count_and_a_line_naming_no_crate() {
    let fx = Fixture::new("loc-slack");
    fx.write("crates/demo/src/lib.rs", "pub fn a() {}\npub fn b() {}\n");
    fx.write("crates/xtask/loc.budget", "demo: 5\ngone: 9\n");
    let (ok, _out, err) = fx.tidy(&[]);
    assert!(!ok, "slack in the budget must fail tidy");
    assert!(
        err.contains(
            "tidy: crates/xtask/loc.budget:1: crates/demo has 2 non-test source lines, \
             under its ceiling of 5: lower this line to 2"
        ),
        "got:\n{err}"
    );
    assert!(
        err.contains("tidy: crates/xtask/loc.budget:2: no crate crates/gone: delete this line"),
        "got:\n{err}"
    );
}

/// Every kind of finding in one tree — over a ceiling, under one, a
/// crate with no line, a line with no crate — and the summary counts
/// them all.
#[test]
fn full_suite_counts_findings_across_passes() {
    let fx = Fixture::new("all-dirty");
    fx.write("crates/over/src/lib.rs", "pub fn a() {}\npub fn b() {}\n");
    fx.write("crates/under/src/lib.rs", "pub fn c() {}\n");
    fx.write("crates/loose/src/lib.rs", "pub fn d() {}\n");
    fx.write("crates/xtask/loc.budget", "over: 1\nunder: 4\ngone: 7\n");
    let (ok, _out, err) = fx.tidy(&[]);
    assert!(!ok);
    assert!(err.contains("tidy: crates/xtask/loc.budget:1: crates/over"), "got:\n{err}");
    assert!(err.contains("tidy: crates/xtask/loc.budget:2: crates/under"), "got:\n{err}");
    assert!(err.contains("tidy: crates/xtask/loc.budget:3: no crate crates/gone"), "got:\n{err}");
    assert!(err.contains("crates/loose has 1 non-test source lines and no ceiling"), "got:\n{err}");
    assert!(err.contains("tidy: 4 finding(s)"), "summary must count findings, got:\n{err}");
}

#[test]
fn full_suite_reports_clean_on_a_consistent_tree() {
    let fx = Fixture::new("all-clean");
    fx.write("crates/xtask/loc.budget", "demo: 3\n");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn double(x: u32) -> u32 {\n    x.saturating_mul(2)\n}\n",
    );
    let (ok, out, err) = fx.tidy(&[]);
    assert!(ok, "consistent fixture must pass, stderr:\n{err}");
    assert!(out.contains("tidy: clean"), "got stdout:\n{out}");
}

/// `--pass` is gone with every pass but `loc`. A script that still
/// names one — `unsafe`, retired when the unsafe rules became lint
/// settings; `proto`, `panic` and `locks` before it — fails loudly
/// rather than running and reporting `tidy: clean`.
#[test]
fn unknown_pass_name_is_an_error_not_a_clean_run() {
    let fx = Fixture::new("unknown-pass");
    fx.write("crates/xtask/loc.budget", "");
    for pass in ["unsafe", "loc", "proto", "panic", "locks"] {
        let (ok, out, err) = fx.tidy(&["--pass", pass]);
        assert!(!ok, "a pass name must not count as clean, stdout:\n{out}");
        assert!(err.contains("unknown flag `--pass`"), "got:\n{err}");
    }
}
