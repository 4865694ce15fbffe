//! End-to-end proof that every tidy pass is live: each test builds a
//! throwaway workspace fixture containing one deliberate violation,
//! runs the real `xtask` binary against it with `--root`, and asserts
//! both the nonzero exit status and the `file:line` diagnostic. A
//! final test runs the full suite over a consistent fixture and
//! expects `tidy: clean`, so a pass that silently stops finding
//! anything fails here rather than rotting.

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

    /// Run `xtask tidy --root <fixture> [--pass <pass>]`, returning
    /// (exit success, stdout, stderr).
    fn tidy(&self, pass: Option<&str>) -> (bool, String, String) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
        cmd.arg("tidy").arg("--root").arg(&self.root);
        if let Some(p) = pass {
            cmd.arg("--pass").arg(p);
        }
        let out = cmd.output().expect("run xtask");
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
fn unsafe_pass_flags_undocumented_block_with_file_and_line() {
    let fx = Fixture::new("unsafe-violation");
    fx.write("crates/demo/src/lib.rs", "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
    let (ok, _out, err) = fx.tidy(Some("unsafe"));
    assert!(!ok, "undocumented unsafe block must fail tidy");
    assert!(
        err.contains("crates/demo/src/lib.rs:2"),
        "diagnostic must carry file:line, got:\n{err}"
    );
    assert!(err.contains("SAFETY"), "diagnostic must name the missing comment, got:\n{err}");
}

#[test]
fn unsafe_pass_accepts_documented_block_and_inventories_it() {
    let fx = Fixture::new("unsafe-ok");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn peek(p: *const u8) -> u8 {\n    // SAFETY: caller contract says p is valid.\n    unsafe { *p }\n}\n",
    );
    let (ok, out, err) = fx.tidy(Some("unsafe"));
    assert!(ok, "documented unsafe must pass, stderr:\n{err}");
    assert!(
        out.contains("crates/demo/src/lib.rs:3"),
        "inventory must list the documented site, got:\n{out}"
    );
}

#[test]
fn loc_pass_flags_a_crate_over_its_budget_and_an_unbudgeted_one() {
    let fx = Fixture::new("loc-violation");
    fx.write("crates/demo/src/lib.rs", "pub fn a() {}\npub fn b() {}\n");
    fx.write("crates/demo/src/deep/more.rs", "pub fn c() {}\n");
    fx.write("crates/other/src/lib.rs", "pub fn d() {}\n");
    fx.write("crates/xtask/loc.budget", "# ceilings\ndemo: 2\n");
    let (ok, _out, err) = fx.tidy(Some("loc"));
    assert!(!ok, "a crate over its ceiling must fail tidy");
    assert!(
        err.contains(
            "crates/xtask/loc.budget:2: crates/demo has 3 non-test source lines, over its ceiling of 2"
        ),
        "diagnostic must name crate, count and ceiling, got:\n{err}"
    );
    assert!(err.contains("crates/other has 1 non-test source lines and no ceiling"), "got:\n{err}");

    fx.write("crates/xtask/loc.budget", "demo: 3\nother: 1\n");
    let (ok, _out, err) = fx.tidy(Some("loc"));
    assert!(ok, "raising the budget in the same tree must pass, stderr:\n{err}");

    // Test lines are free: a test module that alone is several times
    // the ceiling leaves the crate at its three shipped lines.
    let tests: String = (0..20).map(|i| format!("    #[test]\n    fn t{i}() {{}}\n")).collect();
    fx.write(
        "crates/demo/src/deep/more.rs",
        &format!("pub fn c() {{}}\n#[cfg(test)]\nmod tests {{\n{tests}}}\n"),
    );
    let (ok, _out, err) = fx.tidy(Some("loc"));
    assert!(ok, "a #[cfg(test)] module must not count against the ceiling, stderr:\n{err}");
}

#[test]
fn full_suite_reports_clean_on_a_consistent_tree() {
    let fx = Fixture::new("all-clean");
    fx.write("crates/xtask/loc.budget", "demo: 3\n");
    fx.write(
        "crates/demo/src/lib.rs",
        "pub fn double(x: u32) -> u32 {\n    x.saturating_mul(2)\n}\n",
    );
    let (ok, out, err) = fx.tidy(None);
    assert!(ok, "consistent fixture must pass every pass, stderr:\n{err}");
    assert!(out.contains("tidy: clean"), "got stdout:\n{out}");
}

#[test]
fn full_suite_counts_findings_across_passes() {
    let fx = Fixture::new("all-dirty");
    // One unsafe violation, in a crate one line over its budget.
    fx.write("crates/xtask/loc.budget", "demo: 2\n");
    fx.write("crates/demo/src/lib.rs", "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
    let (ok, _out, err) = fx.tidy(None);
    assert!(!ok);
    assert!(err.contains("tidy[unsafe]: crates/demo/src/lib.rs:2"), "got:\n{err}");
    assert!(err.contains("tidy[loc]: crates/xtask/loc.budget:1"), "got:\n{err}");
    assert!(err.contains("2 finding(s)"), "summary must count findings, got:\n{err}");
}

/// A pass name the binary does not know fails loudly rather than
/// running nothing and reporting `tidy: clean`. The three here are
/// retired: `proto` when the wire contract became a single declaration,
/// `panic` and `locks` when clippy lints and a type took their checks.
#[test]
fn unknown_pass_name_is_an_error_not_a_clean_run() {
    let fx = Fixture::new("unknown-pass");
    for pass in ["proto", "panic", "locks"] {
        let (ok, out, err) = fx.tidy(Some(pass));
        assert!(!ok, "an unknown pass must not count as clean, stdout:\n{out}");
        assert!(err.contains(&format!("unknown pass `{pass}`")), "got:\n{err}");
    }
}
