//! The external build fails closed. Every byte the §4 engine writes goes
//! through `extmem`'s counted files, so a write that fails must surface
//! as the build's `Err` — never as a panic, never as an index — and the
//! build's temp directory must be gone once it returns.
//!
//! `extmem::device::faults` is process-global, so this is its own test
//! binary with one test: no other build in the process can meet an
//! armed fault, and no other reader meets the changed `TMPDIR` at its
//! end, where the store directory cannot be created.

mod labelkit;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hop_doubling::extmem::device::faults;
use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb::external::{build_external, ExternalBuildResult};
use hop_doubling::hopdb::{rank, HopDbConfig};
use hop_doubling::sfgraph::Graph;
use labelkit::image;

/// The `extmem-<pid>-…` store directories of this process left in the
/// system temp directory.
fn leftover_stores() -> Vec<String> {
    let prefix = format!("extmem-{}-", std::process::id());
    let entries = std::fs::read_dir(std::env::temp_dir()).expect("the temp directory lists");
    let names = entries.filter_map(|entry| entry.ok()?.file_name().into_string().ok());
    names.filter(|name| name.starts_with(&prefix)).collect()
}

/// One external build with the write after `n` more successful ones
/// torn; `None` builds with no fault armed. A panic, or a store
/// directory left behind, fails the test naming `n`.
fn build_torn_after(
    g: &Graph,
    cfg: &HopDbConfig,
    n: Option<u64>,
) -> std::io::Result<ExternalBuildResult> {
    if let Some(n) = n {
        faults::short_write_after(n);
    }
    let built = catch_unwind(AssertUnwindSafe(|| build_external(g, cfg, &ExtMemConfig::tiny())));
    faults::reset();
    let leftovers = leftover_stores();
    assert!(leftovers.is_empty(), "write {n:?} torn: the build left {leftovers:?}");
    built.unwrap_or_else(|_| panic!("write {n:?} torn: the build panicked"))
}

#[test]
fn a_torn_write_anywhere_in_an_external_build_is_its_error() {
    let cfg = HopDbConfig { parallelism: 1, ..HopDbConfig::default() };
    let (_, g) = rank(&glp(&GlpParams::with_vertices(2_000, 7)), &cfg);
    let clean = build_torn_after(&g, &cfg, None).expect("the unfaulted build");
    let clean = image(&clean.index);

    // `writes`: the build's write count, the least `n` whose fault never
    // fires. Every probe below it must fail, so probing is itself part
    // of the sweep: double until a build succeeds, then bisect.
    let fails = |n: u64| match build_torn_after(&g, &cfg, Some(n)) {
        Err(_) => true,
        Ok(built) => {
            assert!(
                image(&built.index) == clean,
                "write {n} torn: the build returned another index"
            );
            false
        }
    };
    let mut high = 1;
    while fails(high) {
        high *= 2;
    }
    let mut low = high / 2; // fails, or is 0 (not probed: the spread takes it)
    while high - low > 1 {
        let mid = low + (high - low) / 2;
        if fails(mid) {
            low = mid;
        } else {
            high = mid;
        }
    }
    let writes = high;
    assert!(writes > 32, "the build writes only {writes} times: too few to sweep");
    for step in 0..16 {
        let n = writes * step / 16;
        assert!(fails(n), "write {n} of {writes} torn: the build succeeded");
    }
    assert!(fails(writes - 1), "the last write torn: the build succeeded");

    // A store directory that cannot be created is the build's error too:
    // the temp directory is pointed under a regular file. This binary's
    // one test is the only reader of `TMPDIR` while it is changed.
    let blocker = std::env::temp_dir().join(format!("hopdb-no-store-{}", std::process::id()));
    std::fs::write(&blocker, b"a file, not a directory").expect("the blocker writes");
    let saved = std::env::var_os("TMPDIR");
    std::env::set_var("TMPDIR", blocker.join("under-a-file"));
    let built = catch_unwind(AssertUnwindSafe(|| build_external(&g, &cfg, &ExtMemConfig::tiny())));
    match saved {
        Some(dir) => std::env::set_var("TMPDIR", dir),
        None => std::env::remove_var("TMPDIR"),
    }
    std::fs::remove_file(&blocker).ok();
    match built {
        Ok(Err(_)) => {}
        Ok(Ok(_)) => panic!("a store under a regular file: the build returned an index"),
        Err(_) => panic!("a store under a regular file: the build panicked"),
    }
}
