#![forbid(unsafe_code)]
//! In-tree static-analysis suite (`cargo run -p xtask -- tidy`),
//! rustc-`tidy` style: zero dependencies, a hand-rolled line/token
//! scanner, and two independent passes that each print `file:line`
//! diagnostics and make the binary exit nonzero:
//!
//! 1. [`unsafe_audit`] — every `unsafe` block/fn must carry a
//!    `// SAFETY:` comment (`# Safety` doc section for `unsafe fn`),
//!    and the pass emits an inventory of all unsafe sites.
//! 2. [`loc_budget`] — hold each crate's non-test source lines against
//!    its ceiling in the checked-in `crates/xtask/loc.budget`.

pub mod loc_budget;
pub mod scan;
pub mod unsafe_audit;

use std::fmt;
use std::path::Path;

/// One `file:line` finding from a tidy pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// Result of running every pass: diagnostics per pass, in run order.
pub struct TidyReport {
    /// `(pass name, findings)` for each pass that ran.
    pub passes: Vec<(&'static str, Vec<Diagnostic>)>,
    /// The unsafe-site inventory (printed even when the audit is clean).
    pub inventory: Vec<unsafe_audit::UnsafeSite>,
}

impl TidyReport {
    /// Total number of findings across all passes.
    pub fn total(&self) -> usize {
        self.passes.iter().map(|(_, d)| d.len()).sum()
    }
}

/// The pass names `--pass` takes, in run order.
pub const PASSES: [&str; 2] = ["unsafe", "loc"];

/// Run every tidy pass against the workspace rooted at `root`.
/// `only` restricts the run to a single pass name.
pub fn run_tidy(root: &Path, only: Option<&str>) -> std::io::Result<TidyReport> {
    let mut passes = Vec::new();
    let mut inventory = Vec::new();
    let want = |name: &str| only.is_none_or(|o| o == name);
    if want("unsafe") {
        let (sites, diags) = unsafe_audit::check(root)?;
        inventory = sites;
        passes.push(("unsafe", diags));
    }
    if want("loc") {
        passes.push(("loc", loc_budget::check(root)?));
    }
    Ok(TidyReport { passes, inventory })
}
