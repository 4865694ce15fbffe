#![forbid(unsafe_code)]
//! In-tree static analysis (`cargo run -p xtask -- tidy`), rustc-`tidy`
//! style: zero dependencies, a hand-rolled line scanner, and one pass,
//! [`loc_budget`], that holds each crate's non-test source lines to its
//! line in the checked-in `crates/xtask/loc.budget` and prints
//! `file:line` diagnostics.
//!
//! The other rules live in the compiler. The unsafe rules are lint
//! settings in the workspace `Cargo.toml` (`unsafe_code`,
//! `unsafe_op_in_unsafe_fn`, `undocumented_unsafe_blocks`,
//! `missing_safety_doc`), and the unsafe inventory is the list of
//! modules that allow the `unsafe_code` lint.

pub mod loc_budget;
pub mod scan;

use std::fmt;

/// One `file:line` finding.
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
