#![forbid(unsafe_code)]
//! `cargo run -p xtask -- tidy`: run the line-count ratchet and exit
//! nonzero on any finding. See the crate docs for what it checks.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- tidy [--root DIR]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd != "tidy" {
        eprintln!("unknown command `{cmd}`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Default to the workspace this binary was built from, so the tool
    // works no matter where cargo was invoked.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));
    let diags = match xtask::loc_budget::check(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("tidy: failed to read sources under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for d in &diags {
        eprintln!("tidy: {d}");
    }
    if !diags.is_empty() {
        eprintln!("tidy: {} finding(s)", diags.len());
        return ExitCode::FAILURE;
    }
    println!("tidy: clean");
    ExitCode::SUCCESS
}
