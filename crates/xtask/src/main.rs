#![forbid(unsafe_code)]
//! `cargo run -p xtask -- tidy`: run the in-tree static-analysis
//! passes and exit nonzero on any finding. See the crate docs for what
//! each pass checks.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- tidy [--root DIR] [--pass unsafe|loc]";

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
    let mut pass: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--pass" => pass = args.next(),
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A pass that does not exist (retired, or mistyped) must not report
    // a clean run of nothing.
    if let Some(unknown) = pass.as_deref().filter(|pass| !xtask::PASSES.contains(pass)) {
        eprintln!("unknown pass `{unknown}`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    // Default to the workspace this binary was built from, so the tool
    // works no matter where cargo was invoked.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));
    let report = match xtask::run_tidy(&root, pass.as_deref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("tidy: failed to read sources under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if !report.inventory.is_empty() {
        println!("unsafe inventory ({} sites):", report.inventory.len());
        for site in &report.inventory {
            println!(
                "  {}:{} {} [{}]",
                site.file,
                site.line,
                site.kind.label(),
                if site.documented { "documented" } else { "UNDOCUMENTED" },
            );
        }
    }
    for (name, diags) in &report.passes {
        if diags.is_empty() {
            println!("tidy[{name}]: ok");
        } else {
            for d in diags {
                eprintln!("tidy[{name}]: {d}");
            }
        }
    }
    let total = report.total();
    if total > 0 {
        eprintln!("tidy: {total} finding(s)");
        return ExitCode::FAILURE;
    }
    println!("tidy: clean");
    ExitCode::SUCCESS
}
