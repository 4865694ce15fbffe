//! The line-count ratchet. Every crate under `crates/` has a line in
//! the checked-in `crates/xtask/loc.budget` (`dir: lines`, one crate
//! per line, `#` comments); the pass counts the lines of the crate's
//! `src/**/*.rs` that sit outside `#[cfg(test)]` regions
//! ([`crate::scan::Line::in_test`]) and holds the line to that count
//! both ways. Test lines are free — a PR that adds tests never has to
//! touch the budget; what is ratcheted is the code that ships. Growth
//! of that is still possible — by raising the line in the same PR,
//! where a reviewer sees it — but never silently; and a crate that
//! shrinks fails until its line is lowered, so the gain stays.

use crate::scan::SourceFile;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Root-relative path of the checked-in budget.
pub const BUDGET: &str = "crates/xtask/loc.budget";

/// Count every crate's non-test source lines under `root` and hold them
/// against the checked-in budget.
pub fn check(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let budget = std::fs::read_to_string(root.join(BUDGET)).unwrap_or_default();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for rel in workspace_sources(root)? {
        let Some(dir) = rel.strip_prefix("crates/").and_then(|r| r.split('/').next()) else {
            continue;
        };
        *counts.entry(dir.to_string()).or_default() +=
            shipped_lines(&SourceFile::read(&root.join(&rel))?);
    }
    Ok(check_counts(&counts, &budget))
}

/// Every `.rs` file under `crates/*/src`, as root-relative paths with
/// `/` separators. `vendor/` shims are not ours to budget.
fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for member in std::fs::read_dir(crates)? {
            let src = member?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// Recursively collect `.rs` files under `dir` as root-relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Lines of `file` outside `#[cfg(test)]` regions.
fn shipped_lines(file: &SourceFile) -> usize {
    file.lines.iter().filter(|line| !line.in_test).count()
}

/// Hold per-crate line counts (keyed by directory name under `crates/`)
/// against the budget text: every line must name a crate and equal its
/// count, and every crate must have a line.
pub fn check_counts(counts: &BTreeMap<String, usize>, budget: &str) -> Vec<Diagnostic> {
    let diag =
        |line: usize, message: String| Diagnostic { file: BUDGET.to_string(), line, message };
    let mut diags = Vec::new();
    let mut budgeted = BTreeSet::new();
    for (idx, raw) in budget.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parsed = line.split_once(':').map(|(dir, n)| (dir.trim(), n.trim().parse::<usize>()));
        let Some((dir, Ok(ceiling))) = parsed else {
            diags.push(diag(idx + 1, format!("expected `dir: lines`, got `{line}`")));
            continue;
        };
        budgeted.insert(dir);
        let message = match counts.get(dir) {
            None => format!("no crate crates/{dir}: delete this line"),
            Some(&count) if count > ceiling => format!(
                "crates/{dir} has {count} non-test source lines, over its ceiling of {ceiling}: \
                 shrink it, or raise this line in the same PR"
            ),
            Some(&count) if count < ceiling => format!(
                "crates/{dir} has {count} non-test source lines, under its ceiling of {ceiling}: \
                 lower this line to {count}"
            ),
            Some(_) => continue,
        };
        diags.push(diag(idx + 1, message));
    }
    for (dir, count) in counts.iter().filter(|(dir, _)| !budgeted.contains(dir.as_str())) {
        diags.push(diag(
            budget.lines().count() + 1,
            format!(
                "crates/{dir} has {count} non-test source lines and no ceiling: add `{dir}: {count}`"
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|&(dir, n)| (dir.to_string(), n)).collect()
    }

    #[test]
    fn at_the_ceiling_passes() {
        let budget = "# header\ncore: 100  # hopdb\nserver: 50\n";
        assert!(check_counts(&counts(&[("core", 100), ("server", 50)]), budget).is_empty());
    }

    #[test]
    fn under_the_ceiling_asks_to_lower_the_line() {
        let diags =
            check_counts(&counts(&[("core", 100), ("server", 7)]), "core: 100\nserver: 50\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].message.contains("under its ceiling of 50: lower this line to 7"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn a_line_naming_no_crate_is_a_finding() {
        let diags = check_counts(&counts(&[("core", 100)]), "core: 100\ngone: 40\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].message, "no crate crates/gone: delete this line");
    }

    #[test]
    fn over_the_ceiling_names_crate_count_and_ceiling() {
        let diags = check_counts(&counts(&[("core", 101)]), "# header\ncore: 100\n");
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].file.as_str(), diags[0].line), (BUDGET, 2));
        for part in ["crates/core", "101", "100"] {
            assert!(diags[0].message.contains(part), "{}", diags[0].message);
        }
    }

    #[test]
    fn test_regions_are_not_counted() {
        // Two shipped lines, then a test module that alone is far over
        // any ceiling the two lines would fit under.
        let mut src = String::from("pub fn a() {}\npub fn b() {}\n#[cfg(test)]\nmod tests {\n");
        for i in 0..50 {
            src.push_str(&format!("    #[test]\n    fn t{i}() {{}}\n"));
        }
        src.push_str("}\n");
        let file = SourceFile::parse(&src);
        assert_eq!(file.lines.len(), 105);
        assert_eq!(shipped_lines(&file), 2);
        assert!(check_counts(&counts(&[("core", shipped_lines(&file))]), "core: 2\n").is_empty());
    }

    #[test]
    fn unbudgeted_crates_and_malformed_lines_are_findings() {
        let diags = check_counts(&counts(&[("newcrate", 5)]), "core = 100\n");
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("expected `dir: lines`"), "{}", diags[0].message);
        assert!(diags[1].message.contains("newcrate: 5"), "{}", diags[1].message);
    }
}
