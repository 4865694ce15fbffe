//! Pass 2: the line-count ratchet. Every crate under `crates/` has a
//! ceiling in the checked-in `crates/xtask/loc.budget` (`dir: lines`,
//! one crate per line, `#` comments); the pass counts the lines of the
//! crate's `src/**/*.rs` that sit outside `#[cfg(test)]` regions
//! ([`crate::scan::Line::in_test`]) and fails when the sum exceeds the
//! ceiling or the crate has none. Test lines are free — a PR that adds
//! tests never has to raise a ceiling; what is ratcheted is the code
//! that ships. Growth of that is still possible — by raising the line
//! in the same PR, where a reviewer sees it — but never silently; a PR
//! that shrinks a crate lowers its line to lock the gain in.

use crate::scan::SourceFile;
use crate::unsafe_audit::workspace_sources;
use crate::Diagnostic;
use std::collections::BTreeMap;
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
            continue; // vendor/ shims are not ours to budget
        };
        *counts.entry(dir.to_string()).or_default() +=
            shipped_lines(&SourceFile::read(root, &rel)?);
    }
    Ok(check_counts(&counts, &budget))
}

/// Lines of `file` outside `#[cfg(test)]` regions.
fn shipped_lines(file: &SourceFile) -> usize {
    file.lines.iter().filter(|line| !line.in_test).count()
}

/// Hold per-crate line counts (keyed by directory name under `crates/`)
/// against the budget text.
pub fn check_counts(counts: &BTreeMap<String, usize>, budget: &str) -> Vec<Diagnostic> {
    let diag =
        |line: usize, message: String| Diagnostic { file: BUDGET.to_string(), line, message };
    let mut diags = Vec::new();
    let mut ceilings: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (idx, raw) in budget.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once(':').map(|(dir, n)| (dir.trim(), n.trim().parse::<usize>())) {
            Some((dir, Ok(ceiling))) => {
                ceilings.insert(dir, (ceiling, idx + 1));
            }
            _ => diags.push(diag(idx + 1, format!("expected `dir: lines`, got `{line}`"))),
        }
    }
    for (dir, &count) in counts {
        match ceilings.get(dir.as_str()) {
            Some(&(ceiling, line)) if count > ceiling => diags.push(diag(
                line,
                format!(
                    "crates/{dir} has {count} non-test source lines, over its ceiling of {ceiling}: \
                     shrink it, or raise this line in the same PR"
                ),
            )),
            Some(_) => {}
            None => diags.push(diag(
                budget.lines().count() + 1,
                format!(
                    "crates/{dir} has {count} non-test source lines and no ceiling: add `{dir}: {count}`"
                ),
            )),
        }
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
    fn at_or_under_the_ceiling_passes() {
        let budget = "# header\ncore: 100  # hopdb\nserver: 50\n";
        assert!(check_counts(&counts(&[("core", 100), ("server", 7)]), budget).is_empty());
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
        let file = SourceFile::parse("crates/core/src/lib.rs", &src);
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
