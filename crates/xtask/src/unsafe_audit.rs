//! Pass 1: the unsafe audit. Every `unsafe` site in the workspace
//! sources must carry a written safety argument — a `// SAFETY:`
//! comment on or immediately above an `unsafe` block/impl, or a
//! `# Safety` doc section on an `unsafe fn` — and the pass emits an
//! inventory of all sites so reviewers can see the full unsafe surface
//! at a glance. The workspace-level
//! `clippy::undocumented_unsafe_blocks = "deny"` lint checks blocks
//! only; this pass also covers `unsafe fn` declarations and `unsafe
//! extern` blocks, and keeps the inventory.

use crate::scan::{word_positions, SourceFile};
use crate::Diagnostic;
use std::path::{Path, PathBuf};

/// What kind of unsafe site a line holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// An `unsafe { … }` block (or `unsafe` expression head).
    Block,
    /// An `unsafe fn` declaration.
    Fn,
    /// An `unsafe impl`.
    Impl,
    /// An `unsafe extern` block.
    Extern,
}

impl SiteKind {
    /// Short label used in the inventory listing.
    pub fn label(self) -> &'static str {
        match self {
            SiteKind::Block => "block",
            SiteKind::Fn => "fn",
            SiteKind::Impl => "impl",
            SiteKind::Extern => "extern",
        }
    }
}

/// One `unsafe` occurrence found by the audit.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    /// Root-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Block, fn, impl, or extern.
    pub kind: SiteKind,
    /// Whether a safety comment was found for it.
    pub documented: bool,
}

/// How many comment/attribute-only lines above a site are searched for
/// its safety comment.
const LOOKBACK: usize = 30;

/// Audit all workspace sources under `root` (the `crates/*/src` and
/// `vendor/*/src` trees). Returns the full inventory plus diagnostics
/// for undocumented sites.
pub fn check(root: &Path) -> std::io::Result<(Vec<UnsafeSite>, Vec<Diagnostic>)> {
    let mut sites = Vec::new();
    for rel in workspace_sources(root)? {
        let file = SourceFile::read(root, &rel)?;
        sites.extend(audit_file(&file));
    }
    let diags = sites
        .iter()
        .filter(|s| !s.documented)
        .map(|s| Diagnostic {
            file: s.file.clone(),
            line: s.line,
            message: format!(
                "undocumented `unsafe` {}: add a `// SAFETY:` comment ({})",
                s.kind.label(),
                if s.kind == SiteKind::Fn {
                    "a `# Safety` doc section on the fn also counts"
                } else {
                    "on the same line or the lines directly above"
                },
            ),
        })
        .collect();
    Ok((sites, diags))
}

/// Audit one scanned file.
pub fn audit_file(file: &SourceFile) -> Vec<UnsafeSite> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for at in word_positions(&line.code, "unsafe") {
            let after = line.code[at + "unsafe".len()..].trim_start();
            let kind = if after.starts_with("fn") {
                SiteKind::Fn
            } else if after.starts_with("impl") {
                SiteKind::Impl
            } else if after.starts_with("extern") {
                SiteKind::Extern
            } else {
                SiteKind::Block
            };
            let needle = if kind == SiteKind::Fn { "safety" } else { "safety:" };
            let documented = has_safety_comment(file, idx, needle);
            out.push(UnsafeSite { file: file.path.clone(), line: line.number, kind, documented });
        }
    }
    out
}

/// Look for `needle` (case-insensitive) in the comment on the site's
/// line or in the contiguous run of comment/attribute/blank lines
/// directly above it.
fn has_safety_comment(file: &SourceFile, idx: usize, needle: &str) -> bool {
    let matches = |s: &str| s.to_ascii_lowercase().contains(needle);
    if matches(&file.lines[idx].comment) {
        return true;
    }
    for back in 1..=LOOKBACK.min(idx) {
        let line = &file.lines[idx - back];
        let code = line.code.trim();
        // Stop at the first line carrying real code; attributes and
        // blank/comment-only lines keep the comment run contiguous.
        if !code.is_empty() && !code.starts_with('#') {
            return false;
        }
        if matches(&line.comment) {
            return true;
        }
    }
    false
}

/// Every `.rs` file under `crates/*/src` and `vendor/*/src`, as sorted
/// root-relative paths.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for tier in ["crates", "vendor"] {
        let dir = root.join(tier);
        if !dir.is_dir() {
            continue;
        }
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collect `.rs` files under `dir` as root-relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_src(src: &str) -> Vec<UnsafeSite> {
        audit_file(&SourceFile::parse("x.rs", src))
    }

    #[test]
    fn documented_block_passes() {
        let sites = audit_src("fn f() {\n    // SAFETY: fd is freshly returned and owned here.\n    let x = unsafe { libc() };\n}\n");
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
        assert_eq!(sites[0].kind, SiteKind::Block);
    }

    #[test]
    fn undocumented_block_is_flagged_with_line() {
        let sites = audit_src("fn f() {\n    let x = unsafe { libc() };\n}\n");
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].documented);
        assert_eq!(sites[0].line, 2);
    }

    #[test]
    fn unsafe_fn_needs_safety_doc_section() {
        let good = audit_src(
            "/// Does things.\n///\n/// # Safety\n/// Caller upholds X.\npub unsafe fn g() {}\n",
        );
        assert!(good[0].documented && good[0].kind == SiteKind::Fn);
        let bad = audit_src("/// Does things.\npub unsafe fn g() {}\n");
        assert!(!bad[0].documented);
    }

    #[test]
    fn same_line_comment_counts() {
        let sites = audit_src("let v = unsafe { x() }; // SAFETY: x has no preconditions.\n");
        assert!(sites[0].documented);
    }

    #[test]
    fn unsafe_in_comment_or_string_is_not_a_site() {
        let sites = audit_src("// unsafe mention\nlet s = \"unsafe { }\";\n");
        assert!(sites.is_empty());
    }

    #[test]
    fn comment_run_is_broken_by_code() {
        let sites = audit_src(
            "// SAFETY: stale, belongs to something else.\nlet y = 1;\nlet x = unsafe { f() };\n",
        );
        assert!(!sites[0].documented);
    }
}
