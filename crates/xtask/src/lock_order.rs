//! Pass 3: the lock-order checker. The serving core has two locks,
//! and deadlock freedom rests on every path that holds both acquiring
//! them in one order:
//!
//! ```text
//! lineage → current
//! ```
//!
//! (declared in the `crates/server/src/backend.rs` module docs). The
//! checker scans `backend.rs`/`server.rs` for `.lock()`/`.read()`/
//! `.write()` calls whose receiver's last path segment names one of
//! the hierarchy locks, tracks which guards are still live using brace
//! scopes (a guard born inside a block dies at its `}`), and flags any
//! acquisition made while a *later* lock in the hierarchy is held.

use crate::scan::SourceFile;
use crate::Diagnostic;
use std::path::Path;

/// The declared acquisition order, outermost first.
pub const HIERARCHY: [&str; 2] = ["lineage", "current"];

/// The files holding the serving core's lock acquisitions.
pub const LOCK_FILES: [&str; 2] = ["crates/server/src/backend.rs", "crates/server/src/server.rs"];

/// Where the hierarchy is documented; cited in every diagnostic.
pub const DOC_HOME: &str = "crates/server/src/backend.rs";

/// Check the serving-core files under `root`.
pub fn check(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for rel in LOCK_FILES {
        if root.join(rel).is_file() {
            out.extend(check_file(&SourceFile::read(root, rel)?));
        }
    }
    Ok(out)
}

/// A logical line: continuation lines starting with `.` are folded
/// into the statement they continue, so chained receivers like
/// `shared\n.current\n.read()` stay attached to their path.
struct Logical {
    number: usize,
    code: String,
}

fn logical_lines(file: &SourceFile) -> Vec<Logical> {
    let mut out: Vec<Logical> = Vec::new();
    for line in &file.lines {
        let trimmed = line.code.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('.') {
            if let Some(prev) = out.last_mut() {
                prev.code.push_str(trimmed);
                continue;
            }
        }
        out.push(Logical { number: line.number, code: trimmed.to_string() });
    }
    out
}

/// A lock guard currently considered live.
struct Held {
    rank: usize,
    depth: i64,
    line: usize,
}

/// Check one scanned file.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut held: Vec<Held> = Vec::new();
    let mut fns: Vec<(String, i64)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    for line in logical_lines(file) {
        if let Some(name) = fn_name(&line.code) {
            pending_fn = Some(name);
        }
        // Acquisitions are recorded before brace tracking: a guard
        // born on this line lives in the scope the line opened in.
        for rank in acquisitions(&line.code) {
            if let Some(outer) = held.iter().find(|h| h.rank > rank) {
                let fn_name = fns.last().map(|(n, _)| n.as_str()).unwrap_or("?");
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "lock-order violation in `{fn_name}`: `{}` acquired while `{}` \
                         (line {}) is held; the declared order is {} (see {DOC_HOME} \
                         module docs)",
                        HIERARCHY[rank],
                        HIERARCHY[outer.rank],
                        outer.line,
                        HIERARCHY.join(" → "),
                    ),
                });
            }
            held.push(Held { rank, depth, line: line.number });
        }
        for c in line.code.chars() {
            if c == '{' {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fns.push((name, depth));
                }
            } else if c == '}' {
                held.retain(|h| h.depth < depth);
                if fns.last().is_some_and(|&(_, d)| d == depth) {
                    fns.pop();
                    held.clear();
                }
                depth -= 1;
            }
        }
    }
    out
}

/// The name following a `fn` keyword on this line, if any.
fn fn_name(code: &str) -> Option<String> {
    for at in crate::scan::word_positions(code, "fn") {
        let rest = code[at + 2..].trim_start();
        let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

/// All hierarchy-lock acquisitions on a logical line, in source order:
/// the rank of each `.lock()`/`.read()`/`.write()` whose receiver's
/// last path segment is a hierarchy lock name.
fn acquisitions(code: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for method in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(method) {
            let at = from + pos;
            if let Some(rank) = receiver_rank(code, at) {
                hits.push((at, rank));
            }
            from = at + method.len();
        }
    }
    hits.sort_unstable();
    hits.into_iter().map(|(_, rank)| rank).collect()
}

/// Rank of the identifier directly before the `.` at `dot`, if it is a
/// hierarchy lock name.
fn receiver_rank(code: &str, dot: usize) -> Option<usize> {
    let ident: String = code[..dot]
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    HIERARCHY.iter().position(|&name| name == ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse("crates/server/src/server.rs", src))
    }

    #[test]
    fn correct_order_passes() {
        let src = "fn do_swap(s: &Shared) {\n    let mut lineage = s.lineage.lock();\n    let mut cur = s.current.write();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inverted_order_is_flagged_with_line() {
        let src = "fn bad(s: &Shared) {\n    let cur = s.current.read();\n    let log = s.lineage.lock();\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("`lineage` acquired while `current`"));
        assert!(d[0].message.contains("backend.rs"));
    }

    #[test]
    fn scoped_guard_expires_at_close_brace() {
        let src = "fn ok(s: &Shared) {\n    let gen = {\n        let cur = s.current.read();\n        cur.generation()\n    };\n    let log = s.lineage.lock();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn chained_multiline_receiver_is_seen() {
        let src = "fn bad(s: &Shared) {\n    let c = s\n        .current\n        .read();\n    s.lineage.lock();\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`lineage` acquired while `current`"));
    }

    #[test]
    fn non_hierarchy_receivers_are_ignored() {
        let src = "fn ok(s: &Shared) {\n    let cur = s.current.read();\n    let tx = s.compact_tx.lock();\n    stream.write(&buf);\n    file.read(&mut buf);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guards_do_not_leak_across_fns() {
        let src = "fn a(s: &Shared) { let c = s.current.read(); }\nfn b(s: &Shared) { let g = s.lineage.lock(); }\n";
        assert!(run(src).is_empty());
    }
}
