//! Pass 2: the panic-freedom lint. The wire-facing decode modules
//! promise "never panics on arbitrary bytes"; this pass makes the
//! promise mechanical by denying `unwrap`/`expect`, panicking macros,
//! and slice-index expressions in those files outside `#[cfg(test)]`.
//!
//! Intentional sites are not silently tolerated: they must be listed
//! in `crates/xtask/tidy.allowlist` (`file: substring-of-line`), one
//! entry per justified line, and entries that no longer match anything
//! are themselves errors — the list can only shrink honestly.

use crate::scan::{ident_before, SourceFile};
use crate::Diagnostic;
use std::path::Path;

/// The wire-facing decode modules the lint covers: the HOPQ codec, the
/// WAL reader, the HTTP/1.1 parser, the index image's checked
/// decoder/validator, the shard cutter and sidecar parser, and the
/// total little-endian readers (with the CRC) they all lean on.
pub const WIRE_FACING: [&str; 7] = [
    "crates/server/src/proto.rs",
    "crates/server/src/wal.rs",
    "crates/server/src/http.rs",
    "crates/hoplabels/src/image.rs",
    "crates/hoplabels/src/shard.rs",
    "crates/extmem/src/wire.rs",
    "crates/sfgraph/src/io.rs",
];

/// Root-relative path of the checked-in allowlist.
pub const ALLOWLIST: &str = "crates/xtask/tidy.allowlist";

/// Method calls that can panic.
const METHODS: [&str; 2] = [".unwrap()", ".expect("];
/// Macros that (always or on failure) panic. `debug_assert*` is
/// deliberately absent: release wire paths never execute it.
const MACROS: [&str; 7] =
    ["panic!", "unreachable!", "todo!", "unimplemented!", "assert!", "assert_eq!", "assert_ne!"];

/// One allowlist entry: `file: pattern`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Root-relative file the entry applies to.
    pub file: String,
    /// Substring that must occur in the flagged raw line.
    pub pattern: String,
    /// Line number in the allowlist file (for stale-entry reports).
    pub line: usize,
}

/// Parse the allowlist text (`#` comments and blank lines skipped).
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((file, pattern)) = line.split_once(": ") {
            out.push(AllowEntry {
                file: file.trim().to_string(),
                pattern: pattern.trim().to_string(),
                line: idx + 1,
            });
        } else {
            out.push(AllowEntry { file: line.to_string(), pattern: String::new(), line: idx + 1 });
        }
    }
    out
}

/// Run the lint over the wire-facing files under `root`, applying the
/// checked-in allowlist.
pub fn check(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let allow_text = std::fs::read_to_string(root.join(ALLOWLIST)).unwrap_or_default();
    let mut files = Vec::new();
    for rel in WIRE_FACING {
        if root.join(rel).is_file() {
            files.push(SourceFile::read(root, rel)?);
        }
    }
    Ok(check_files(&files, &parse_allowlist(&allow_text)))
}

/// Lint scanned files against the given allowlist. Stale entries are
/// reported against the allowlist file itself.
pub fn check_files(files: &[SourceFile], allow: &[AllowEntry]) -> Vec<Diagnostic> {
    let mut used = vec![false; allow.len()];
    let mut out = Vec::new();
    for file in files {
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            let Some(what) = first_violation(&line.code) else { continue };
            let allowed = allow.iter().enumerate().any(|(i, e)| {
                let hit = e.file == file.path && line.raw.contains(&e.pattern);
                if hit {
                    used[i] = true;
                }
                hit
            });
            if !allowed {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "{what} in a wire-facing decode module: return a recoverable error \
                         instead, or add a justified entry to {ALLOWLIST}"
                    ),
                });
            }
        }
    }
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            out.push(Diagnostic {
                file: ALLOWLIST.to_string(),
                line: entry.line,
                message: format!(
                    "stale allowlist entry `{}: {}` matches nothing — delete it",
                    entry.file, entry.pattern
                ),
            });
        }
    }
    out
}

/// The first panic-capable construct on a code line, if any.
pub fn first_violation(code: &str) -> Option<String> {
    for m in METHODS {
        if code.contains(m) {
            return Some(format!("`{}`", m.trim_end_matches('(')));
        }
    }
    for m in MACROS {
        if find_macro(code, m).is_some() {
            return Some(format!("`{m}`"));
        }
    }
    index_position(code).map(|_| "slice/array index expression".to_string())
}

/// Find macro `name` with a word boundary before it (so `assert!` does
/// not match inside `debug_assert!`).
fn find_macro(code: &str, name: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let at = from + pos;
        if !ident_before(code, at) {
            return Some(at);
        }
        from = at + name.len();
    }
    None
}

/// Byte offset of the first `[` that indexes an expression (directly
/// preceded by an identifier char, `)`, `]`, or `?`) rather than
/// opening a type, pattern, attribute, or array literal.
fn index_position(code: &str) -> Option<usize> {
    for (at, c) in code.char_indices() {
        if c != '[' || at == 0 {
            continue;
        }
        let prev = code[..at].chars().next_back();
        if prev.is_some_and(|p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']' || p == '?')
        {
            return Some(at);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, allow: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/server/src/proto.rs", src);
        check_files(&[file], &parse_allowlist(allow))
    }

    #[test]
    fn hidden_unwrap_is_flagged_with_line() {
        let d = lint("fn f(b: &[u8]) {\n    let x = b.first().unwrap();\n}\n", "");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].file.as_str(), d[0].line), ("crates/server/src/proto.rs", 2));
        assert!(d[0].message.contains("unwrap"));
    }

    #[test]
    fn indexing_and_macros_are_flagged() {
        assert!(first_violation("let x = buf[4];").is_some());
        assert!(first_violation("let x = &payload[..4];").is_some());
        assert!(first_violation("unreachable!(\"no\")").is_some());
        assert!(first_violation("f.expect(\"y\")").is_some());
    }

    #[test]
    fn types_patterns_and_debug_asserts_are_not() {
        assert!(first_violation("fn f(b: &[u8]) -> [u8; 4] {").is_none());
        assert!(first_violation("let [a, b] = pair;").is_none());
        assert!(first_violation("#[derive(Debug)]").is_none());
        assert!(first_violation("debug_assert!(x < y);").is_none());
        assert!(first_violation("let v: Vec<[u8; 8]> = Vec::new();").is_none());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let d = lint(
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n",
            "",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allowlist_suppresses_and_stale_entries_report() {
        let src = "fn f() { g().unwrap(); }\n";
        let ok = lint(src, "crates/server/src/proto.rs: g().unwrap()\n");
        assert!(ok.is_empty(), "{ok:?}");
        let stale =
            lint("fn f() {}\n", "# comment\ncrates/server/src/proto.rs: nothing like this\n");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, ALLOWLIST);
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("stale"));
    }
}
