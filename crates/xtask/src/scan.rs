//! A hand-rolled line/token scanner for Rust sources, rustc-`tidy`
//! style: just enough lexing to tell code from comments and string
//! literals, and to know which lines live under `#[cfg(test)]`.
//!
//! The passes built on top only ever ask line-level questions ("is
//! there an `unsafe` on this line, and a `SAFETY:` comment above it?",
//! "does this line sit outside a test module?"), so the scanner
//! deliberately stops at that granularity instead of producing a real
//! token stream. It understands line and nested block comments, string
//! / raw-string / byte-string / char literals, and lifetimes, which is
//! everything needed to blank literal and comment text out of the code
//! channel without ever mistaking one for the other.

use std::path::Path;

/// One source line, split into a code channel and a comment channel.
#[derive(Clone, Debug)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line with comment text and literal *contents* blanked out;
    /// string literals collapse to `""` so token scans never match
    /// text that only occurs inside a literal or a comment.
    pub code: String,
    /// Comment text on this line (line, block, and doc comments),
    /// without the `//`/`/*` markers.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// A scanned source file: path label plus its classified lines.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Root-relative path label used in diagnostics.
    pub path: String,
    /// The classified lines, in order.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Scan `text` into classified lines under the given path label.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let mut lines = split_channels(text);
        mark_test_regions(&mut lines);
        SourceFile { path: path.to_string(), lines }
    }

    /// Read and scan a file on disk; the label is `path` relative to
    /// `root` (with `/` separators) so diagnostics are stable.
    pub fn read(root: &Path, rel: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::parse(rel, &text))
    }
}

/// Lexer state carried across lines.
enum State {
    /// Plain code.
    Normal,
    /// Inside a (possibly nested) block comment.
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` plus this many `#`s.
    RawStr(usize),
}

/// Split the text into per-line code and comment channels.
fn split_channels(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = State::Normal;
    for (idx, raw) in text.lines().enumerate() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Normal => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        // Doc-comment markers (`///`, `//!`) are not
                        // comment *text*: drop them plus one space so
                        // doc tables and fences parse cleanly.
                        let mut start = i + 2;
                        if matches!(chars.get(start), Some(&'/') | Some(&'!')) {
                            start += 1;
                        }
                        if chars.get(start) == Some(&' ') {
                            start += 1;
                        }
                        comment.extend(&chars[start..]);
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        code.push_str("\"\"");
                        state = State::Str;
                        i += 1;
                    } else if c == 'r' && !prev_is_ident(&code) {
                        if let Some(hashes) = raw_string_start(&chars[i + 1..]) {
                            code.push_str("\"\"");
                            state = State::RawStr(hashes);
                            i += 2 + hashes;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: a literal is either
                        // escaped (`'\n'`) or a single char before the
                        // closing quote (`'x'`, including `'''`).
                        if chars.get(i + 1) == Some(&'\\') {
                            code.push_str("' '");
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push_str("' '");
                            i += 3;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                State::BlockComment(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        state =
                            if depth == 1 { State::Normal } else { State::BlockComment(depth - 1) };
                        i += 2;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        state = State::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                        state = State::Normal;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(Line { number: idx + 1, code, comment, in_test: false });
    }
    out
}

/// Does the code channel end in an identifier character (so a
/// following `r` is part of an identifier, not a raw-string prefix, and
/// a following word is not a whole word)?
fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `rest` begins a raw string body (`#…#"`), return the hash count.
fn raw_string_start(rest: &[char]) -> Option<usize> {
    let hashes = rest.iter().take_while(|&&c| c == '#').count();
    (rest.get(hashes) == Some(&'"')).then_some(hashes)
}

/// Does `rest` hold at least `hashes` consecutive `#`s?
fn closes_raw(rest: &[char], hashes: usize) -> bool {
    rest.len() >= hashes && rest[..hashes].iter().all(|&c| c == '#')
}

/// Mark every line inside a `#[cfg(test)]`-gated item (the attribute's
/// brace-delimited body, or up to the `;` of an item or statement that
/// has none: `mod examples;`, `std::thread::yield_now();`) as test code.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending = false;
    // `(`/`[` nesting since the attribute, so the `;` of `[u8; 4]` in a
    // gated signature does not end the item.
    let mut nesting: i64 = 0;
    let mut test_scopes: Vec<i64> = Vec::new();
    for line in lines.iter_mut() {
        if line.code.contains("#[cfg(test)]")
            || line.code.contains("#[cfg(all(test")
            || line.code.contains("#[test]")
        {
            pending = true;
        }
        line.in_test = pending || !test_scopes.is_empty();
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        test_scopes.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if test_scopes.last() == Some(&depth) {
                        test_scopes.pop();
                    }
                    depth -= 1;
                }
                '(' | '[' if pending => nesting += 1,
                ')' | ']' if pending => nesting -= 1,
                ';' if pending && nesting == 0 => pending = false,
                _ => {}
            }
        }
    }
}

/// Find occurrences of the word `needle` in `code` that are not part
/// of a longer identifier; returns byte offsets.
pub fn word_positions(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let end = at + needle.len();
        let ok_before = !prev_is_ident(&code[..at]);
        let ok_after = !code[end..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok_before && ok_after {
            out.push(at);
        }
        from = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_channel() {
        let f = SourceFile::parse(
            "t.rs",
            "let x = \"unsafe // not code\"; // unsafe in comment\nlet y = 1;",
        );
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].comment.contains("unsafe in comment"));
        assert_eq!(f.lines[1].code, "let y = 1;");
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let f = SourceFile::parse(
            "t.rs",
            "let a = r#\"has \"quotes\" and unwrap()\"#;\nlet b = '\"';\nlet c: &'static str = \"x\";",
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[1].code.contains('"'), "char-literal quote must not open a string");
        assert!(f.lines[2].code.contains("&' static") || f.lines[2].code.contains("&'static"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::parse("t.rs", "/* start\nstill comment unwrap()\nend */ let z = 2;");
        assert!(f.lines[1].code.is_empty());
        assert!(f.lines[2].code.contains("let z"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test && f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn a_gated_item_without_a_body_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nmod examples;\npub use a::{b, c};\nfn live() {\n    \
                   #[cfg(test)]\n    std::thread::yield_now();\n    go();\n}\nimpl X for Y {\n}\n\
                   #[cfg(test)]\nfn t(x: [u8; 4]) {\n    x.unwrap();\n}\nfn live2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        let marked: Vec<usize> = f.lines.iter().filter(|l| l.in_test).map(|l| l.number).collect();
        assert_eq!(marked, [1, 2, 5, 6, 11, 12, 13, 14]);
    }

    #[test]
    fn word_positions_respects_boundaries() {
        assert_eq!(word_positions("unsafe_fn unsafe", "unsafe"), vec![10]);
        assert!(word_positions("debug_assert!(x)", "assert!").is_empty());
    }
}
