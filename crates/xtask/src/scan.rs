//! A hand-rolled line scanner for Rust sources, rustc-`tidy` style:
//! just enough lexing to tell code from comments and string literals,
//! and to know which lines live under `#[cfg(test)]`.
//!
//! The line-count ratchet only asks "does this line sit outside a test
//! module?", so the scanner deliberately stops at line granularity
//! instead of producing a real token stream. It understands line and
//! nested block comments, string / raw-string / byte-string / char
//! literals, and lifetimes, which is everything needed to keep literal
//! and comment text out of the code channel, so a brace inside one
//! never opens or closes a region.

use std::path::Path;

/// One source line, reduced to its code channel.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line with comments removed and literal *contents* blanked
    /// out; string literals collapse to `""` so scans never match text
    /// that only occurs inside a literal or a comment.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// A scanned source file: its classified lines.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// The classified lines, in order.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Scan `text` into classified lines.
    pub fn parse(text: &str) -> SourceFile {
        let mut lines = code_channel(text);
        mark_test_regions(&mut lines);
        SourceFile { lines }
    }

    /// Read and scan a file on disk.
    pub fn read(path: &Path) -> std::io::Result<SourceFile> {
        Ok(SourceFile::parse(&std::fs::read_to_string(path)?))
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

/// Reduce the text to its per-line code channel.
fn code_channel(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = State::Normal;
    for raw in text.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Normal => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        break;
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
        out.push(Line { code, in_test: false });
    }
    out
}

/// Does the code channel end in an identifier character (so a
/// following `r` is part of an identifier, not a raw-string prefix)?
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_channel() {
        let f = SourceFile::parse("let x = \"{ // not code\"; // { in comment\nlet y = 1;");
        assert_eq!(f.lines[0].code.trim_end(), "let x = \"\";");
        assert_eq!(f.lines[1].code, "let y = 1;");
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let f = SourceFile::parse(
            "let a = r#\"has \"quotes\" and unwrap()\"#;\nlet b = '\"';\nlet c: &'static str = \"x\";",
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[1].code.contains('"'), "char-literal quote must not open a string");
        assert!(f.lines[2].code.contains("&' static") || f.lines[2].code.contains("&'static"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::parse("/* start\nstill comment unwrap()\nend */ let z = 2;");
        assert!(f.lines[1].code.is_empty());
        assert!(f.lines[2].code.contains("let z"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test && f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn a_gated_item_without_a_body_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nmod examples;\npub use a::{b, c};\nfn live() {\n    \
                   #[cfg(test)]\n    std::thread::yield_now();\n    go();\n}\nimpl X for Y {\n}\n\
                   #[cfg(test)]\nfn t(x: [u8; 4]) {\n    x.unwrap();\n}\nfn live2() {}\n";
        let f = SourceFile::parse(src);
        let marked: Vec<usize> =
            (1..).zip(&f.lines).filter(|(_, l)| l.in_test).map(|(number, _)| number).collect();
        assert_eq!(marked, [1, 2, 5, 6, 11, 12, 13, 14]);
    }
}
