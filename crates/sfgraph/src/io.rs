//! Graph serialization: text edge lists of one `u v [w]` triple per line,
//! as in the paper's SNAP / KONECT sets; [`data_line`] is the comment rule.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::{Dist, VertexId};

/// A line's trimmed data; `None` for a blank line or one opening with
/// `#` (SNAP) or `%` (KONECT's header). Text after `#` is a comment.
pub fn data_line(line: &str) -> Option<&str> {
    Some(line.split('#').next()?.trim()).filter(|data| !data.is_empty() && !data.starts_with('%'))
}

/// Parse a text edge list.
///
/// Vertex ids may be sparse; the graph gets `max_id + 1` vertices. If
/// `weighted` is set, a third column is required on every edge line and
/// its value must lie in `1 ..= Dist::MAX` — zero weights would break
/// the strictly-positive-distance assumption the traversal and pruning
/// code relies on, and larger values cannot be represented.
///
/// Edges stream into the builder one line at a time; the parser holds
/// no copy of the edge list of its own.
pub fn read_edge_list<R: BufRead>(
    reader: R,
    directed: bool,
    weighted: bool,
) -> Result<Graph, GraphError> {
    let mut builder =
        if directed { GraphBuilder::new_directed(0) } else { GraphBuilder::new_undirected(0) };
    if weighted {
        builder = builder.weighted();
    }
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let Some(line) = data_line(&line) else { continue };
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                msg: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse { line: lineno + 1, msg: format!("bad {what}: {e}") })
        };
        let u = parse(parts.next(), "source")?;
        let v = parse(parts.next(), "target")?;
        let w = if weighted { parse(parts.next(), "weight")? } else { 1 };
        if u > u32::MAX as u64 || v > u32::MAX as u64 {
            return Err(GraphError::VertexOutOfRange { vertex: u.max(v), n: u32::MAX as usize });
        }
        if w == 0 {
            return Err(GraphError::Parse {
                line: lineno + 1,
                msg: "edge weight 0 (weights must be ≥ 1: shortest-path \
                      distances are strictly positive)"
                    .into(),
            });
        }
        if w > Dist::MAX as u64 {
            return Err(GraphError::Parse {
                line: lineno + 1,
                msg: format!("edge weight {w} exceeds the maximum representable {}", Dist::MAX),
            });
        }
        builder.ensure_vertex(u as VertexId);
        builder.ensure_vertex(v as VertexId);
        builder.add_weighted_edge(u as VertexId, v as VertexId, w as Dist);
    }
    Ok(builder.build())
}

/// Write the graph as a text edge list (undirected edges once each).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    for (u, v, w) in g.edge_list() {
        if g.is_weighted() {
            writeln!(writer, "{u} {v} {w}")?;
        } else {
            writeln!(writer, "{u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_edge_list_with_comments() {
        let text = "# a comment\n0 1\n1 2\n\n% another\n2 0\n";
        let g = read_edge_list(Cursor::new(text), true, false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn data_lines_skip_headers_and_strip_trailing_comments() {
        assert_eq!(data_line("  0 1 5  # trailing\r"), Some("0 1 5"));
        for blank in ["", "   ", "# snap", "  % sym unweighted", "%", "#0 1"] {
            assert_eq!(data_line(blank), None, "{blank:?}");
        }
        let text = "% sym unweighted\n% 2 3 3\n0 1 7 # first\n1 2 4 # second\n";
        let g = read_edge_list(Cursor::new(text), false, true).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (3, 2));
        assert_eq!(g.edge_weight(2, 1), Some(4));
    }

    #[test]
    fn parse_weighted() {
        let text = "0 1 5\n1 2 7\n";
        let g = read_edge_list(Cursor::new(text), false, true).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(1, 0), Some(5));
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "0 1\nnot numbers\n";
        let err = read_edge_list(Cursor::new(text), false, false).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_weight_column_is_an_error() {
        let text = "0 1\n";
        assert!(read_edge_list(Cursor::new(text), false, true).is_err());
    }

    #[test]
    fn overflowing_weight_is_an_error_not_a_clamp() {
        // 2^32 + 5 used to load as u32::MAX silently.
        let text = "0 1 2\n1 2 4294967301\n";
        let err = read_edge_list(Cursor::new(text), false, true).unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("4294967301"), "{msg}");
            }
            other => panic!("unexpected error {other}"),
        }
        // The maximum representable weight itself still parses.
        let max = format!("0 1 {}\n", Dist::MAX);
        let g = read_edge_list(Cursor::new(max), false, true).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(Dist::MAX));
    }

    #[test]
    fn zero_weight_is_an_error_in_weighted_mode() {
        let text = "# header\n0 1 3\n2 3 0\n";
        let err = read_edge_list(Cursor::new(text), true, true).unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 3, "error must name the offending line");
                assert!(msg.contains("weight 0"), "{msg}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn large_input_streams_in_one_pass() {
        // A smoke test for the streaming parse: enough edges that a
        // buffered second copy would be noticeable, with sparse ids so
        // ensure_vertex actually drives the vertex count.
        let m = 100_000u32;
        let mut text = String::with_capacity(m as usize * 12);
        for i in 0..m {
            use std::fmt::Write as _;
            let _ = writeln!(text, "{} {}", i % 10_000, (i * 7 + 1) % 10_000);
        }
        let g = read_edge_list(Cursor::new(text), true, false).unwrap();
        assert_eq!(g.num_vertices(), 10_000);
        assert!(g.num_edges() > 9_000, "dedup keeps distinct pairs: {}", g.num_edges());
    }

    #[test]
    fn text_roundtrip() {
        let text = "0 1\n1 2\n0 3\n";
        let g = read_edge_list(Cursor::new(text), false, false).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), false, false).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.num_vertices(), g2.num_vertices());
    }
}
