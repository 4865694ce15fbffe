//! Error type for graph construction and I/O.

use std::fmt;

/// Errors produced by graph construction, parsing, and serialization.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id ≥ the declared vertex count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        msg: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex id {vertex} out of range for graph with {n} vertices")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
