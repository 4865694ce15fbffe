#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sfgraph — graph substrate for scale-free network indexing
//!
//! This crate provides the graph representation and primitive algorithms
//! that the Hop-Doubling label index (crate `hopdb`) and all baseline
//! oracles are built on:
//!
//! * [`Graph`] — a compressed-sparse-row (CSR) graph, directed or
//!   undirected, optionally weighted, with forward and reverse adjacency.
//! * [`GraphBuilder`] — edge-list ingestion with de-duplication,
//!   self-loop removal, and parallel-edge minimisation.
//! * [`ranking`] — the vertex orderings the paper relies on (degree,
//!   in×out-degree product, random, custom), plus *rank relabeling*:
//!   renaming vertices so that id 0 is the highest-ranked vertex, which
//!   lets every downstream algorithm compare ranks by comparing ids.
//! * [`traversal`] — BFS, Dijkstra, and bidirectional variants used by
//!   ground-truth checks and the `BIDIJ` baseline.
//! * [`analysis`] — scale-free diagnostics: degree distributions, the
//!   Faloutsos rank exponent `γ`, the Newman expansion factor `R = z2/z1`,
//!   and hop-diameter estimation (Section 2 of the paper).
//! * [`io`] — text edge-list serialization.
//! * [`reduce`] — one level of elimination: the vertices with one or two
//!   neighbours a scale-free graph hangs off its core, which the index
//!   builders derive instead of labelling.
//!
//! Vertices are dense `u32` ids (`VertexId`); distances are `u32` with
//! [`INF_DIST`] marking unreachable pairs.

pub mod analysis;
pub mod builder;
pub mod centrality;
pub mod csr;
pub mod error;
pub mod graph;
pub mod hash;
pub mod io;
pub mod ranking;
pub mod reduce;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::GraphError;
pub use graph::{Direction, Graph};
pub use ranking::{RankBy, Ranking};

/// Dense vertex identifier. Graphs with `n` vertices use ids `0..n`.
pub type VertexId = u32;

/// Edge weight / path distance. Unweighted edges have weight 1.
pub type Dist = u32;

/// Distance value representing "unreachable" (`distG(u,v) = ∞`).
pub const INF_DIST: Dist = u32::MAX;
