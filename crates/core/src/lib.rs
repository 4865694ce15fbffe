#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # hopdb — Hop-Doubling label indexing (the paper's contribution)
//!
//! Implementation of *Hop Doubling Label Indexing for Point-to-Point
//! Distance Querying on Scale-Free Networks* (Jiang, Fu, Wong, Xu;
//! VLDB 2014). The index is a 2-hop label cover built by an iterative
//! generate-and-prune process:
//!
//! * **Hop-Doubling** (§3): each iteration composes the previous
//!   iteration's entries with *all* existing entries through four
//!   minimized rules (Lemmas 3–4), doubling the covered trough-path hop
//!   length every two iterations (Theorem 2); at most `2⌈log D_H⌉`
//!   iterations (Theorem 4).
//! * **Hop-Stepping** (§5): the composition is restricted to single
//!   edges, growing covered hop length by one per iteration (Lemma 5),
//!   bounding per-iteration candidates by `O(h·|V|·log|V|)`.
//! * **Hybrid** (§5.4): stepping for the first `k` iterations (default
//!   10, as in §8), doubling afterwards — the paper's default `HopDb`.
//! * **Pruning** (§3.3): a candidate `(u → v, d)` is discarded when the
//!   2-hop query over the current index already answers `dist(u, v) ≤ d`
//!   (Theorem 3 shows this keeps queries exact). Every build prunes:
//!   there is no switch, as PLL has no unpruned mode.
//!
//! Entry points:
//! * [`build`] / [`HopDb`] — rank, relabel, build, query (original ids);
//!   both builders label the graph's core and derive the vertices with
//!   one or two neighbours (`sfgraph::reduce`) from those neighbours;
//! * [`engine`] — the iterative engine on rank-relabeled graphs (one
//!   round kernel over one or two label *sides*), with per-iteration
//!   statistics (growing/pruning factors of Fig. 10), and its unpruned
//!   fixpoint, [`engine::build_unpruned`]: Example 1's complete labeling,
//!   for the tests of the paper's worked examples and lemmas;
//! * [`postprune`] — the canonical filter, §5.2's exhaustive pruning as
//!   an order-free test: the last step of every build, in both engines,
//!   it leaves PLL's canonical labels, so every strategy ends in one
//!   index;
//! * [`external`] — the I/O-efficient construction of §4 on the
//!   `extmem` substrate;
//! * [`hubs`] — the distances to and from the top-ranked vertices, one
//!   table per side, that both engines kill candidates with, before the
//!   label prune.
//!
//! The unminimized 6-rule generator (`sixrules.rs`) is compiled into
//! the tests only, as an executable witness for Lemmas 3–4: its closure
//! equals [`engine::build_unpruned`]'s.
//!
//! Construction parallelises within each iteration: set
//! [`HopDbConfig::parallelism`] (or `hopdb-cli build --threads`) to
//! give each of several scoped worker threads its own range of label
//! owners to gather, prune and apply, cut by weight and run through
//! [`hoplabels::parallel`]; the result is bit-identical to the
//! sequential build for every thread count.

pub mod builder;
pub mod config;
pub mod engine;
pub mod external;
pub mod hubs;
pub mod iteration;
pub mod postprune;

#[cfg(test)]
mod examples;
#[cfg(test)]
mod sixrules;

pub use builder::{build, build_prelabeled, rank, HopDb};
pub use config::{HopDbConfig, Strategy};
pub use iteration::{BuildStats, IterationStats};
