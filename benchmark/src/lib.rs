#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The parts of `hopbench`, the repo benchmark: the catalogue
//! ([`spec`]), seeded inputs ([`gen`]), the deployment stages
//! ([`deploy`]), the end-to-end and the traced run ([`run`], [`trace`]),
//! estimators ([`stats`]), the span recorder ([`span`]) and the A/A
//! repeatability check ([`aa`]). `src/main.rs` is the command line over
//! them; `benchmark/README.md` is the manual.

pub mod aa;
pub mod deploy;
pub mod gen;
pub mod host;
pub mod report;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod trace;
