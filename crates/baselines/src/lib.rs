#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # baselines — the comparison oracles of the paper's evaluation (§8)
//!
//! Every method answers exact point-to-point distance queries; they
//! differ in preprocessing and query cost:
//!
//! * [`bidij`] — `BIDIJ`: no index, bidirectional BFS/Dijkstra per
//!   query (the "Memory query time BIDIJ" column of Table 6);
//! * [`pll`] — Pruned Landmark Labeling (Akiba, Iwata, Yoshida;
//!   SIGMOD 2013, reference \[7\]): rank-ordered pruned searches that
//!   produce a canonical 2-hop index — the strongest in-memory
//!   competitor in Table 6;
//! * [`islabel`] — IS-Label (Fu, Wu, Cheng, Wong; VLDB 2013, reference
//!   \[18\]): independent-set hierarchy with distance-preserving edge
//!   augmentation, the only prior disk-capable method;
//! * [`hcl`] — a *highway-cover* labeling standing in for HCL
//!   (reference \[20\]); the [`hcl`] module docs give the substitution
//!   argument;
//! * [`bitparallel`] — the paper's own §6 post-processing of a finished
//!   index (Table 6's `BP` column); no serving path reads it.
//!
//! PLL and IS-Label produce [`hoplabels::LabelIndex`] values, so all
//! label-based methods share query code, statistics, and the disk
//! layout — exactly the comparability Table 6 relies on.

pub mod bidij;
pub mod bitparallel;
pub mod hcl;
pub mod islabel;
pub mod oracle;
pub mod pll;

pub use bidij::Bidij;
pub use bitparallel::BitParallelIndex;
pub use hcl::HighwayCover;
pub use islabel::{IsLabel, IsLabelError};
pub use oracle::DistanceOracle;
pub use pll::Pll;
