#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # graphgen — synthetic workload generators
//!
//! The paper's scalability study (§8, Fig. 9, datasets syn1–syn6) generates
//! scale-free graphs with the **GLP** (Generalized Linear Preference) model
//! of Bu & Towsley, parameterised exactly as in the paper (`m = 1.13`,
//! `m0 = 10`, power-law exponent ≈ 2.155). Because the real SNAP/KONECT
//! datasets are not redistributable, the whole evaluation harness runs on
//! GLP graphs with matched density (README "Paper tables and figures").
//!
//! Also provided:
//! * [`ba`] — the Barabási–Albert preferential-attachment model;
//! * [`er`] — Erdős–Rényi `G(n, m)` graphs (non-scale-free contrast);
//! * [`classic`] — the paper's worked-example topologies (the road graph
//!   `G_R` of Fig. 1, the star `G_S` of Fig. 2, the 8-vertex example of
//!   Fig. 3) plus paths, grids, and complete graphs;
//! * [`weights`] — random positive weights for the weighted experiments;
//! * [`directed`] — orientation helpers to derive directed workloads from
//!   undirected scale-free topologies.
//!
//! Every generator takes an explicit seed and is fully deterministic.

pub mod ba;
pub mod classic;
pub mod directed;
pub mod er;
pub mod glp;
pub mod weights;

pub use ba::barabasi_albert;
pub use classic::{complete, example_graph_fig3, grid, path, road_graph_gr, star, star_graph_gs};
pub use directed::orient_scale_free;
pub use er::erdos_renyi;
pub use glp::{glp, GlpParams};
pub use weights::with_random_weights;
