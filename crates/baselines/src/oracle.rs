//! A common interface over all exact distance oracles.

use sfgraph::{Dist, VertexId};

/// An exact point-to-point distance oracle over a fixed graph.
///
/// Implementations answer in terms of the *original* vertex ids of the
/// graph they were built from (rank relabeling, if any, is internal).
pub trait DistanceOracle {
    /// Exact distance from `s` to `t`; `INF_DIST` when unreachable.
    fn distance(&self, s: VertexId, t: VertexId) -> Dist;

    /// Short human-readable method name for result tables.
    fn name(&self) -> &'static str;
}
