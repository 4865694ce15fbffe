//! The unified query surface every serving path dispatches through.
//!
//! [`QueryBackend`] is what the serving tier holds: the frozen image
//! ([`crate::flat::FlatIndex`]), or that image under a delta overlay
//! ([`crate::overlay::LiveIndex`], itself over a `dyn QueryBackend`), so
//! the server's generation object and `hopdb-cli` hold one
//! `Arc<dyn QueryBackend>` whichever it is.
//!
//! Both answer in *rank space* (see the crate-level rank convention) by
//! the one record rule, [`crate::index::resolve`];
//! id translation via a `.rank` sidecar stays the caller's job, as does
//! range-checking vertex ids against [`QueryBackend::num_vertices`] —
//! out-of-range ids may panic.
//!
//! ```
//! use hoplabels::{LabelEntry, LabelIndex, QueryBackend};
//! use hoplabels::flat::FlatIndex;
//!
//! let mut idx = LabelIndex::new_undirected(3);
//! if let LabelIndex::Undirected(u) = &mut idx {
//!     u.labels[1].insert_min(LabelEntry::new(0, 2));
//!     u.labels[2].insert_min(LabelEntry::new(0, 5));
//! }
//! let backend: Box<dyn QueryBackend> = Box::new(FlatIndex::from_index(&idx));
//! assert_eq!(backend.query(1, 2).unwrap(), 7);
//! let mut out = Vec::new();
//! backend.query_many_into(&[(1, 2), (2, 2)], 1, &mut out).unwrap();
//! assert_eq!(out, vec![7, 0]);
//! ```

use sfgraph::{Dist, VertexId};

use crate::flat::FlatIndex;

/// A queryable, immutable index generation: the trait the serving tier
/// (daemon, CLI) programs against.
///
/// Implementors must be shareable across threads (`Send + Sync`).
pub trait QueryBackend: Send + Sync {
    /// Number of vertices covered; valid ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Whether the index stores separate `Lin`/`Lout` directions.
    fn is_directed(&self) -> bool;

    /// Bytes this backend holds resident in memory (the image, plus an
    /// overlay's snapshot).
    fn resident_bytes(&self) -> usize;

    /// Monotone identifier of the index generation this backend
    /// serves, so stats paths report provenance uniformly instead of
    /// special-casing backend types. Bare indexes are unversioned
    /// (`0`); the serving tier wraps them in
    /// [`crate::overlay::LiveIndex`], which carries the real id.
    fn generation_id(&self) -> u64 {
        0
    }

    /// Exact distance `dist(s, t)` in rank space;
    /// `sfgraph::INF_DIST` when unreachable. Ids must be in range.
    fn query(&self, s: VertexId, t: VertexId) -> std::io::Result<Dist>;

    /// Append one answer per pair to `out`, in input order, each
    /// bit-identical to [`QueryBackend::query`] on the same pair.
    /// `threads` is a parallelism hint (`0` = all cores); backends that
    /// cannot fan out ignore it. On error `out` is left untouched.
    fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> std::io::Result<()>;
}

impl QueryBackend for FlatIndex {
    fn num_vertices(&self) -> usize {
        FlatIndex::num_vertices(self)
    }

    fn is_directed(&self) -> bool {
        FlatIndex::is_directed(self)
    }

    fn resident_bytes(&self) -> usize {
        FlatIndex::resident_bytes(self)
    }

    fn query(&self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        Ok(FlatIndex::query(self, s, t))
    }

    fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> std::io::Result<()> {
        FlatIndex::query_many_into(self, pairs, threads, out);
        Ok(())
    }
}
