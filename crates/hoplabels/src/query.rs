//! The unified query surface every serving path dispatches through.
//!
//! [`QueryBackend`] abstracts over the two ways a finished index can be
//! queried at serving time — fully resident ([`crate::flat::FlatIndex`])
//! or disk-backed with an LRU label cache
//! ([`crate::disk::CachedDiskIndex`]) — so the server's generation
//! object and `hopdb-cli` hold one `Box<dyn QueryBackend>` instead of
//! matching an enum at every call site.
//!
//! Both implementations answer in *rank space* (see the crate-level
//! rank convention) by the one record rule, [`crate::index::resolve`];
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

use crate::disk::CachedDiskIndex;
use crate::flat::FlatIndex;

/// A queryable, immutable index generation: the trait the serving tier
/// (daemon, CLI) programs against.
///
/// Implementors must be shareable across threads (`Send + Sync`);
/// concurrent `query` calls may serialize internally (the disk fallback
/// does) but must stay correct.
pub trait QueryBackend: Send + Sync {
    /// Number of vertices covered; valid ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Whether the index stores separate `Lin`/`Lout` directions.
    fn is_directed(&self) -> bool;

    /// Bytes this backend holds resident in memory (the image for the
    /// flat path; offset directories and the cached labels for the
    /// disk path).
    fn resident_bytes(&self) -> usize;

    /// Whether answers come from memory (`true`) or a disk-backed
    /// fallback (`false`).
    fn is_resident(&self) -> bool;

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

    fn is_resident(&self) -> bool {
        true
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

impl QueryBackend for CachedDiskIndex {
    fn num_vertices(&self) -> usize {
        CachedDiskIndex::num_vertices(self)
    }

    fn is_directed(&self) -> bool {
        CachedDiskIndex::is_directed(self)
    }

    fn resident_bytes(&self) -> usize {
        CachedDiskIndex::resident_bytes(self)
    }

    fn is_resident(&self) -> bool {
        false
    }

    fn query(&self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        CachedDiskIndex::query(self, s, t)
    }

    fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        _threads: usize,
        out: &mut Vec<Dist>,
    ) -> std::io::Result<()> {
        // All-or-nothing: stage into a scratch vector so an I/O error
        // halfway through leaves `out` untouched, as the trait promises.
        let mut staged = Vec::with_capacity(pairs.len());
        for &(s, t) in pairs {
            staged.push(CachedDiskIndex::query(self, s, t)?);
        }
        out.extend_from_slice(&staged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskIndex;
    use crate::{LabelEntry, LabelIndex};
    use extmem::device::TempStore;

    fn tiny_index() -> LabelIndex {
        let mut idx = LabelIndex::new_undirected(3);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[1].insert_min(LabelEntry::new(0, 2));
            u.labels[2].insert_min(LabelEntry::new(0, 5));
        }
        idx
    }

    #[test]
    #[cfg_attr(miri, ignore = "temp files; Miri runs isolated")]
    fn flat_and_disk_backends_agree_through_the_trait() {
        let idx = tiny_index();
        let store = TempStore::new().unwrap();
        let disk = DiskIndex::create(&idx, &store, "qb").unwrap();
        let backends: Vec<Box<dyn QueryBackend>> =
            vec![Box::new(FlatIndex::from_index(&idx)), Box::new(CachedDiskIndex::new(disk, 16))];
        let pairs = [(0u32, 1u32), (1, 2), (2, 2), (0, 2)];
        let mut answers: Vec<Vec<Dist>> = Vec::new();
        for b in &backends {
            assert_eq!(b.num_vertices(), 3);
            assert!(!b.is_directed());
            assert!(b.resident_bytes() > 0);
            let mut out = vec![999];
            b.query_many_into(&pairs, 1, &mut out).unwrap();
            assert_eq!(out[0], 999, "query_many_into must append, not overwrite");
            for (&(s, t), &got) in pairs.iter().zip(&out[1..]) {
                assert_eq!(b.query(s, t).unwrap(), got, "{s}->{t}");
            }
            answers.push(out[1..].to_vec());
        }
        assert!(backends[0].is_resident());
        assert!(!backends[1].is_resident());
        assert_eq!(answers[0], answers[1], "flat and disk answers diverge");
    }
}
