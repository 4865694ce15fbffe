//! The serving backend behind one index *generation*.
//!
//! A [`Generation`] is everything the daemon needs to answer
//! queries from one published index state: the frozen image, served
//! in place as a [`FlatIndex`], wrapped together with a delta overlay
//! in a [`LiveIndex`], the ranking translating original vertex ids to
//! the rank ids the labels are built over (§3.1), and a monotone
//! generation number so clients can observe promotions.
//!
//! Every served image carries its ranking as a `<image>.rank` sidecar
//! (`hopdb-cli build`, `shard` and the compactor's checkpoint all write
//! one), and [`Generation::load`] refuses an image without it: a wire
//! speaks original ids, always.
//!
//! Generations are immutable once published; the server keeps them
//! behind an `Arc` and replaces the `Arc` atomically. That one
//! mechanism covers *both* mutation paths:
//!
//! * a **swap or compaction** publishes a new frozen index under a
//!   bumped generation number;
//! * an **update batch** publishes a copy-on-write successor sharing
//!   the same frozen index (same generation number) with a rebuilt
//!   overlay snapshot.
//!
//! Requests that pinned the old `Arc` finish on it untouched, so every
//! response is consistent with exactly one `(frozen, overlay)` state.
//!
//! # Lock order
//!
//! The serving core has two locks, and every path that holds both
//! acquires them in one order:
//!
//! ```text
//! lineage → current
//! ```
//!
//! * `lineage` — the write side (`server.rs`'s `Lineage`: accepted and
//!   folded edges, the live WAL, the swap and generation epochs). It is
//!   held for the whole of every mutation — update batch, swap,
//!   compaction promote — so mutations are serial and each one sees the
//!   state the previous one committed; the compactor's long build runs
//!   between two short holds of it, never under it;
//! * `current` — the published [`Generation`] `Arc`, a `Published`.
//!   It is the only lock the query path takes (a read lock, for one
//!   `Arc` clone per batch), so no query ever waits on an overlay
//!   rebuild or an fsync; a mutation write-locks it last, for one
//!   pointer store.
//!
//! The type is the proof: the `RwLock` inside a `Published` is private
//! to this module, touched only by its `load` and `store`, and neither
//! returns with its guard held. No lock can therefore be acquired while
//! `current` is held, so `lineage → current` is the only order two
//! locks are ever held in.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use hoplabels::flat::FlatIndex;
use hoplabels::overlay::LiveIndex;
use hoplabels::shard::ShardSpec;
use hoplabels::QueryBackend;
use sfgraph::ranking::Ranking;
use sfgraph::{Dist, VertexId};

/// One immutable, queryable index generation: a frozen image plus an
/// overlay snapshot, dispatched through one [`QueryBackend`] object
/// (the [`LiveIndex`]); the generation adds id translation and range
/// checking on top.
pub struct Generation {
    index: LiveIndex,
    ranking: Arc<Ranking>,
    vertices: usize,
    directed: bool,
    /// The `<path>.shard` sidecar, when this generation serves one
    /// pivot-range shard of a split image (see `hoplabels::shard`).
    shard: Option<ShardSpec>,
}

impl Generation {
    /// Load the image at `path` ([`FlatIndex::load`]) as generation
    /// `generation`, with an empty overlay, behind its `<path>.rank`
    /// sidecar (as written by `hopdb-cli build`), which must be there,
    /// and its `<path>.shard` sidecar, if any.
    pub fn load(path: &Path, generation: u64) -> std::io::Result<Generation> {
        let flat = FlatIndex::load(path)?;
        let ranking = load_ranking(path, flat.num_vertices())?;
        let shard = load_sidecar(path, ".shard", |b| ShardSpec::decode(b, flat.num_vertices()))?;
        Ok(Generation::over(flat, ranking, shard, generation))
    }

    /// Build a generation from an already-frozen index (tests, or a
    /// compaction promoted without a round-trip through disk).
    pub fn from_flat(flat: FlatIndex, ranking: Ranking, generation: u64) -> Generation {
        Generation::over(flat, ranking, None, generation)
    }

    /// A generation serving `frozen` with an empty overlay.
    fn over(
        frozen: FlatIndex,
        ranking: Ranking,
        shard: Option<ShardSpec>,
        generation: u64,
    ) -> Generation {
        let (vertices, directed) = (frozen.num_vertices(), frozen.is_directed());
        let index = LiveIndex::new(Arc::new(frozen), generation);
        Generation { index, ranking: Arc::new(ranking), vertices, directed, shard }
    }

    /// A successor generation sharing this one's frozen index whose
    /// overlay covers `log` — the *complete* list of edge insertions
    /// `(s, t, w)` in original (public) id space accumulated since the
    /// frozen index was built. Self-loops are dropped and zero weights
    /// clamped to 1, matching `sfgraph::GraphBuilder`, so a later full
    /// rebuild of the mutated graph answers identically.
    pub fn with_updates(&self, log: &[(VertexId, VertexId, Dist)]) -> Result<Generation, String> {
        if let Some(msg) = out_of_range(log.iter().map(|&(s, t, _)| (s, t)), self.vertices as u64) {
            return Err(msg);
        }
        let r = &self.ranking;
        let ranked: Vec<_> = log.iter().map(|&(s, t, w)| (r.rank_of(s), r.rank_of(t), w)).collect();
        let index =
            self.index.rebuild_overlay(&ranked).map_err(|e| format!("overlay rebuild: {e}"))?;
        Ok(Generation {
            index,
            ranking: Arc::clone(&self.ranking),
            vertices: self.vertices,
            directed: self.directed,
            shard: self.shard,
        })
    }

    /// Whether the *frozen* index puts the endpoints of some edge of
    /// `edges` (original ids; the graph it was built from) more than 1
    /// apart — which only a weighted build does: an unweighted one
    /// leaves every edge's endpoints at distance ≤ 1, and the overlay
    /// (not consulted here) only ever shortens. Edges outside the index
    /// say nothing.
    pub fn frozen_exceeds_one(&self, edges: &[(VertexId, VertexId, Dist)]) -> Result<bool, String> {
        let (n, r) = (self.vertices as VertexId, &self.ranking);
        for &(s, t, _) in edges.iter().filter(|&&(s, t, _)| s < n && t < n) {
            let d = self.index.frozen().query(r.rank_of(s), r.rank_of(t));
            if d.map_err(|e| format!("index query: {e}"))? > 1 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Monotone generation number, reported uniformly through
    /// [`QueryBackend::generation_id`].
    pub fn generation(&self) -> u64 {
        self.index.generation_id()
    }

    /// Vertices covered by this generation.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Whether the underlying index is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// This generation's pivot-range shard slot, when it serves a split
    /// image (`<path>.shard` sidecar was present at load).
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Bytes the serving generation holds resident (frozen + overlay).
    pub fn resident_bytes(&self) -> usize {
        self.index.resident_bytes()
    }

    /// Deduplicated edges in the overlay (0 = frozen-only serving).
    pub fn overlay_edges(&self) -> usize {
        self.index.overlay().num_edges()
    }

    /// Distinct vertices touched by overlay edges.
    pub fn overlay_affected(&self) -> usize {
        self.index.overlay().affected()
    }

    /// Answer a batch of pairs, fanning it across up to `threads`
    /// scoped workers via [`FlatIndex::query_many`]. An out-of-range
    /// vertex fails the whole batch — partial answers would be ambiguous
    /// on the wire.
    pub fn query_many(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
    ) -> Result<Vec<Dist>, String> {
        let mut out = Vec::with_capacity(pairs.len());
        self.query_many_into(pairs, threads, &mut out)?;
        Ok(out)
    }

    /// [`Generation::query_many`] appending into a caller-owned
    /// buffer — the executor answers many coalesced frames into one
    /// result vector. On error nothing is appended.
    pub fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> Result<(), String> {
        if let Some(msg) = out_of_range(pairs.iter().copied(), self.vertices as u64) {
            return Err(msg);
        }
        let r = &self.ranking;
        let ranked: Vec<_> = pairs.iter().map(|&(s, t)| (r.rank_of(s), r.rank_of(t))).collect();
        self.index.query_many_into(&ranked, threads, out).map_err(|e| format!("index query: {e}"))
    }
}

/// The published generation: one `Arc` behind a lock no caller can
/// hold (see the module docs' lock order).
pub(crate) struct Published(RwLock<Arc<Generation>>);

impl Published {
    /// Publish the boot generation.
    pub(crate) fn new(boot: Generation) -> Published {
        Published(RwLock::new(Arc::new(boot)))
    }

    /// The serving generation, pinned by one `Arc` clone.
    pub(crate) fn load(&self) -> Result<Arc<Generation>, String> {
        self.0.read().map(|current| Arc::clone(&current)).map_err(poisoned)
    }

    /// Publish `next` with a single pointer store.
    pub(crate) fn store(&self, next: Arc<Generation>) -> Result<(), String> {
        *self.0.write().map_err(poisoned)? = next;
        Ok(())
    }
}

/// The error a poisoned serving lock becomes.
pub(crate) fn poisoned<T>(_: T) -> String {
    "server state poisoned".to_string()
}

/// The one range check of the serving path: the error naming the first
/// of `ends` — a query's pairs or an update's edge endpoints — that
/// does not fit an `n`-vertex index, `None` when all do.
pub(crate) fn out_of_range(
    ends: impl IntoIterator<Item = (VertexId, VertexId)>,
    n: u64,
) -> Option<String> {
    ends.into_iter()
        .find(|&(s, t)| u64::from(s) >= n || u64::from(t) >= n)
        .map(|(s, t)| format!("vertex out of range: ({s}, {t}) on a {n}-vertex index"))
}

/// `path` with `ext` appended to its file name: where an image's
/// sidecars and a checkpoint's siblings sit.
pub(crate) fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(ext);
    PathBuf::from(name)
}

/// The `<path>.rank` sidecar of a `vertices`-vertex image, read by the
/// one sidecar rule below — for the daemon and `hopdb-cli` alike. A
/// missing one is `<file>: no ranking sidecar …`: without it the wire
/// would speak rank ids, which no client can know.
pub fn load_ranking(path: &Path, vertices: usize) -> std::io::Result<Ranking> {
    let rank = load_sidecar(path, ".rank", |b| Ranking::from_sidecar_bytes(b, vertices))?;
    let name = sibling(path, ".rank");
    let missing = format!("{}: no ranking sidecar (`hopdb-cli build` writes it)", name.display());
    rank.ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, missing))
}

/// Read the `<path><ext>` sidecar if present: `.rank` or `.shard`.
/// `Ok(None)` only when the file does not exist. One that cannot be
/// read is `cannot read <file>: …`, and a present-but-invalid one
/// `<file>: …` — serving with silently wrong id translation would
/// corrupt every answer, and routing on a corrupt shard map would drop
/// label entries from them.
fn load_sidecar<T, E: std::fmt::Display>(
    path: &Path,
    ext: &str,
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) -> std::io::Result<Option<T>> {
    let sidecar = sibling(path, ext);
    let name = sidecar.display();
    let bytes = match std::fs::read(&sidecar) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(std::io::Error::new(e.kind(), format!("cannot read {name}: {e}"))),
    };
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{name}: {e}"));
    decode(&bytes).map(Some).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplabels::{LabelEntry, LabelIndex};

    fn tiny_index() -> LabelIndex {
        let mut idx = LabelIndex::new(3, false);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 2));
        idx.sides_mut()[0][2].insert_min(LabelEntry::new(0, 5));
        idx
    }

    fn tiny_flat() -> FlatIndex {
        FlatIndex::from_index(&tiny_index())
    }

    /// A fresh scratch directory, removed when it drops, holding the tiny
    /// image as `t.idx`.
    fn staged() -> (extmem::device::TempStore, PathBuf) {
        let store = extmem::device::TempStore::new().unwrap();
        let path = store.dir().join("t.idx");
        tiny_index().write_hopidx(&mut std::fs::File::create(&path).unwrap()).unwrap();
        (store, path)
    }

    #[test]
    fn from_flat_serves_and_range_checks() {
        let g = Generation::from_flat(tiny_flat(), Ranking::identity(3), 1);
        assert_eq!(g.vertices(), 3);
        assert_eq!(g.generation(), 1);
        assert_eq!(g.overlay_edges(), 0);
        assert_eq!(g.query_many(&[(1, 2), (2, 2)], 1).unwrap(), vec![7, 0]);
        let err = g.query_many(&[(0, 3)], 1).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn ranking_translates_original_ids() {
        // Ranking [2, 0, 1]: original vertex 2 is rank 0, etc.
        let ranking = Ranking::from_order(vec![2, 0, 1]);
        let g = Generation::from_flat(tiny_flat(), ranking, 1);
        // original (0, 1) -> ranks (1, 2) -> 7.
        assert_eq!(g.query_many(&[(0, 1)], 1).unwrap(), vec![7]);
    }

    #[test]
    fn with_updates_improves_answers_and_translates_ids() {
        // Under the identity ranking: dist(1, 2) = 7 through pivot 0.
        let g = Generation::from_flat(tiny_flat(), Ranking::identity(3), 3);
        let live = g.with_updates(&[(1, 2, 3)]).unwrap();
        assert_eq!(live.generation(), 3, "updates do not bump the generation");
        assert_eq!(live.overlay_edges(), 1);
        assert_eq!(live.query_many(&[(1, 2), (0, 1)], 1).unwrap(), vec![3, 2]);
        // The original generation is untouched (copy-on-write).
        assert_eq!(g.query_many(&[(1, 2)], 1).unwrap(), vec![7]);
        // Range violations are rejected before anything is built.
        let err = live.with_updates(&[(1, 2, 3), (0, 9, 1)]).err().unwrap();
        assert!(err.contains("out of range"), "{err}");

        // Update edges arrive in original id space.
        let ranking = Ranking::from_order(vec![2, 0, 1]);
        let g = Generation::from_flat(tiny_flat(), ranking, 1);
        // original (0, 1) -> ranks (1, 2): same improvement as above.
        let live = g.with_updates(&[(0, 1, 3)]).unwrap();
        assert_eq!(live.query_many(&[(0, 1)], 1).unwrap(), vec![3]);
    }

    #[test]
    fn missing_sidecar_is_none_invalid_is_error() {
        let (_store, path) = staged();
        let sidecar = format!("{}.rank", path.to_string_lossy());
        // A missing `.shard` is an unsplit image; a missing `.rank` is
        // refused, naming the file.
        let shard = load_sidecar(&path, ".shard", |b| ShardSpec::decode(b, 3)).unwrap();
        assert!(shard.is_none());
        let err = load_ranking(&path, 3).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(err.to_string().starts_with(&format!("{sidecar}: no ranking sidecar")), "{err}");
        let err = Generation::load(&path, 1).err().unwrap().to_string();
        assert!(err.starts_with(&format!("{sidecar}: ")), "{err}");
        // Wrong magic.
        std::fs::write(&sidecar, b"NOTRANK!").unwrap();
        assert!(load_ranking(&path, 0)
            .unwrap_err()
            .to_string()
            .starts_with(&format!("{sidecar}: ")));
        // Not a permutation.
        let mut bytes = b"HOPRANK1".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&sidecar, &bytes).unwrap();
        assert!(load_ranking(&path, 2).is_err());
        std::fs::remove_file(&sidecar).unwrap();
        // Unreadable is an error naming the file, not an absent sidecar.
        std::fs::create_dir(&sidecar).unwrap();
        let err = load_ranking(&path, 3).unwrap_err().to_string();
        assert!(err.starts_with(&format!("cannot read {sidecar}: ")), "{err}");
    }

    /// A lone node would report, and take updates for, a range it does
    /// not serve: a `.shard` whose range does not fit the image is
    /// refused at load, naming the file.
    #[test]
    fn load_refuses_a_shard_range_that_does_not_fit_the_image() {
        let (_store, path) = staged();
        std::fs::write(sibling(&path, ".rank"), Ranking::identity(3).to_sidecar_bytes()).unwrap();
        let sidecar = sibling(&path, ".shard");
        let whole = ShardSpec { lo: 0, hi: 3, index: 0, count: 1 };
        std::fs::write(&sidecar, whole.encode()).unwrap();
        assert_eq!(Generation::load(&path, 1).unwrap().shard(), Some(whole));
        for spec in [
            ShardSpec { lo: 0, hi: 2, index: 0, count: 1 },
            ShardSpec { lo: 0, hi: 4, index: 0, count: 1 },
            ShardSpec { lo: 1, hi: 9, index: 1, count: 2 },
        ] {
            std::fs::write(&sidecar, spec.encode()).unwrap();
            let err = Generation::load(&path, 1).err().unwrap();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let want = format!(
                "{}: shard {} of {} owns pivots",
                sidecar.display(),
                spec.index,
                spec.count
            );
            assert!(err.to_string().starts_with(&want), "{err}");
        }
    }
}
