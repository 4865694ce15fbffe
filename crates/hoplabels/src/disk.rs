//! I/O-counted disk queries over the index image.
//!
//! The paper's index is disk-resident: answering `dist(s, t)` reads the
//! two labels `Lout(s)` and `Lin(t)` from disk and merge-joins them
//! (Table 6's "Disk query time" column). [`DiskIndex`] does exactly
//! that over a `HOPIDX04` file ([`crate::image`] owns the format and
//! [`LabelIndex::write_hopidx`] is its only writer): the offset
//! directory (about 2 bytes/vertex/side) is held in memory, as any
//! practical disk index would; a query between labelled vertices then
//! costs two label reads, the paper's two-I/O model. Each read goes
//! through the checked decoder, which puts back the self entry the
//! directory says the label implies, and the rest is [`resolve`] and
//! `merge_join`.
//!
//! Both readers here exist for that table and for hopbench's
//! `cached_disk_*` lines, and neither is a [`crate::QueryBackend`]:
//! serving always loads [`crate::flat::FlatIndex`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use extmem::device::{CountedFile, TempStore};
use extmem::stats::IoStats;
use sfgraph::{Dist, VertexId};

use crate::image::{self, Layout};
use crate::index::{join_entries, resolve, LabelIndex, VertexLabels};

/// A 2-hop index stored in a counted file, queryable without loading the
/// labels into memory.
pub struct DiskIndex {
    file: CountedFile,
    layout: Layout,
    /// The file's prefix and offset directories, as read by `open`.
    front: Vec<u8>,
}

impl DiskIndex {
    /// Serialize `index` into a fresh file in `store`
    /// ([`LabelIndex::write_hopidx`]) and open it for queries.
    pub fn create(index: &LabelIndex, store: &TempStore, tag: &str) -> std::io::Result<DiskIndex> {
        let mut file = store.create(tag)?;
        index.write_hopidx(&mut file)?;
        DiskIndex::open(file)
    }

    /// Open an image file. Reads and checks the prefix and the offset
    /// directories only — not the labels, and so not the checksum over
    /// them (no single flipped bit of the flags word is valid, so the
    /// prefix needs none); every label is decoded by the checked decoder when a query reads
    /// it, and a malformed one is that query's `InvalidData`.
    pub fn open(mut file: CountedFile) -> std::io::Result<DiskIndex> {
        let mut prefix = [0u8; image::PREFIX_LEN];
        file.read_exact_at(0, &mut prefix)?;
        // Bound the untrusted vertex count by the file length before
        // sizing the directory buffer from it.
        let file_len = file.len()?;
        let front_len = image::Header::parse(&prefix)?
            .labels_at()
            .filter(|&len| len as u64 <= file_len)
            .ok_or_else(|| image::bad("vertex count exceeds the index file"))?;
        let mut front = vec![0u8; front_len];
        file.read_exact_at(0, &mut front)?;
        let layout = Layout::parse(&front, file_len)?;
        Ok(DiskIndex { file, layout, front })
    }

    /// Consume the handle, keeping the backing file on disk, and return
    /// its path (pair with [`DiskIndex::open`] to reload later).
    pub fn persist(mut self) -> std::path::PathBuf {
        self.file.persist();
        self.file.path().to_path_buf()
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.layout.header.n
    }

    /// Whether this index stores separate `Lin`/`Lout` directions.
    pub fn is_directed(&self) -> bool {
        self.layout.header.directed
    }

    /// Bytes occupied by the index file.
    pub fn file_bytes(&self) -> std::io::Result<u64> {
        self.file.len()
    }

    /// The I/O counters recording query traffic.
    pub fn stats(&self) -> Arc<IoStats> {
        self.file.stats()
    }

    /// Read and decode the slot of `v` on the source (`target_side ==
    /// false`) or target side.
    fn read_label(&mut self, v: VertexId, target_side: bool) -> std::io::Result<VertexLabels> {
        // An undirected layout aliases side 1 to side 0.
        let (side, v) = (target_side as usize, v as usize);
        let span = self.layout.span(&self.front, side, v).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "vertex out of range")
        })?;
        let mut bytes = vec![0u8; span.len()];
        if !bytes.is_empty() {
            self.file.read_exact_at(span.start as u64, &mut bytes)?;
        }
        let implies_self = self.layout.implies_self(&self.front, side, v);
        image::decode_slot(&bytes, v, &self.layout.header, implies_self)
    }

    /// Disk-based distance query: [`resolve`] over slots read from the
    /// file, joined by `merge_join` — two label reads and a join, up to
    /// six reads and four joins when both ends are derived vertices, and
    /// none for `s == t`, which would double the I/O of self-queries.
    pub fn query(&mut self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        check_range(self.num_vertices(), s, t)?;
        let slot = |v, target_side| self.read_label(v, target_side);
        resolve(s, t, slot, VertexLabels::record, join_entries)
    }
}

/// A [`DiskIndex`] with an LRU label cache.
///
/// Coverage statistics (Table 7) show that a tiny set of top-ranked
/// vertices appears in nearly every label — and the *labels of hot
/// query endpoints* repeat heavily in real workloads too. Caching whole
/// per-vertex labels (not blocks) exploits that skew: a few thousand
/// cached labels absorb most of the two reads a cold query pays.
///
/// Queries take `&self`: the disk handle and cache live behind an
/// internal mutex, so one `CachedDiskIndex` can be shared across
/// threads (concurrent queries serialize).
pub struct CachedDiskIndex {
    n: usize,
    state: Mutex<CacheState>,
}

struct CacheState {
    inner: DiskIndex,
    capacity: usize,
    /// vertex (by side) -> (slot, LRU stamp)
    cache: HashMap<(VertexId, bool), (VertexLabels, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// `InvalidInput` unless `s` and `t` are vertices of an `n`-vertex
/// index — checked before anything else, `s == t` included.
fn check_range(n: usize, s: VertexId, t: VertexId) -> std::io::Result<()> {
    if (s as usize) < n && (t as usize) < n {
        Ok(())
    } else {
        Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "vertex out of range"))
    }
}

fn poisoned() -> std::io::Error {
    std::io::Error::other("disk index lock poisoned")
}

impl CachedDiskIndex {
    /// Wrap a disk index with a cache of up to `capacity` labels.
    pub fn new(inner: DiskIndex, capacity: usize) -> CachedDiskIndex {
        CachedDiskIndex {
            n: inner.num_vertices(),
            state: Mutex::new(CacheState {
                inner,
                capacity: capacity.max(2),
                cache: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// `(hits, misses)` since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.state.lock().map(|s| (s.hits, s.misses)).unwrap_or((0, 0))
    }

    /// Distance query, as [`DiskIndex::query`] but with label reads
    /// through the cache (`s == t` answers 0 without consulting cache or
    /// disk, once the ids are checked against the vertex count).
    pub fn query(&self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        check_range(self.n, s, t)?;
        let mut state = self.state.lock().map_err(|_| poisoned())?;
        let slot = |v, target_side| state.label(v, target_side);
        resolve(s, t, slot, VertexLabels::record, join_entries)
    }
}

impl CacheState {
    fn label(&mut self, v: VertexId, target_side: bool) -> std::io::Result<VertexLabels> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((entries, stamp)) = self.cache.get_mut(&(v, target_side)) {
            *stamp = clock;
            self.hits += 1;
            return Ok(entries.clone());
        }
        self.misses += 1;
        let scratch = self.inner.read_label(v, target_side)?;
        if self.cache.len() >= self.capacity {
            // Evict the least-recently used entry (linear scan — the
            // cache is small and eviction is off the hot hit path).
            if let Some((&key, _)) = self.cache.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                self.cache.remove(&key);
            }
        }
        self.cache.insert((v, target_side), (scratch.clone(), clock));
        Ok(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LabelEntry;
    use crate::flat::FlatIndex;
    use sfgraph::INF_DIST;

    fn small_directed_index() -> LabelIndex {
        // Path 1 -> 0 -> 2 plus 3 isolated.
        let mut d = LabelIndex::new(4, true);
        d.sides_mut()[0][1].insert_min(LabelEntry::new(0, 1));
        d.sides_mut()[1][2].insert_min(LabelEntry::new(0, 1));
        d
    }

    /// There is one image: `write_hopidx` into a `Vec` is byte for byte
    /// the file `DiskIndex::create(..).persist()` leaves, and both
    /// loaders take it.
    fn assert_one_image(index: &LabelIndex) {
        let mut image = Vec::new();
        let len = index.write_hopidx(&mut image).unwrap();
        assert_eq!(len, image.len() as u64);
        let store = TempStore::new().unwrap();
        let path = DiskIndex::create(index, &store, "image").unwrap().persist();
        assert_eq!(std::fs::read(&path).unwrap(), image);

        let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
        assert_eq!(flat, FlatIndex::from_index(index));
        let file = CountedFile::open_path(&path, IoStats::shared()).unwrap();
        let mut reopened = DiskIndex::open(file).unwrap();
        assert_eq!(reopened.file_bytes().unwrap(), len);
        let n = index.num_vertices() as VertexId;
        assert_eq!(
            (reopened.num_vertices(), reopened.is_directed()),
            (n as usize, index.is_directed())
        );
        for s in 0..n {
            for t in 0..n {
                assert_eq!(reopened.query(s, t).unwrap(), index.query(s, t), "{s}->{t}");
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn disk_queries_match_memory_queries() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let mut disk = DiskIndex::create(&index, &store, "idx").unwrap();
        for s in 0..4u32 {
            for t in 0..4u32 {
                assert_eq!(disk.query(s, t).unwrap(), index.query(s, t), "{s}->{t}");
            }
        }
        assert_one_image(&index);
    }

    #[test]
    fn undirected_roundtrip() {
        let mut idx = LabelIndex::new(3, false);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 2));
        idx.sides_mut()[0][2].insert_min(LabelEntry::new(0, 5));
        let store = TempStore::new().unwrap();
        let mut disk = DiskIndex::create(&idx, &store, "u").unwrap();
        assert_eq!(disk.query(1, 2).unwrap(), 7);
        assert_eq!(disk.query(2, 1).unwrap(), 7);
        assert_eq!(disk.query(0, 0).unwrap(), 0);
        assert_one_image(&idx);
        // No vertices at all: the image is the 20-byte prefix and the
        // one-slot directory.
        assert_one_image(&LabelIndex::new(0, false));
        assert_one_image(&LabelIndex::new(0, true));
    }

    #[test]
    fn query_io_is_two_label_reads() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let mut disk = DiskIndex::create(&index, &store, "io").unwrap();
        let stats = disk.stats();
        let before_ops = stats.read_ops();
        disk.query(1, 2).unwrap();
        assert_eq!(stats.read_ops() - before_ops, 2, "one read per label");
    }

    #[test]
    fn self_query_does_no_io() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let mut disk = DiskIndex::create(&index, &store, "self").unwrap();
        let stats = disk.stats();
        let (ops, bytes) = (stats.read_ops(), stats.read_bytes());
        for v in 0..4u32 {
            assert_eq!(disk.query(v, v).unwrap(), 0);
        }
        assert_eq!(stats.read_ops(), ops, "self-queries must not read labels");
        assert_eq!(stats.read_bytes(), bytes, "self-queries must not read bytes");

        // The cached wrapper must not spend cache slots on them either.
        let cached = CachedDiskIndex::new(disk, 16);
        for v in 0..4u32 {
            assert_eq!(cached.query(v, v).unwrap(), 0);
        }
        assert_eq!(cached.hit_stats(), (0, 0), "self-queries bypass the cache");
        assert_eq!(stats.read_ops(), ops);
    }

    #[test]
    fn out_of_range_ids_are_invalid_input_even_when_equal() {
        let store = TempStore::new().unwrap();
        let mut disk = DiskIndex::create(&small_directed_index(), &store, "range").unwrap();
        for (s, t) in [(4 + 5, 4 + 5), (0, 4), (4, 0)] {
            let err = disk.query(s, t).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "({s}, {t})");
        }
        let cached = CachedDiskIndex::new(disk, 4);
        let err = cached.query(4 + 5, 4 + 5).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn unreachable_pairs() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let mut disk = DiskIndex::create(&index, &store, "inf").unwrap();
        assert_eq!(disk.query(3, 0).unwrap(), INF_DIST);
        assert_eq!(disk.query(2, 1).unwrap(), INF_DIST);
    }

    #[test]
    fn cached_index_matches_and_caches() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let disk = DiskIndex::create(&index, &store, "cache").unwrap();
        let stats = disk.stats();
        let cached = CachedDiskIndex::new(disk, 16);
        // First round: cold; second round: every label cached.
        for _round in 0..2 {
            for s in 0..4u32 {
                for t in 0..4u32 {
                    assert_eq!(cached.query(s, t).unwrap(), index.query(s, t));
                }
            }
        }
        let (hits, misses) = cached.hit_stats();
        // 16 pairs per round, minus the 4 self-pairs that short-circuit
        // before touching the cache, times 2 label lookups and 2 rounds.
        assert_eq!(hits + misses, 48);
        assert!(hits >= 24, "second round must be all hits: {hits} hits");
        // I/O stops growing once the cache is warm.
        let ops_warm = stats.read_ops();
        cached.query(1, 2).unwrap();
        assert_eq!(stats.read_ops(), ops_warm, "warm query must not touch the disk");
    }

    #[test]
    fn cache_eviction_keeps_answers_correct() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let disk = DiskIndex::create(&index, &store, "evict").unwrap();
        let cached = CachedDiskIndex::new(disk, 2); // thrashing capacity
        for _ in 0..3 {
            for s in 0..4u32 {
                for t in 0..4u32 {
                    assert_eq!(cached.query(s, t).unwrap(), index.query(s, t));
                }
            }
        }
        let (hits, misses) = cached.hit_stats();
        assert!(misses > 16, "capacity 2 must keep missing (got {misses} misses)");
        assert!(hits > 0, "same-vertex second read should still hit");
    }

    #[test]
    fn persist_and_reopen() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index();
        let disk = DiskIndex::create(&index, &store, "keep").unwrap();
        let path = disk.persist();
        assert!(path.exists());
        // Reopen through a fresh counted handle.
        let store2 = TempStore::new().unwrap();
        let mut f = store2.create("scratch").unwrap();
        // Splice the persisted file into a CountedFile via reopen-at-path:
        // copy bytes over the scratch file.
        std::io::Write::write_all(&mut f, &std::fs::read(&path).unwrap()).unwrap();
        std::io::Write::flush(&mut f).unwrap();
        let mut reopened = DiskIndex::open(f).unwrap();
        for s in 0..4u32 {
            for t in 0..4u32 {
                assert_eq!(reopened.query(s, t).unwrap(), index.query(s, t));
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_garbage_and_truncation() {
        let store = TempStore::new().unwrap();
        let mut junk = store.create("junk").unwrap();
        std::io::Write::write_all(&mut junk, b"definitely-not-an-index").unwrap();
        std::io::Write::flush(&mut junk).unwrap();
        assert!(DiskIndex::open(junk).is_err());

        // Valid magic, absurd vertex count: must fail cleanly without
        // an overflow panic or a vertex-count-sized allocation.
        for bogus_n in [u64::MAX, 1u64 << 61, 1 << 40] {
            let mut crafted = store.create("crafted").unwrap();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"HOPIDX04");
            bytes.extend_from_slice(&[1, 8, 0, 0, 0]);
            bytes.extend_from_slice(&bogus_n.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            std::io::Write::write_all(&mut crafted, &bytes).unwrap();
            std::io::Write::flush(&mut crafted).unwrap();
            assert!(DiskIndex::open(crafted).is_err(), "n = {bogus_n}");
        }

        // Valid header but truncated body.
        let index = small_directed_index();
        let disk = DiskIndex::create(&index, &store, "trunc").unwrap();
        let path = disk.persist();
        let bytes = std::fs::read(&path).unwrap();
        let mut cut = store.create("cut").unwrap();
        std::io::Write::write_all(&mut cut, &bytes[..bytes.len() - 8]).unwrap();
        std::io::Write::flush(&mut cut).unwrap();
        assert!(DiskIndex::open(cut).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn file_size_accounts_header_and_entries() {
        let store = TempStore::new().unwrap();
        let index = small_directed_index(); // 10 entries in 8 labels, every pivot a hub
        let disk = DiskIndex::create(&index, &store, "sz").unwrap();
        // Prefix; two directories of one block, a u32 base and five u16
        // offsets; the two labels that store an entry besides their
        // implied self entry, a hub word each and, every distance being
        // 1, no distance bits; the CRC.
        let expect = 8 + 5 + 8 + 2 * (4 + 5 * 2) + 2 * 8 + 4;
        assert_eq!(disk.file_bytes().unwrap(), expect as u64);
    }
}
