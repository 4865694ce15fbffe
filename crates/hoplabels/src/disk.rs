//! On-disk index layout and I/O-counted disk queries.
//!
//! The paper's index is disk-resident: answering `dist(s, t)` reads the
//! two labels `Lout(s)` and `Lin(t)` from disk and merge-joins them
//! (Table 6's "Disk query time" column). The layout here is:
//!
//! ```text
//! magic "HOPIDX01" | flags u8 ×4 | n u64
//! out_offsets  (n+1) × u64      -- entry index into the out region
//! in_offsets   (n+1) × u64      -- directed only
//! out entries  (pivot u32, dist u32)*
//! in  entries  (pivot u32, dist u32)*   -- directed only
//! ```
//!
//! [`LabelIndex::write_hopidx`] is the only writer of that layout. The
//! offset directory (16 bytes/vertex) is held in memory, as any
//! practical disk index would; each query then costs exactly two label
//! reads, matching the paper's two-I/O query model.

use std::io::Write;
use std::sync::Arc;

use extmem::device::{CountedFile, TempStore};
use extmem::stats::IoStats;
use sfgraph::{Dist, VertexId};

use crate::entry::LabelEntry;
use crate::index::{join_min, LabelIndex, VertexLabels};

const MAGIC: &[u8; 8] = b"HOPIDX01";
const ENTRY_BYTES: u64 = 8;

/// Parsed `HOPIDX01` header: flags, vertex count, offset directories,
/// and the byte positions where the entry regions start. Shared by
/// [`DiskIndex::open`] (which reads it through a counted file) and
/// [`crate::flat::FlatIndex::from_hopidx_bytes`] (which parses a byte
/// image directly).
pub(crate) struct HopIdxHeader {
    pub(crate) directed: bool,
    pub(crate) n: usize,
    pub(crate) out_offsets: Vec<u64>,
    pub(crate) in_offsets: Vec<u64>,
    /// Byte offset of the first out-entry.
    pub(crate) out_base: usize,
    /// Byte offset of the first in-entry (== end of out region when
    /// undirected).
    pub(crate) in_base: usize,
}

impl HopIdxHeader {
    /// Parse the header from the front of a serialized index image.
    pub(crate) fn parse(bytes: &[u8]) -> std::io::Result<HopIdxHeader> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        if bytes.len() < 20 || &bytes[..8] != MAGIC {
            return Err(bad("not a HOPIDX01 file"));
        }
        // The flags word is `[directed, 0, 0, 0]`: reject anything else
        // so corruption in the header cannot be silently ignored.
        if bytes[8] > 1 || bytes[9..12] != [0, 0, 0] {
            return Err(bad("invalid flags word"));
        }
        let directed = bytes[8] != 0;
        let n = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let dirs = if directed { 2 } else { 1 };
        // All size arithmetic is on attacker-controlled header fields:
        // checked/saturating math turns a crafted vertex count into a
        // clean InvalidData error instead of an overflow panic or an
        // absurd allocation.
        let header_len = n
            .checked_add(1)
            .and_then(|slots| slots.checked_mul(8 * dirs))
            .and_then(|dir| dir.checked_add(20))
            .ok_or_else(|| bad("vertex count overflows the offset directory"))?;
        if bytes.len() < header_len {
            return Err(bad("truncated offset directory"));
        }
        let offsets_at = |at: usize| -> Vec<u64> {
            bytes[at..at + (n + 1) * 8]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let out_offsets = offsets_at(20);
        let in_offsets = if directed { offsets_at(20 + (n + 1) * 8) } else { Vec::new() };
        if !offsets_sorted(&out_offsets) || !offsets_sorted(&in_offsets) {
            return Err(bad("offset directory not monotone"));
        }
        let out_total = *out_offsets.last().ok_or_else(|| bad("empty offset table"))? as usize;
        let out_base = header_len;
        let in_base = out_total
            .checked_mul(ENTRY_BYTES as usize)
            .and_then(|b| b.checked_add(out_base))
            .ok_or_else(|| bad("entry counts overflow the out region"))?;
        Ok(HopIdxHeader { directed, n, out_offsets, in_offsets, out_base, in_base })
    }

    /// The header of an image holding labels with these offset
    /// directories (`in_offsets` empty when undirected).
    pub(crate) fn new(
        directed: bool,
        n: usize,
        out_offsets: Vec<u64>,
        in_offsets: Vec<u64>,
    ) -> HopIdxHeader {
        let out_base = 20 + (out_offsets.len() + in_offsets.len()) * 8;
        let out_total = out_offsets.last().copied().unwrap_or(0) as usize;
        let in_base = out_base + out_total * ENTRY_BYTES as usize;
        HopIdxHeader { directed, n, out_offsets, in_offsets, out_base, in_base }
    }

    /// Emit what [`HopIdxHeader::parse`] reads back: magic, flags word,
    /// `n`, then the offset directories. The one place the header is
    /// serialized — [`LabelIndex::write_hopidx`] and the shard cutter
    /// both call it.
    pub(crate) fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[self.directed as u8, 0, 0, 0])?;
        w.write_all(&(self.n as u64).to_le_bytes())?;
        for &o in self.out_offsets.iter().chain(&self.in_offsets) {
            w.write_all(&o.to_le_bytes())?;
        }
        Ok(())
    }

    /// Total byte length a well-formed file with this header must have.
    /// Both loaders require the actual length to match this *exactly* —
    /// trailing bytes are rejected, not tolerated — and the saturating
    /// arithmetic turns overflowing header fields into a length no real
    /// file can match.
    pub(crate) fn expected_len(&self) -> usize {
        (self.in_offsets.last().copied().unwrap_or(0) as usize)
            .saturating_mul(ENTRY_BYTES as usize)
            .saturating_add(self.in_base)
    }
}

fn offsets_sorted(offsets: &[u64]) -> bool {
    offsets.windows(2).all(|w| w[0] <= w[1])
}

/// Bytes [`write_image`] buffers before handing them to the writer: the
/// image streams out, it is never assembled in memory.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

impl LabelIndex {
    /// Serialize the index as a `HOPIDX01` image into `w` — the only
    /// serializer of the format. Streams through a fixed-size buffer
    /// (the external build bounds its memory; writing its result must
    /// not double the index), flushes `w`, and returns the image length
    /// in bytes.
    pub fn write_hopidx(&self, w: &mut impl Write) -> std::io::Result<u64> {
        write_image(self, w).map(|header| header.expected_len() as u64)
    }
}

/// [`LabelIndex::write_hopidx`], returning the header it wrote so
/// [`DiskIndex::create`] keeps the offset directories it just computed.
fn write_image(index: &LabelIndex, w: &mut impl Write) -> std::io::Result<HopIdxHeader> {
    let sides: &[&[VertexLabels]] = match index {
        LabelIndex::Directed(d) => &[&d.out_labels, &d.in_labels],
        LabelIndex::Undirected(u) => &[&u.labels],
    };
    let header = HopIdxHeader::new(
        index.is_directed(),
        index.num_vertices(),
        offsets_of(sides[0]),
        sides.get(1).map_or_else(Vec::new, |inn| offsets_of(inn)),
    );
    let mut w = std::io::BufWriter::with_capacity(WRITE_BUFFER_BYTES, w);
    header.write(&mut w)?;
    for labels in sides {
        for e in labels.iter().flat_map(VertexLabels::entries) {
            let mut entry = [0u8; ENTRY_BYTES as usize];
            entry[..4].copy_from_slice(&e.pivot.to_le_bytes());
            entry[4..].copy_from_slice(&e.dist.to_le_bytes());
            w.write_all(&entry)?;
        }
    }
    w.flush()?;
    Ok(header)
}

/// A 2-hop index stored in a counted file, queryable without loading the
/// labels into memory.
pub struct DiskIndex {
    file: CountedFile,
    directed: bool,
    n: usize,
    out_offsets: Vec<u64>,
    in_offsets: Vec<u64>,
    out_base: u64,
    in_base: u64,
    scratch_s: Vec<LabelEntry>,
    scratch_t: Vec<LabelEntry>,
}

impl DiskIndex {
    /// Serialize `index` into a fresh file in `store`
    /// ([`LabelIndex::write_hopidx`]) and keep it open for queries.
    pub fn create(index: &LabelIndex, store: &TempStore, tag: &str) -> std::io::Result<DiskIndex> {
        let mut file = store.create(tag)?;
        let header = write_image(index, &mut file)?;
        Ok(DiskIndex::from_header(file, header))
    }

    fn from_header(file: CountedFile, header: HopIdxHeader) -> DiskIndex {
        DiskIndex {
            file,
            directed: header.directed,
            n: header.n,
            out_offsets: header.out_offsets,
            in_offsets: header.in_offsets,
            out_base: header.out_base as u64,
            in_base: header.in_base as u64,
            scratch_s: Vec::new(),
            scratch_t: Vec::new(),
        }
    }

    /// Open an index previously written by [`DiskIndex::create`] (e.g.
    /// a persisted file re-opened in a later process).
    pub fn open(mut file: CountedFile) -> std::io::Result<DiskIndex> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut prefix = [0u8; 20];
        file.read_exact_at(0, &mut prefix)?;
        if &prefix[..8] != MAGIC {
            return Err(bad("not a HOPIDX01 file"));
        }
        let directed = prefix[8] != 0;
        let n = u64::from_le_bytes(prefix[12..20].try_into().unwrap()) as usize;
        // Bound the untrusted vertex count by the file length before
        // sizing the header buffer from it: the directory alone needs
        // more than 8 bytes per vertex, so a corrupt count either
        // fails here or yields a modest allocation.
        let file_len = file.len()? as usize;
        let header_len = n
            .checked_add(1)
            .and_then(|slots| slots.checked_mul(8 * if directed { 2 } else { 1 }))
            .and_then(|dir| dir.checked_add(20))
            .filter(|&len| len <= file_len)
            .ok_or_else(|| bad("vertex count exceeds the index file"))?;
        let mut header_bytes = vec![0u8; header_len];
        file.read_exact_at(0, &mut header_bytes)?;
        let header = HopIdxHeader::parse(&header_bytes)?;
        // Exact, not `>=`: trailing bytes mean the file is not what the
        // header says it is, and serving from it would be a guess.
        if file.len()? as usize != header.expected_len() {
            return Err(bad("index file length does not match its header"));
        }
        Ok(DiskIndex::from_header(file, header))
    }

    /// Consume the handle, keeping the backing file on disk, and return
    /// its path (pair with [`DiskIndex::open`] to reload later).
    pub fn persist(mut self) -> std::path::PathBuf {
        self.file.persist();
        self.file.path().to_path_buf()
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Whether this index stores separate `Lin`/`Lout` directions.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Bytes occupied by the index file.
    pub fn file_bytes(&self) -> std::io::Result<u64> {
        self.file.len()
    }

    /// Bytes held resident by this handle (the offset directories; the
    /// entries stay on disk).
    pub fn resident_bytes(&self) -> usize {
        (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<u64>()
    }

    /// The I/O counters recording query traffic.
    pub fn stats(&self) -> Arc<IoStats> {
        self.file.stats()
    }

    fn read_label(
        file: &mut CountedFile,
        base: u64,
        offsets: &[u64],
        v: VertexId,
        scratch: &mut Vec<LabelEntry>,
    ) -> std::io::Result<()> {
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        let count = (hi - lo) as usize;
        scratch.clear();
        if count == 0 {
            return Ok(());
        }
        let mut bytes = vec![0u8; count * ENTRY_BYTES as usize];
        file.read_exact_at(base + lo * ENTRY_BYTES, &mut bytes)?;
        scratch.reserve(count);
        for chunk in bytes.chunks_exact(ENTRY_BYTES as usize) {
            let pivot = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            let dist = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            scratch.push(LabelEntry::new(pivot, dist));
        }
        Ok(())
    }

    /// Disk-based distance query: two label reads plus a merge join.
    ///
    /// `s == t` is answered from the trivial self-entry without
    /// touching the disk — paying two label reads to rediscover
    /// `dist(v, v) = 0` would double the I/O of self-queries.
    pub fn query(&mut self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        if s == t {
            return Ok(0);
        }
        let (s_base, s_offsets) = (self.out_base, &self.out_offsets);
        Self::read_label(&mut self.file, s_base, s_offsets, s, &mut self.scratch_s)?;
        let (t_base, t_offsets) = if self.directed {
            (self.in_base, &self.in_offsets)
        } else {
            (self.out_base, &self.out_offsets)
        };
        Self::read_label(&mut self.file, t_base, t_offsets, t, &mut self.scratch_t)?;
        Ok(join_min(&self.scratch_s, &self.scratch_t))
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
/// serving threads (concurrent queries serialize — correct first; the
/// resident [`crate::flat::FlatIndex`] is the parallel fast path).
pub struct CachedDiskIndex {
    n: usize,
    directed: bool,
    state: Mutex<CacheState>,
}

struct CacheState {
    inner: DiskIndex,
    capacity: usize,
    /// vertex (by side) -> (entries, LRU stamp)
    cache: HashMap<(VertexId, bool), (Vec<LabelEntry>, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

use std::collections::HashMap;
use std::sync::Mutex;

fn poisoned() -> std::io::Error {
    std::io::Error::other("disk index lock poisoned")
}

impl CachedDiskIndex {
    /// Wrap a disk index with a cache of up to `capacity` labels.
    pub fn new(inner: DiskIndex, capacity: usize) -> CachedDiskIndex {
        let (n, directed) = (inner.num_vertices(), inner.is_directed());
        CachedDiskIndex {
            n,
            directed,
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

    /// Number of vertices covered by the wrapped index.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Whether the wrapped index is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Bytes held resident: the wrapped index's offset directories plus
    /// the entries currently cached.
    pub fn resident_bytes(&self) -> usize {
        self.state
            .lock()
            .map(|s| {
                s.inner.resident_bytes()
                    + s.cache.values().map(|(l, _)| l.len() * ENTRY_BYTES as usize).sum::<usize>()
            })
            .unwrap_or(0)
    }

    /// Distance query; label reads go through the cache (`s == t`
    /// short-circuits to 0 without consulting cache, disk, or lock).
    pub fn query(&self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        if s == t {
            return Ok(0);
        }
        let mut state = self.state.lock().map_err(|_| poisoned())?;
        let ls = state.label(s, false)?;
        let lt = state.label(t, true)?;
        Ok(join_min(&ls, &lt))
    }
}

impl CacheState {
    fn label(&mut self, v: VertexId, target_side: bool) -> std::io::Result<Vec<LabelEntry>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((entries, stamp)) = self.cache.get_mut(&(v, target_side)) {
            *stamp = clock;
            self.hits += 1;
            return Ok(entries.clone());
        }
        self.misses += 1;
        let (base, offsets) = if target_side && self.inner.directed {
            (self.inner.in_base, &self.inner.in_offsets)
        } else {
            (self.inner.out_base, &self.inner.out_offsets)
        };
        let mut scratch = Vec::new();
        DiskIndex::read_label(&mut self.inner.file, base, offsets, v, &mut scratch)?;
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

fn offsets_of(labels: &[VertexLabels]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(labels.len() + 1);
    offsets.push(0u64);
    let mut acc = 0u64;
    for l in labels {
        acc += l.len() as u64;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::DirectedLabels;
    use sfgraph::INF_DIST;

    fn small_directed_index() -> LabelIndex {
        // Path 1 -> 0 -> 2 plus 3 isolated.
        let mut d = DirectedLabels {
            in_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
            out_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
        };
        d.out_labels[1].insert_min(LabelEntry::new(0, 1));
        d.in_labels[2].insert_min(LabelEntry::new(0, 1));
        LabelIndex::Directed(d)
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
        let mut idx = LabelIndex::new_undirected(3);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[1].insert_min(LabelEntry::new(0, 2));
            u.labels[2].insert_min(LabelEntry::new(0, 5));
        }
        let store = TempStore::new().unwrap();
        let mut disk = DiskIndex::create(&idx, &store, "u").unwrap();
        assert_eq!(disk.query(1, 2).unwrap(), 7);
        assert_eq!(disk.query(2, 1).unwrap(), 7);
        assert_eq!(disk.query(0, 0).unwrap(), 0);
        assert_one_image(&idx);
        // No vertices at all: the image is the 20-byte prefix and the
        // one-slot directory.
        assert_one_image(&LabelIndex::new_undirected(0));
        assert_one_image(&LabelIndex::new_directed(0));
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
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&[1, 0, 0, 0]);
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
        let index = small_directed_index(); // 10 entries total
        let disk = DiskIndex::create(&index, &store, "sz").unwrap();
        let expect = 8 + 4 + 8 + 2 * 5 * 8 + 10 * 8;
        assert_eq!(disk.file_bytes().unwrap(), expect as u64);
    }
}
