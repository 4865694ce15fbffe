//! Sequential record streams ("runs") over counted files.
//!
//! A run is written once, front to back, as *chunks* of the whole
//! records that fit in one block, delta-coded ([`crate::codec`]). Writer
//! and reader each buffer one block; the reader decodes in place from
//! it, so it holds `B` bytes however many records they code.
//!
//! A run is read front to back — but not necessarily all of it. The
//! writer notes where each chunk starts: its first key, byte offset and
//! record index, one entry per block written, `O(N/B)` memory, built by
//! the write that happens anyway. The finished [`Run`] hands this sparse
//! directory to its readers, and a reader of a key-sorted run that is
//! told "nothing below key `k` is wanted" ([`RecordSource::skip_hint`])
//! positions itself at the last chunk whose first key is `< k` instead of
//! decoding its way there — forward only, to chunk starts only, and only
//! past what it has already buffered. A dense probe sequence therefore
//! is the plain sequential scan, a sparse one reads only the blocks that
//! hold a wanted key, every byte read is still counted by
//! [`CountedFile`]'s `read`, and each jump is one
//! [`IoStats::seeks`](crate::stats::IoStats::seeks).
//!
//! A caller that reads one run again and again — a block nested loop's
//! inner pass — can give its reader a *head* ([`Run::reader_with_head`]):
//! the run's leading bytes `[0, h)`, at most a budget of them, kept by
//! the reader across its passes ([`RunReader::rewind`]). The head grows
//! only from bytes a pass reads from the file at `h`, so it never holds
//! a byte the pass did not read anyway, and every byte in it was read
//! once and counted. A pass asks for the plain reader's reads, byte for
//! byte; the head serves their part below `h` from memory — no I/O, and
//! a jump that lands there is no seek — and the file the rest.
//!
//! Bytes that do not decode are [`std::io::ErrorKind::InvalidData`]
//! naming the run's file.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, ChunkCursor, LabelRecord, Malformed, MAX_RECORD_BYTES};
use crate::device::CountedFile;

/// The bytes of a chunk and of a reader's or writer's buffer for a block
/// size of `block_bytes`: the block, or one record's most bytes when the
/// block is smaller.
pub(crate) fn chunk_bytes(block_bytes: usize) -> usize {
    block_bytes.max(MAX_RECORD_BYTES)
}

/// Where a chunk starts: one entry of a run's sparse directory.
#[derive(Clone, Copy, Debug)]
struct ChunkStart {
    first_key: u32,
    offset: u64,
    first_record: u64,
}

/// Sparse directory of a run: where each chunk starts. The keys are
/// meaningful for key-sorted runs only; nothing consults them on any
/// other.
#[derive(Clone)]
struct Directory {
    chunks: Arc<[ChunkStart]>,
    /// The run's records and bytes: where its last chunk ends.
    len: u64,
    bytes: u64,
}

impl Directory {
    /// A cursor at the start of chunk `c`.
    fn cursor(&self, c: usize) -> ChunkCursor {
        let Some(start) = self.chunks.get(c) else { return ChunkCursor::new(0, 0) };
        let (end_record, end_offset) =
            self.chunks.get(c + 1).map_or((self.len, self.bytes), |n| (n.first_record, n.offset));
        ChunkCursor::new(end_record - start.first_record, end_offset - start.offset)
    }
}

/// A finished sequential file of `len` records.
pub struct Run {
    file: CountedFile,
    dir: Directory,
}

impl Run {
    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.dir.len
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.dir.len == 0
    }

    /// The run's encoded length: the bytes a full scan reads.
    pub fn bytes(&self) -> u64 {
        self.dir.bytes
    }

    /// Open a sequential reader positioned at the first record, buffering
    /// one block of `block_bytes` bytes.
    pub fn reader(self, block_bytes: usize) -> std::io::Result<RunReader> {
        RunReader::new(self.file, self.dir, block_bytes, 0)
    }

    /// Open a reader over a second handle, leaving `self` reusable.
    pub fn reader_shared(&self, block_bytes: usize) -> std::io::Result<RunReader> {
        self.reader_with_head(block_bytes, 0)
    }

    /// Open a reader over a second handle that keeps up to `head_budget`
    /// of the run's leading bytes in memory as its passes read them (see
    /// the module docs), for a caller that [`RunReader::rewind`]s it.
    pub fn reader_with_head(
        &self,
        block_bytes: usize,
        head_budget: usize,
    ) -> std::io::Result<RunReader> {
        RunReader::new(self.file.reopen()?, self.dir.clone(), block_bytes, head_budget)
    }

    /// The run's file, for errors that name it.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Read every record into memory (tests and small runs only).
    pub fn read_all(&self) -> std::io::Result<Vec<LabelRecord>> {
        let mut reader = self.reader_shared(64 << 10)?;
        let mut out = Vec::with_capacity(self.dir.len as usize);
        while let Some(r) = reader.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Buffered writer producing a [`Run`].
pub struct RunWriter {
    file: CountedFile,
    /// The open chunk's bytes, at most `capacity` of them.
    chunk: Vec<u8>,
    capacity: usize,
    /// The open chunk's last record; `None` when no chunk is open.
    prev: Option<LabelRecord>,
    len: u64,
    /// Bytes of the chunks already written.
    written: u64,
    chunks: Vec<ChunkStart>,
}

impl RunWriter {
    /// Write records into `file` in chunks of at most one block of
    /// `block_bytes` bytes (one record's most bytes when the block is
    /// smaller), each written out as one buffer when the next record does
    /// not fit, and noted in the run's directory.
    pub fn new(file: CountedFile, block_bytes: usize) -> RunWriter {
        let capacity = chunk_bytes(block_bytes);
        RunWriter {
            file,
            chunk: Vec::new(),
            capacity,
            prev: None,
            len: 0,
            written: 0,
            chunks: Vec::new(),
        }
    }

    /// Append one record.
    pub fn push(&mut self, record: LabelRecord) -> std::io::Result<()> {
        if self.prev.is_some() {
            let start = self.chunk.len();
            codec::encode(record, self.prev, &mut self.chunk);
            if self.chunk.len() <= self.capacity {
                self.prev = Some(record);
                self.len += 1;
                return Ok(());
            }
            self.chunk.truncate(start);
            self.write_chunk()?;
        }
        let start =
            ChunkStart { first_key: record.key, offset: self.written, first_record: self.len };
        self.chunks.push(start);
        codec::encode(record, None, &mut self.chunk);
        self.prev = Some(record);
        self.len += 1;
        Ok(())
    }

    fn write_chunk(&mut self) -> std::io::Result<()> {
        self.file.write_all(&self.chunk)?;
        let first = self.chunks.last().map_or(0, |c| c.first_record);
        self.file.stats().record_encoded(self.len - first);
        self.written += self.chunk.len() as u64;
        self.chunk.clear();
        self.prev = None;
        Ok(())
    }

    /// Flush and finish, returning the completed [`Run`].
    pub fn finish(mut self) -> std::io::Result<Run> {
        if self.prev.is_some() {
            self.write_chunk()?;
        }
        self.file.flush()?;
        self.file.seek_to(0)?;
        let dir = Directory { chunks: self.chunks.into(), len: self.len, bytes: self.written };
        Ok(Run { file: self.file, dir })
    }
}

/// A sequential stream of records: a [`RunReader`] over a file, or a
/// sorter's [`crate::sorter::SortedStream`] that never became one.
pub trait RecordSource {
    /// The next record, or `None` at end of stream.
    fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>>;

    /// The caller of a key-sorted stream will discard every record whose
    /// key is below `key`: a source that can pass over some of them
    /// without reading them does so. Records below `key` may still
    /// follow — the caller's discard loop stays — but none at or above it
    /// is lost. The default, for a stream with no directory, reads on.
    fn skip_hint(&mut self, _key: u32) -> std::io::Result<()> {
        Ok(())
    }
}

/// A [`RecordSource`] that can start another pass at its first record: a
/// [`RunReader`], keeping its head, or a merge of them.
pub trait Rewind: RecordSource {
    /// Back to the first record.
    fn rewind(&mut self) -> std::io::Result<()>;
}

impl Rewind for RunReader {
    fn rewind(&mut self) -> std::io::Result<()> {
        RunReader::rewind(self);
        Ok(())
    }
}

impl RecordSource for RunReader {
    #[inline]
    fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
        RunReader::next_record(self)
    }

    /// Position at the last chunk whose first key is `< key` — every
    /// record before it is below `key` too — when that chunk starts past
    /// everything already buffered. Otherwise stay put: what lies between
    /// here and `key` is in the buffer or is the very next read. A jump
    /// into the head moves no file and counts no seek.
    fn skip_hint(&mut self, key: u32) -> std::io::Result<()> {
        let chunks = &self.dir.chunks;
        let below = self.chunk + chunks[self.chunk..].partition_point(|c| c.first_key < key);
        let Some(target) = below.checked_sub(1) else { return Ok(()) };
        let start = chunks[target];
        if start.offset <= self.read_to {
            return Ok(());
        }
        if start.offset >= self.head.len() as u64 {
            self.file.stats().record_seek();
        }
        (self.at, self.filled, self.read_to) = (0, 0, start.offset);
        (self.chunk, self.cursor) = (target, self.dir.cursor(target));
        Ok(())
    }
}

/// Buffered sequential reader over a [`Run`], decoding in place from the
/// one block it buffers.
pub struct RunReader {
    file: CountedFile,
    dir: Directory,
    buf: Box<[u8]>,
    /// `buf[at..filled]` is read and not yet decoded.
    at: usize,
    filled: usize,
    /// The file offset of `buf[filled]`: where the next read starts.
    read_to: u64,
    /// The chunk `cursor` walks.
    chunk: usize,
    cursor: ChunkCursor,
    /// The file's bytes `[0, head.len())`, at most `head_budget` of them.
    head: Vec<u8>,
    head_budget: usize,
    /// Where the file's handle stands: a read the head serves leaves it
    /// behind, and the next read from the file moves it.
    file_at: u64,
    /// Records decoded so far, counted into the file's stats on drop.
    decoded: u64,
}

impl Drop for RunReader {
    fn drop(&mut self) {
        self.file.stats().record_decoded(self.decoded);
    }
}

impl RunReader {
    fn new(
        mut file: CountedFile,
        dir: Directory,
        block_bytes: usize,
        head_budget: usize,
    ) -> std::io::Result<RunReader> {
        file.seek_to(0)?;
        // The head never outgrows the run, so neither does its reservation:
        // a run smaller than the budget reserves its own bytes.
        let head_budget = head_budget.min(usize::try_from(dir.bytes).unwrap_or(usize::MAX));
        Ok(RunReader {
            file,
            buf: vec![0; chunk_bytes(block_bytes)].into_boxed_slice(),
            at: 0,
            filled: 0,
            read_to: 0,
            chunk: 0,
            cursor: dir.cursor(0),
            dir,
            head: Vec::with_capacity(head_budget),
            head_budget,
            file_at: 0,
            decoded: 0,
        })
    }

    /// Back to the first record for another pass, keeping the head: the
    /// pass reads what it holds from memory.
    pub fn rewind(&mut self) {
        (self.at, self.filled, self.read_to) = (0, 0, 0);
        (self.chunk, self.cursor) = (0, self.dir.cursor(0));
    }

    /// Read the next record, or `None` at end of run.
    #[inline]
    pub fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
        loop {
            match self.cursor.next(&self.buf[self.at..self.filled]) {
                Ok(Some((record, used))) => {
                    self.at += used;
                    self.decoded += 1;
                    return Ok(Some(record));
                }
                Ok(None) => {
                    if !self.advance()? {
                        return Ok(None);
                    }
                }
                Err(malformed) => return Err(malformed.in_run(self.file.path())),
            }
        }
    }

    /// The buffer holds no next record: open the next chunk when this one
    /// is done, or read on when the buffer ends inside a record (its tail
    /// moved to the front). `false` at the end of the run.
    #[cold]
    fn advance(&mut self) -> std::io::Result<bool> {
        if self.cursor.is_done() {
            if self.chunk + 1 >= self.dir.chunks.len() {
                return Ok(false);
            }
            self.chunk += 1;
            self.cursor = self.dir.cursor(self.chunk);
            return Ok(true);
        }
        self.buf.copy_within(self.at..self.filled, 0);
        (self.filled, self.at) = (self.filled - self.at, 0);
        let n = self.read_on()?;
        if n == 0 {
            return Err(Malformed::Truncated.in_run(self.file.path()));
        }
        self.filled += n;
        self.read_to += n as u64;
        Ok(true)
    }

    /// Read into `buf[filled..]` from `read_to` on, as one read of the
    /// file would: the part below the head's end from the head, the rest
    /// from the file. A file read that starts at the head's end extends
    /// the head while the budget lasts.
    fn read_on(&mut self) -> std::io::Result<usize> {
        let out = &mut self.buf[self.filled..];
        let resident = usize::try_from(self.read_to).ok().and_then(|at| self.head.get(at..));
        let resident = resident.unwrap_or_default();
        let from_head = resident.len().min(out.len());
        out[..from_head].copy_from_slice(&resident[..from_head]);
        if from_head == out.len() {
            return Ok(from_head);
        }
        let at = self.read_to + from_head as u64;
        if self.file_at != at {
            self.file.seek_to(at)?;
        }
        let n = self.file.read(&mut out[from_head..])?;
        self.file_at = at + n as u64;
        if at == self.head.len() as u64 {
            let grow = n.min(self.head_budget - self.head.len());
            self.head.extend_from_slice(&out[from_head..from_head + grow]);
        }
        Ok(from_head + n)
    }
}

/// Write all `records` into a fresh run in one call.
pub fn run_from_slice(
    store: &crate::device::TempStore,
    tag: &str,
    records: &[LabelRecord],
    block_bytes: usize,
) -> std::io::Result<Run> {
    let mut w = RunWriter::new(store.create(tag)?, block_bytes);
    for &r in records {
        w.push(r)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LabelRecord;
    use crate::device::TempStore;

    #[test]
    fn write_read_roundtrip() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> =
            (0..1000).map(|i| LabelRecord::new(i, i * 2, i + 7)).collect();
        let run = run_from_slice(&store, "rt", &records, 64).unwrap();
        assert_eq!(run.len(), 1000);
        assert_eq!(run.read_all().unwrap(), records);
    }

    #[test]
    fn empty_run() {
        let store = TempStore::new().unwrap();
        let run = run_from_slice(&store, "e", &[], 4).unwrap();
        assert!(run.is_empty());
        let mut r = run.reader(4).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    /// Read the groups at `probes` (ascending) the way a join's group
    /// reader does: discard what is below the probe — after hinting the
    /// source, when `seek` — then take the records that carry it. Returns
    /// the groups and the bytes the pass read.
    fn groups_at(
        store: &TempStore,
        run: &Run,
        buffer_records: usize,
        probes: &[u32],
        seek: bool,
    ) -> (Vec<Vec<LabelRecord>>, u64) {
        pass(store, &mut run.reader_shared(buffer_records).unwrap(), probes, seek)
    }

    /// [`groups_at`] over a reader already open, from where it stands.
    fn pass(
        store: &TempStore,
        reader: &mut RunReader,
        probes: &[u32],
        seek: bool,
    ) -> (Vec<Vec<LabelRecord>>, u64) {
        let before = store.stats().read_bytes();
        let mut pending = reader.next_record().unwrap();
        let mut groups = Vec::new();
        for &k in probes {
            if seek && pending.is_some_and(|r| r.key < k) {
                reader.skip_hint(k).unwrap();
            }
            while pending.is_some_and(|r| r.key < k) {
                pending = reader.next_record().unwrap();
            }
            let mut group = Vec::new();
            while let Some(r) = pending.filter(|r| r.key == k) {
                group.push(r);
                pending = reader.next_record().unwrap();
            }
            groups.push(group);
        }
        (groups, store.stats().read_bytes() - before)
    }

    /// A key-sorted run of groups with the given sizes; keys leave gaps
    /// (and start above 0) so absent keys exist on every side of a group.
    fn grouped(sizes: &[usize]) -> Vec<LabelRecord> {
        let mut recs = Vec::new();
        for (g, &size) in sizes.iter().enumerate() {
            let key = 3 + 2 * g as u32 + (g as u32 % 3);
            recs.extend((0..size as u32).map(|p| LabelRecord::new(key, p, key ^ p)));
        }
        recs
    }

    /// Seeking through the key directory returns exactly the groups a
    /// record-by-record skip returns and never reads more bytes than it,
    /// whatever the probes and wherever the groups fall on the chunk grid.
    #[test]
    fn directory_seeks_return_what_a_record_by_record_skip_returns() {
        const CHUNK: usize = 8;
        let store = TempStore::new().unwrap();
        let mut x = 0x5eed_u64;
        let mut draw = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        let mut shapes: Vec<Vec<usize>> = vec![
            vec![],                              // the empty run
            vec![3],                             // shorter than one chunk
            vec![2, 1, 3],                       // several groups, still one chunk
            vec![CHUNK, 1, CHUNK - 1, 2],        // keys that start exactly on a boundary
            vec![5, CHUNK, 1],                   // a group straddling one boundary
            vec![5, 2 * CHUNK + 1, 1],           // … and two
            vec![1, 3 * CHUNK, 1, 3 * CHUNK, 2], // whole chunks inside one group
        ];
        for groups in [5, 12, 40] {
            shapes.push((0..groups).map(|_| 1 + draw(3 * CHUNK)).collect());
        }
        let mut seeks_seen = 0;
        for sizes in &shapes {
            let recs = grouped(sizes);
            let run = run_from_slice(&store, "dir", &recs, CHUNK).unwrap();
            let expect = |probes: &[u32]| -> Vec<Vec<LabelRecord>> {
                probes
                    .iter()
                    .map(|&k| recs.iter().copied().filter(|r| r.key == k).collect())
                    .collect()
            };
            // Present keys, the absent keys around them, the first key, a
            // key below it and one past the last.
            let last = recs.last().map_or(0, |r| r.key);
            let mut universe: Vec<u32> = recs.iter().flat_map(|r| [r.key, r.key + 1]).collect();
            universe.extend([0, last + 5]);
            universe.sort_unstable();
            universe.dedup();
            // Every ascending probe sequence when there are few enough,
            // seeded draws otherwise.
            let exhaustive = universe.len() <= 12;
            let sequences = if exhaustive { 1usize << universe.len() } else { 400 };
            for seq in 0..sequences {
                let density = 1 + draw(6);
                let probes: Vec<u32> = universe
                    .iter()
                    .enumerate()
                    .filter(
                        |&(i, _)| if exhaustive { seq >> i & 1 == 1 } else { draw(density) == 0 },
                    )
                    .map(|(_, &k)| k)
                    .collect();
                // A reader whose buffer is the writer's chunk, a smaller
                // one, a larger one, one the chunk does not divide.
                for buffer in [CHUNK, 3, 2 * CHUNK, CHUNK + 3] {
                    let seeks_before = store.stats().seeks();
                    let (sought, sought_bytes) = groups_at(&store, &run, buffer, &probes, true);
                    seeks_seen += store.stats().seeks() - seeks_before;
                    let (walked, walked_bytes) = groups_at(&store, &run, buffer, &probes, false);
                    assert_eq!(sought, walked, "{sizes:?} {probes:?} buffer {buffer}");
                    assert_eq!(walked, expect(&probes), "{sizes:?} {probes:?} buffer {buffer}");
                    assert!(
                        sought_bytes <= walked_bytes,
                        "{sizes:?} {probes:?} buffer {buffer}: {sought_bytes} > {walked_bytes}"
                    );
                }
            }
            // Probing every present key is the sequential scan: no jump.
            let mut present: Vec<u32> = recs.iter().map(|r| r.key).collect();
            present.dedup();
            let seeks_before = store.stats().seeks();
            let (_, sought_bytes) = groups_at(&store, &run, CHUNK, &present, true);
            let (_, walked_bytes) = groups_at(&store, &run, CHUNK, &present, false);
            assert_eq!((sought_bytes, store.stats().seeks()), (walked_bytes, seeks_before));
        }
        assert!(seeks_seen > 1000, "the sparse sequences must actually jump: {seeks_seen}");
    }

    /// A reader with a head, rewound pass after pass, returns exactly the
    /// groups a fresh plain reader returns for the same probes, and never
    /// reads more bytes or counts more seeks than it — whatever the chunk
    /// grid, the buffer, the probes and the budget. The head holds the
    /// file's leading bytes, never more than its budget, none at budget 0.
    #[test]
    fn a_head_reads_no_more_than_the_plain_reader_pass_for_pass() {
        let store = TempStore::new().unwrap();
        let mut x = 0x4ead_u64;
        let mut draw = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        let (mut saved, mut full_heads) = (0, 0);
        for case in 0..60 {
            let sizes: Vec<usize> = (0..1 + draw(40)).map(|_| 1 + draw(30)).collect();
            let recs = grouped(&sizes);
            let block = MAX_RECORD_BYTES + draw(50);
            let run = run_from_slice(&store, "head", &recs, block).unwrap();
            let bytes = run.bytes() as usize;
            let mut file_bytes = vec![0; bytes];
            run.file.reopen().unwrap().read_exact_at(0, &mut file_bytes).unwrap();
            let mut keys: Vec<u32> = recs.iter().flat_map(|r| [r.key, r.key + 1]).collect();
            keys.sort_unstable();
            keys.dedup();
            let buffer = [block, 1, 2 * block, block + 3][case % 4];
            for budget in [0, 1, block, draw(bytes + 1), bytes, 2 * bytes + 7] {
                let mut reader = run.reader_with_head(buffer, budget).unwrap();
                for round in 0..5 {
                    // The first pass of a budget a full scan, the rest drawn.
                    let density = 1 + draw(8);
                    let probes: Vec<u32> =
                        keys.iter().copied().filter(|_| round == 0 || draw(density) == 0).collect();
                    let seek = draw(4) != 0;
                    let seeks = store.stats().seeks();
                    let (plain, plain_bytes) = groups_at(&store, &run, buffer, &probes, seek);
                    let plain_seeks = store.stats().seeks() - seeks;
                    reader.rewind();
                    let seeks = store.stats().seeks();
                    let (held, held_bytes) = pass(&store, &mut reader, &probes, seek);
                    let held_seeks = store.stats().seeks() - seeks;
                    let at = format!("case {case} budget {budget} round {round} {probes:?}");
                    assert_eq!(held, plain, "{at}");
                    assert!(held_bytes <= plain_bytes, "{at}: {held_bytes} > {plain_bytes}");
                    assert!(held_seeks <= plain_seeks, "{at}: {held_seeks} > {plain_seeks}");
                    let head = &reader.head;
                    assert!(head.len() <= budget, "{at}: {} > {budget}", head.len());
                    assert_eq!(head[..], file_bytes[..head.len()], "{at}");
                    saved += plain_bytes - held_bytes;
                    if budget >= bytes && round > 0 {
                        // The full scan left the whole run resident.
                        assert_eq!((held_bytes, held_seeks), (0, 0), "{at}");
                    }
                }
                full_heads += usize::from(budget > 0 && reader.head.len() == budget);
            }
        }
        assert!(
            saved > 0 && full_heads > 0,
            "the heads must fill and serve: {saved} B, {full_heads}"
        );
    }

    /// A reader whose head budget exceeds its run reserves the run's
    /// bytes, not the budget, and still keeps the whole run resident: a
    /// second pass reads nothing from the file.
    #[test]
    fn a_head_over_a_run_smaller_than_its_budget_reserves_the_run() {
        let store = TempStore::new().unwrap();
        let recs = grouped(&[3, 5, 2, 7]);
        let run = run_from_slice(&store, "small", &recs, 64).unwrap();
        let budget = 1 << 20;
        assert!(run.bytes() * 100 < budget as u64);
        let mut reader = run.reader_with_head(64, budget).unwrap();
        assert_eq!(reader.head.capacity() as u64, run.bytes());
        let mut keys: Vec<u32> = recs.iter().map(|r| r.key).collect();
        keys.dedup();
        let (first, first_bytes) = pass(&store, &mut reader, &keys, true);
        assert_eq!((reader.head.len() as u64, first_bytes), (run.bytes(), run.bytes()));
        reader.rewind();
        let (again, again_bytes) = pass(&store, &mut reader, &keys, true);
        assert_eq!((again, again_bytes), (first, 0));
        assert_eq!(reader.head.capacity() as u64, run.bytes(), "the head never reallocates");
    }

    /// One probe near the end of a long run reads the chunk that holds
    /// it, not the run.
    #[test]
    fn a_lone_probe_reads_one_chunk() {
        let store = TempStore::new().unwrap();
        let recs: Vec<LabelRecord> =
            (0..10_000).map(|i| LabelRecord::new(i / 3, i % 3, 1)).collect();
        let run = run_from_slice(&store, "lone", &recs, 64).unwrap();
        let (groups, bytes) = groups_at(&store, &run, 64, &[3_000], true);
        assert_eq!(groups, vec![recs[9_000..9_003].to_vec()]);
        // The chunk the reader opened on, and the one it jumped to: a
        // block each, the run being hundreds of them.
        assert_eq!(bytes, 2 * 64);
        assert!(run.bytes() > 300 * 64);
        assert_eq!(store.stats().seeks(), 1);
    }

    /// Every block size from one record's most bytes to the whole run
    /// puts chunk boundaries all over a sequence; each size writes chunks
    /// of at most a block and reads back what was written, through a
    /// buffer of the block and through the smallest buffer.
    #[test]
    fn every_chunk_size_round_trips() {
        let store = TempStore::new().unwrap();
        let max = u32::MAX;
        let mut records = vec![
            LabelRecord::new(max, max, max),
            LabelRecord::new(0, 0, max.saturating_add(1)),
            LabelRecord::new(0, max, 0),
            LabelRecord::new(max, 0, 1),
        ];
        records.extend((0..40).map(|i| LabelRecord::new(9, 400 - 7 * i, i)));
        records.extend((0..40).map(|i| LabelRecord::new(1000 - i, i % 3, 2)));
        let whole = run_from_slice(&store, "whole", &records, usize::MAX).unwrap();
        for block in MAX_RECORD_BYTES..=whole.bytes() as usize + 1 {
            let run = run_from_slice(&store, "sized", &records, block).unwrap();
            let chunks = &run.dir.chunks;
            for (c, start) in chunks.iter().enumerate() {
                let end = chunks.get(c + 1).map_or(run.bytes(), |n| n.offset);
                assert!(end - start.offset <= block as u64, "block {block}, chunk {c}");
                assert_eq!(start.first_key, records[start.first_record as usize].key);
            }
            for buffer in [block, 1] {
                let mut reader = run.reader_shared(buffer).unwrap();
                let mut got = Vec::new();
                while let Some(r) = reader.next_record().unwrap() {
                    got.push(r);
                }
                assert_eq!(got, records, "block {block}, buffer {buffer}");
            }
        }
    }

    /// A run whose file was cut short or overwritten is an `InvalidData`
    /// error naming the file, at the read that meets the damage.
    #[test]
    fn damaged_files_are_invalid_data_naming_the_run() {
        let store = TempStore::new().unwrap();
        let recs: Vec<LabelRecord> = (0..500).map(|i| LabelRecord::new(i / 4, i % 4, 1)).collect();
        let read_to_end = |run: &Run| -> std::io::Result<Vec<LabelRecord>> {
            let mut reader = run.reader_shared(64)?;
            let mut got = Vec::new();
            while let Some(r) = reader.next_record()? {
                got.push(r);
            }
            Ok(got)
        };
        let cut = run_from_slice(&store, "cut", &recs, 64).unwrap();
        cut.file.set_len(cut.bytes() - 1).unwrap();
        // Every continuation bit set: the varint at the damage runs long.
        let smudged = run_from_slice(&store, "smudged", &recs, 64).unwrap();
        let mut file = smudged.file.reopen().unwrap();
        file.seek_to(100).unwrap();
        file.write_all(&[0xff; 8]).unwrap();
        for (run, tag) in [(&cut, "cut-"), (&smudged, "smudged-")] {
            let error = read_to_end(run).expect_err(tag);
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
            assert!(error.to_string().contains(tag), "{error}");
        }
    }

    #[test]
    fn shared_reader_leaves_run_usable() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> = (0..5).map(|i| LabelRecord::new(i, 1, 2)).collect();
        let run = run_from_slice(&store, "s", &records, 4).unwrap();
        assert_eq!(run.read_all().unwrap().len(), 5);
        assert_eq!(run.read_all().unwrap().len(), 5); // twice
    }
}
