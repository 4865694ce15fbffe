//! Sequential record streams ("runs") over counted files.
//!
//! A run is written once, front to back, and read front to back — but
//! not necessarily all of it. The writer notes the key of the first
//! record of every I/O buffer it fills: one `u32` per block written,
//! `O(N/B)` memory, built by the write that happens anyway. The finished
//! [`Run`] hands this sparse key directory to its readers, and a reader
//! of a key-sorted run that is told "nothing below key `k` is wanted"
//! ([`RecordSource::skip_hint`]) positions itself at the last chunk whose
//! first key is `< k` instead of decoding its way there — forward only,
//! to chunk boundaries only, and only past what it has already buffered.
//! A dense probe sequence therefore is the plain sequential scan, a
//! sparse one reads only the blocks that hold a wanted key, every byte
//! read is still counted by [`CountedFile`]'s `read`, and each jump is
//! one [`IoStats::seeks`](crate::stats::IoStats::seeks).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

use crate::codec::Record;
use crate::device::CountedFile;

/// Sparse key directory of a run: the key of the first record of every
/// chunk of `chunk_records` records. Meaningful for key-sorted runs
/// only; nothing consults it on any other.
#[derive(Clone)]
struct Directory {
    chunk_records: u64,
    /// `first_keys[c]` is the key of record `c × chunk_records`.
    first_keys: Arc<[u32]>,
}

/// A finished sequential file of `len` records.
pub struct Run<R: Record> {
    file: CountedFile,
    len: u64,
    dir: Directory,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> Run<R> {
    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Open a sequential reader positioned at the first record.
    pub fn reader(self, buffer_records: usize) -> std::io::Result<RunReader<R>> {
        RunReader::new(self.file, self.len, self.dir, buffer_records)
    }

    /// Open a reader over a second handle, leaving `self` reusable.
    pub fn reader_shared(&self, buffer_records: usize) -> std::io::Result<RunReader<R>> {
        RunReader::new(self.file.reopen()?, self.len, self.dir.clone(), buffer_records)
    }

    /// Read every record into memory (tests and small runs only).
    pub fn read_all(&self) -> std::io::Result<Vec<R>> {
        let mut reader = self.reader_shared(8192)?;
        let mut out = Vec::with_capacity(self.len as usize);
        while let Some(r) = reader.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Buffered writer producing a [`Run`].
pub struct RunWriter<R: Record> {
    out: BufWriter<CountedFile>,
    len: u64,
    buf: Vec<u8>,
    chunk_records: u64,
    /// Records still to come before the next chunk starts.
    until_chunk: u64,
    first_keys: Vec<u32>,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> RunWriter<R> {
    /// Write records into `file`, buffering `buffer_records` records
    /// between flushes to the counted device; each such chunk gets one
    /// entry in the run's key directory.
    pub fn new(file: CountedFile, buffer_records: usize) -> RunWriter<R> {
        let chunk_records = buffer_records.max(1);
        RunWriter {
            out: BufWriter::with_capacity(chunk_records * R::SIZE, file),
            len: 0,
            buf: Vec::with_capacity(R::SIZE),
            chunk_records: chunk_records as u64,
            until_chunk: 0,
            first_keys: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Append one record.
    pub fn push(&mut self, record: R) -> std::io::Result<()> {
        if self.until_chunk == 0 {
            self.first_keys.push(record.key());
            self.until_chunk = self.chunk_records;
        }
        self.until_chunk -= 1;
        self.buf.clear();
        record.encode(&mut self.buf);
        self.out.write_all(&self.buf)?;
        self.len += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flush and finish, returning the completed [`Run`].
    pub fn finish(self) -> std::io::Result<Run<R>> {
        let mut file = self.out.into_inner().map_err(|e| std::io::Error::other(e.to_string()))?;
        file.flush()?;
        file.seek_to(0)?;
        let dir =
            Directory { chunk_records: self.chunk_records, first_keys: self.first_keys.into() };
        Ok(Run { file, len: self.len, dir, _marker: std::marker::PhantomData })
    }
}

/// A sequential stream of records: a [`RunReader`] over a file, or a
/// sorter's [`crate::sorter::SortedStream`] that never became one.
pub trait RecordSource<R: Record> {
    /// The next record, or `None` at end of stream.
    fn next_record(&mut self) -> std::io::Result<Option<R>>;

    /// The caller of a key-sorted stream will discard every record whose
    /// key is below `key`: a source that can pass over some of them
    /// without reading them does so. Records below `key` may still
    /// follow — the caller's discard loop stays — but none at or above it
    /// is lost. The default, for a stream with no directory, reads on.
    fn skip_hint(&mut self, _key: u32) -> std::io::Result<()> {
        Ok(())
    }
}

impl<R: Record> RecordSource<R> for RunReader<R> {
    fn next_record(&mut self) -> std::io::Result<Option<R>> {
        RunReader::next_record(self)
    }

    /// Position at the last chunk whose first key is `< key` — every
    /// record before it is below `key` too — when that chunk starts past
    /// everything already buffered. Otherwise stay put: what lies between
    /// here and `key` is in the buffer or is the very next read.
    fn skip_hint(&mut self, key: u32) -> std::io::Result<()> {
        let next = self.len - self.remaining;
        let keys = &self.dir.first_keys;
        let from = (next / self.dir.chunk_records) as usize;
        let below = from + keys[from..].partition_point(|&first| first < key);
        let Some(chunk) = below.checked_sub(1) else { return Ok(()) };
        let target = chunk as u64 * self.dir.chunk_records;
        let buffered = self.input.buffer().len();
        if target * R::SIZE as u64 <= next * R::SIZE as u64 + buffered as u64 {
            return Ok(());
        }
        self.input.consume(buffered);
        let file = self.input.get_mut();
        file.seek_to(target * R::SIZE as u64)?;
        file.stats().record_seek();
        self.remaining = self.len - target;
        Ok(())
    }
}

/// Buffered sequential reader over a [`Run`].
pub struct RunReader<R: Record> {
    input: BufReader<CountedFile>,
    len: u64,
    remaining: u64,
    dir: Directory,
    scratch: Vec<u8>,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> RunReader<R> {
    fn new(
        mut file: CountedFile,
        len: u64,
        dir: Directory,
        buffer_records: usize,
    ) -> std::io::Result<RunReader<R>> {
        file.seek_to(0)?;
        let cap = buffer_records.max(1) * R::SIZE;
        Ok(RunReader {
            input: BufReader::with_capacity(cap, file),
            len,
            remaining: len,
            dir,
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        })
    }

    /// Records not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read the next record, or `None` at end of run.
    pub fn next_record(&mut self) -> std::io::Result<Option<R>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.input.read_exact(&mut self.scratch)?;
        self.remaining -= 1;
        Ok(Some(R::decode(&self.scratch)))
    }

    /// Fill `out` with up to `max` records; returns how many were read.
    pub fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> std::io::Result<usize> {
        let take = (self.remaining.min(max as u64)) as usize;
        out.reserve(take);
        for _ in 0..take {
            self.input.read_exact(&mut self.scratch)?;
            out.push(R::decode(&self.scratch));
        }
        self.remaining -= take as u64;
        Ok(take)
    }
}

/// Write all `records` into a fresh run in one call.
pub fn run_from_slice<R: Record>(
    store: &crate::device::TempStore,
    tag: &str,
    records: &[R],
    buffer_records: usize,
) -> std::io::Result<Run<R>> {
    let mut w = RunWriter::new(store.create(tag)?, buffer_records);
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
    fn batched_reads() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> = (0..10).map(|i| LabelRecord::new(i, 0, 0)).collect();
        let run = run_from_slice(&store, "b", &records, 4).unwrap();
        let mut reader = run.reader(4).unwrap();
        let mut batch = Vec::new();
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 6);
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 4);
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 0);
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn empty_run() {
        let store = TempStore::new().unwrap();
        let run = run_from_slice::<LabelRecord>(&store, "e", &[], 4).unwrap();
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
        run: &Run<LabelRecord>,
        buffer_records: usize,
        probes: &[u32],
        seek: bool,
    ) -> (Vec<Vec<LabelRecord>>, u64) {
        let before = store.stats().read_bytes();
        let mut reader = run.reader_shared(buffer_records).unwrap();
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
        // The chunk the reader opened on, and the one it jumped to.
        assert_eq!(bytes, 2 * 64 * LabelRecord::SIZE as u64);
        assert_eq!(store.stats().seeks(), 1);
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
