//! External merge sort with one merge rule.
//!
//! Classic two-phase sort in the Aggarwal–Vitter model: runs of at most
//! `M` records are sorted in memory and spilled to counted files, then
//! merged with a k-way heap. Both phases keep every record or, under
//! [`ExternalSorter::min_per_pair`], the nearest record per `(key,
//! pivot)` — the "avoid duplicates" step of Algorithm 2. Records leave
//! a sort or a merge in `(key, pivot, dist)` order, so the nearest of a
//! pair is its first, and the others are dropped.
//!
//! A run is formed without comparing records: one OR pass over the
//! buffer finds the bits its keys, pivots and distances use, each record
//! is packed into one word in those widths, key highest (a `u64` when
//! they fit, a `u128` when they do not), and the words are radix-sorted
//! ([`crate::radix`]) — the order of `LabelRecord`'s `Ord`, since equal
//! words are equal records. The run writer takes the records straight
//! from the sorted words. The merge orders one word a run too: the
//! record's fields, then the run's index, so records equal across runs
//! leave in run order, and a reader's next record replaces its word at
//! the top of the heap with a single sift.
//!
//! The last merge is a stream ([`ExternalSorter::finish_stream`]): a
//! consumer that reads the sorted records once takes them straight from
//! the heap (or from the buffer, when nothing spilled), and only
//! [`ExternalSorter::finish`] pays for a file. Every merge into a file
//! is [`merge_readers`], and every run gets its chunk directory from
//! [`RunWriter`]; a merge consumes all of every input, so the sorter
//! itself never seeks. A [`SortedStream`] has no directory of its own:
//! it hands [`RecordSource::skip_hint`] to each reader still below the
//! key, which reads on to the key outside the merge, and a stream served
//! from a buffer reads on.
//!
//! The same stream, built with [`SortedStream::merge`], reads several
//! sorted files as one without writing it: a base file and the sorted
//! deltas written after it, as a merge into one file would write them.
//! Over readers that can start again ([`Rewind`]) it starts again too,
//! so a reader with a head ([`Run::reader`]) keeps its head.
//!
//! [`ExternalSorter::with_background_spill`] moves the spill work
//! (radix sort + run write) onto a dedicated worker thread fed through a
//! bounded channel, so the producer keeps streaming records while
//! previous batches sort and hit the disk. The spilled runs — and
//! therefore the final merged output, the spill counters, and the byte
//! traffic — are identical to the inline path.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::codec::LabelRecord;
use crate::device::{CountedFile, TempStore};
use crate::radix::{self, Packing, Word};
use crate::run::{chunk_bytes, RecordSource, Rewind, Run, RunReader, RunWriter};
use crate::ExtMemConfig;

/// How many full buffers may queue for the background spill worker
/// before `push` blocks. Bounds the transient memory overshoot of the
/// pipelined path at `(SPILL_QUEUE_DEPTH + 2) × M` records: one buffer
/// filling, `SPILL_QUEUE_DEPTH` queued, one being sorted/written.
const SPILL_QUEUE_DEPTH: usize = 2;

/// How many runs one merge reads at once: each open reader buffers one
/// block of bytes, and together they fit in the `M` records' worth of
/// memory a sorter holds.
fn fan_in(config: &ExtMemConfig) -> usize {
    let memory = config.memory_records * std::mem::size_of::<LabelRecord>();
    (memory / chunk_bytes(config.block_bytes)).max(2)
}

/// Budgeted external sorter for ordered records.
///
/// ```
/// use extmem::{ExtMemConfig, ExternalSorter, LabelRecord};
/// use extmem::device::TempStore;
///
/// let store = TempStore::new()?;
/// let mut sorter = ExternalSorter::new(&store, ExtMemConfig::tiny());
/// for key in (0..1000u32).rev() {
///     sorter.push(LabelRecord::new(key, 0, 1))?;
/// }
/// let sorted = sorter.finish()?;
/// assert_eq!(sorted.len(), 1000);
/// assert_eq!(sorted.read_all()?[0].key, 0);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ExternalSorter<'s> {
    store: &'s TempStore,
    config: ExtMemConfig,
    buffer: Vec<LabelRecord>,
    runs: Vec<Run>,
    /// Keep the nearest record per `(key, pivot)` instead of every one.
    min_per_pair: bool,
    /// Spill on a background worker (started lazily at the first spill,
    /// so sorters whose input fits in memory never spawn a thread).
    background_spill: bool,
    /// The running worker, once the first spill started it.
    spill_worker: Option<SpillWorker>,
}

/// Background run-formation worker: owns a [`crate::device::StoreHandle`]
/// so it can spill runs while the producer thread keeps pushing.
struct SpillWorker {
    tx: Option<SyncSender<Vec<LabelRecord>>>,
    recycle: Receiver<Vec<LabelRecord>>,
    handle: Option<JoinHandle<std::io::Result<Vec<Run>>>>,
}

impl SpillWorker {
    /// Close the feed channel, join the worker, and return its runs in
    /// spill order.
    fn finish(mut self) -> std::io::Result<Vec<Run>> {
        drop(self.tx.take());
        match self.handle.take().expect("worker joined once").join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("background spill worker panicked")),
        }
    }
}

impl Drop for SpillWorker {
    fn drop(&mut self) {
        // Abandoned sorter: close the channel and wait the worker out so
        // it never outlives the TempStore it writes into.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<'s> ExternalSorter<'s> {
    /// New sorter spilling into `store` under `config`'s budget.
    pub fn new(store: &'s TempStore, config: ExtMemConfig) -> ExternalSorter<'s> {
        let cap = config.memory_records.max(2);
        ExternalSorter {
            store,
            config,
            buffer: Vec::with_capacity(cap.min(1 << 22)),
            runs: Vec::new(),
            min_per_pair: false,
            background_spill: false,
            spill_worker: None,
        }
    }

    /// Keep one record per `(key, pivot)`, the nearest, in every run
    /// and merge, instead of every record.
    pub fn min_per_pair(mut self) -> Self {
        self.min_per_pair = true;
        self
    }

    /// Move run formation onto a background worker thread.
    ///
    /// Full buffers travel through a channel bounded at
    /// `SPILL_QUEUE_DEPTH` (2); the worker radix-sorts and writes each
    /// one while the producer keeps pushing. Call before the first
    /// [`ExternalSorter::push`] (after [`ExternalSorter::min_per_pair`]) —
    /// the worker copies the merge rule when it starts. The thread is
    /// spawned lazily at the first spill, so inputs that fit in memory
    /// never pay for one. The sorted output, the run boundaries, and
    /// every I/O counter are identical to the inline path; only
    /// wall-clock overlap changes.
    pub fn with_background_spill(mut self) -> Self {
        self.background_spill = true;
        self
    }

    fn start_spill_worker(&mut self) {
        let (tx, rx) = sync_channel::<Vec<LabelRecord>>(SPILL_QUEUE_DEPTH);
        let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<Vec<LabelRecord>>();
        let store = self.store.handle();
        let (block_bytes, min_per_pair) = (self.config.block_bytes, self.min_per_pair);
        let handle = std::thread::spawn(move || -> std::io::Result<Vec<Run>> {
            let mut runs = Vec::new();
            while let Ok(mut buf) = rx.recv() {
                let file = store.create("sort-run")?;
                runs.push(spill_run(&mut buf, file, block_bytes, min_per_pair)?);
                store.stats().record_sort_run();
                // Hand the emptied buffer back; a gone producer is fine.
                let _ = recycle_tx.send(buf);
            }
            Ok(runs)
        });
        self.spill_worker =
            Some(SpillWorker { tx: Some(tx), recycle: recycle_rx, handle: Some(handle) });
    }

    /// Add a record, spilling a sorted run when the budget fills.
    pub fn push(&mut self, record: LabelRecord) -> std::io::Result<()> {
        self.buffer.push(record);
        if self.buffer.len() >= self.config.memory_records.max(2) {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if self.background_spill && self.spill_worker.is_none() {
            self.start_spill_worker();
        }
        if let Some(worker) = &mut self.spill_worker {
            let replacement = worker
                .recycle
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(self.buffer.capacity()));
            let full = std::mem::replace(&mut self.buffer, replacement);
            if worker.tx.as_ref().expect("open while worker lives").send(full).is_ok() {
                return Ok(());
            }
            // The worker hung up early: it hit an I/O error. Join it and
            // surface that error to the producer.
            let worker = self.spill_worker.take().expect("checked above");
            return match worker.finish() {
                Err(e) => Err(e),
                Ok(_) => Err(std::io::Error::other("spill worker exited unexpectedly")),
            };
        }
        let file = self.store.create("sort-run")?;
        let (block_bytes, min_per_pair) = (self.config.block_bytes, self.min_per_pair);
        self.runs.push(spill_run(&mut self.buffer, file, block_bytes, min_per_pair)?);
        self.store.stats().record_sort_run();
        Ok(())
    }

    /// Finish sorting: returns one globally sorted run —
    /// [`ExternalSorter::finish_stream`] drained into a file.
    pub fn finish(self) -> std::io::Result<Run> {
        let (store, block_bytes) = (self.store, self.config.block_bytes);
        self.finish_stream()?.into_run(store.create("sort-out")?, block_bytes)
    }

    /// Finish sorting without materialising the result: the globally
    /// sorted records, handed out one at a time.
    ///
    /// Input that never spilled is sorted in the buffer and served from
    /// it with no I/O at all. Otherwise the spilled runs are merged down
    /// to at most the fan-in the memory budget allows (each open reader
    /// needs one block of buffer), each intermediate merge taking no more
    /// runs than that needs, and the stream *is* the last k-way
    /// merge, so its output is read by the consumer instead of being
    /// written and read back.
    pub fn finish_stream(mut self) -> std::io::Result<SortedStream> {
        if self.runs.is_empty() && self.spill_worker.is_none() {
            let mut sorted = Vec::with_capacity(self.buffer.len());
            sort_into(&self.buffer, self.min_per_pair, |r| {
                sorted.push(r);
                Ok(())
            })?;
            let nothing_to_merge = SortedStream::merge(Vec::new(), self.min_per_pair)?;
            let memory = sorted.into_iter();
            return Ok(SortedStream { memory, ..nothing_to_merge });
        }
        self.spill()?;
        if let Some(worker) = self.spill_worker.take() {
            self.runs.extend(worker.finish()?);
        }
        let block_bytes = self.config.block_bytes;
        let max_fanin = fan_in(&self.config);
        while self.runs.len() > max_fanin {
            // Merging the first `R − F + 1` of `R` runs leaves the last
            // merge its fan-in `F` exactly; more would reread runs for
            // nothing. Past `2F − 1` runs that is more than one merge
            // takes, so it takes `F`, and the loop comes back.
            let take = (self.runs.len() - max_fanin + 1).min(max_fanin);
            let batch = self.runs.drain(..take).map(|run| run.into_reader(block_bytes));
            let batch = batch.collect::<std::io::Result<_>>()?;
            let merged = merge_readers(self.store, batch, block_bytes, self.min_per_pair)?;
            self.runs.push(merged);
        }
        self.store.stats().record_merge_pass();
        let readers = self.runs.drain(..).map(|run| run.into_reader(block_bytes));
        SortedStream::merge(readers.collect::<std::io::Result<_>>()?, self.min_per_pair)
    }
}

/// The packing of `records`, `(key, pivot, dist)` key highest, in the
/// widths they use: found in one OR pass over them.
fn packing_of(records: &[LabelRecord]) -> Packing {
    let covers =
        records.iter().fold([0u32; 3], |[k, p, d], r| [k | r.key, p | r.pivot, d | r.dist]);
    Packing::covering(covers)
}

/// Whether `b` repeats the `(key, pivot)` of `a`, the record before it
/// in `(key, pivot, dist)` order: the record `min_per_pair` drops.
#[inline(always)]
fn same_pair(a: LabelRecord, b: LabelRecord) -> bool {
    (a.key, a.pivot) == (b.key, b.pivot)
}

/// Radix-sort `records` and hand them to `emit` in order, the first of
/// each `(key, pivot)` only under `min_per_pair`.
fn sort_into(
    records: &[LabelRecord],
    min_per_pair: bool,
    emit: impl FnMut(LabelRecord) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let packing = packing_of(records);
    if packing.fits_u64() {
        sort_words::<u64>(records, packing, min_per_pair, emit)
    } else {
        sort_words::<u128>(records, packing, min_per_pair, emit)
    }
}

/// [`sort_into`] on words of type `W`; the radix scratch lives only for
/// the sort.
fn sort_words<W: Word>(
    records: &[LabelRecord],
    packing: Packing,
    min_per_pair: bool,
    mut emit: impl FnMut(LabelRecord) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut words: Vec<W> =
        records.iter().map(|&r| packing.pack([r.key, r.pivot, r.dist])).collect();
    radix::sort_from(&mut words, &mut Vec::new(), 0, packing.bits());
    let mut last = None;
    for &w in &words {
        let [key, pivot, dist] = packing.unpack(w);
        let r = LabelRecord::new(key, pivot, dist);
        if !(min_per_pair && last.is_some_and(|l| same_pair(l, r))) {
            emit(r)?;
        }
        last = Some(r);
    }
    Ok(())
}

/// Sort `buf` (left empty) into a run in `file`, the first of each
/// `(key, pivot)` only under `min_per_pair`.
fn spill_run(
    buf: &mut Vec<LabelRecord>,
    file: CountedFile,
    block_bytes: usize,
    min_per_pair: bool,
) -> std::io::Result<Run> {
    let mut w = RunWriter::new(file, block_bytes);
    sort_into(buf, min_per_pair, |r| w.push(r))?;
    buf.clear();
    w.finish()
}

/// A sorted record stream that is not a file: the k-way heap merge of
/// sorted readers — the one merge loop, behind [`merge_readers`],
/// [`ExternalSorter::finish_stream`] and a reader of several sorted files
/// as one alike — or a sorter's buffer that never spilled. The readers
/// are run readers everywhere but in the tests of its order.
pub struct SortedStream<R = RunReader> {
    readers: Vec<R>,
    /// Each open reader's next record and the reader's index, packed by
    /// [`merge_word`]: a min-heap of one word a reader.
    heap: BinaryHeap<Reverse<u128>>,
    /// The record the stream hands out next, held until the heap shows
    /// the one after it, which `min_per_pair` drops if it repeats the pair.
    pending: Option<LabelRecord>,
    min_per_pair: bool,
    /// Already sorted; served when there is nothing to merge.
    memory: std::vec::IntoIter<LabelRecord>,
    /// One reader, every record kept: the merge is that reader, served
    /// without the heap.
    lone: bool,
}

impl<R: RecordSource> SortedStream<R> {
    /// The merge of the sorted `readers`, records equal across readers
    /// taken in reader order: every record, or the nearest per `(key,
    /// pivot)` under `min_per_pair`.
    pub fn merge(readers: Vec<R>, min_per_pair: bool) -> std::io::Result<SortedStream<R>> {
        let heap = BinaryHeap::with_capacity(readers.len());
        let (memory, lone) = (Vec::new().into_iter(), readers.len() == 1 && !min_per_pair);
        let mut merge = SortedStream { readers, heap, pending: None, min_per_pair, memory, lone };
        merge.fill_heap()?;
        Ok(merge)
    }

    /// One word on the heap for each reader's next record, unless the
    /// stream is a lone reader's.
    fn fill_heap(&mut self) -> std::io::Result<()> {
        if self.lone {
            return Ok(());
        }
        for (i, r) in self.readers.iter_mut().enumerate() {
            if let Some(rec) = r.next_record()? {
                self.heap.push(Reverse(merge_word(rec, i)));
            }
        }
        Ok(())
    }

    /// Drain the stream into `file`.
    fn into_run(mut self, file: CountedFile, block_bytes: usize) -> std::io::Result<Run> {
        let mut out = RunWriter::new(file, block_bytes);
        while let Some(r) = self.next_record()? {
            out.push(r)?;
        }
        out.finish()
    }
}

impl<R: RecordSource> RecordSource for SortedStream<R> {
    // Inlined into each consumer's loop: as an out-of-line call per record
    // `finish()` measured 4 % (spilled) to 10 % (in-memory) slower than
    // the merge loop it replaced.
    #[inline(always)]
    fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
        if self.lone {
            return self.readers[0].next_record();
        }
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse(word) = *top;
            let (rec, i) = (merge_record(word), word as u32 as usize);
            // The reader's next record takes its word's place at the top:
            // one sift down per record.
            match self.readers[i].next_record()? {
                Some(next) => *top = Reverse(merge_word(next, i)),
                None => drop(PeekMut::pop(top)),
            }
            let Some(prev) = self.pending else {
                self.pending = Some(rec);
                continue;
            };
            if !(self.min_per_pair && same_pair(prev, rec)) {
                self.pending = Some(rec);
                return Ok(Some(prev));
            }
        }
        Ok(self.pending.take().or_else(|| self.memory.next()))
    }

    /// Passed on to every reader whose next record is below `key`, which
    /// then reads on to its first record at or past `key` outside the
    /// merge: the records a caller discards cost their decoding, not a
    /// sift and a fold each. Every reader reads what the caller's discard
    /// loop would have had it read.
    fn skip_hint(&mut self, key: u32) -> std::io::Result<()> {
        if self.lone {
            return self.readers[0].skip_hint(key);
        }
        if self.heap.peek().is_none_or(|w| merge_record(w.0).key >= key) {
            return Ok(());
        }
        let (mut words, mut kept) = (std::mem::take(&mut self.heap).into_vec(), 0);
        for at in 0..words.len() {
            let Reverse(word) = words[at];
            let (i, mut next) = (word as u32 as usize, Some(merge_record(word)));
            if next.is_some_and(|r| r.key < key) {
                self.readers[i].skip_hint(key)?;
                next = self.readers[i].next_record()?;
                while next.is_some_and(|r| r.key < key) {
                    next = self.readers[i].next_record()?;
                }
            }
            if let Some(r) = next {
                words[kept] = Reverse(merge_word(r, i));
                kept += 1;
            }
        }
        words.truncate(kept);
        self.heap = BinaryHeap::from(words);
        self.pending = self.pending.filter(|r| r.key >= key);
        Ok(())
    }
}

impl<R: Rewind> Rewind for SortedStream<R> {
    /// Every reader back to its first record, and the merge with them. A
    /// stream served from a sorter's buffer has no readers to rewind.
    fn rewind(&mut self) -> std::io::Result<()> {
        debug_assert_eq!(self.memory.len(), 0, "a buffer's stream does not rewind");
        for r in &mut self.readers {
            r.rewind()?;
        }
        self.heap.clear();
        self.pending = None;
        self.fill_heap()
    }
}

/// The merge's word of reader `i`'s record `r`: the fields, then the
/// reader, so words order as the `(record, reader)` pairs do.
#[inline(always)]
fn merge_word(r: LabelRecord, i: usize) -> u128 {
    let fields = u128::from(r.key) << 96 | u128::from(r.pivot) << 64 | u128::from(r.dist) << 32;
    fields | i as u128
}

/// The record of a [`merge_word`].
#[inline(always)]
fn merge_record(w: u128) -> LabelRecord {
    LabelRecord::new((w >> 96) as u32, (w >> 64) as u32, (w >> 32) as u32)
}

/// Merge the sorted streams behind `readers` into one sorted run, as
/// [`SortedStream::merge`] merges them, counting one merge pass. A run
/// the merge may delete is passed as [`Run::into_reader`], one that must
/// outlive it as [`Run::reader`].
pub fn merge_readers(
    store: &TempStore,
    readers: Vec<RunReader>,
    block_bytes: usize,
    min_per_pair: bool,
) -> std::io::Result<Run> {
    store.stats().record_merge_pass();
    let merge = SortedStream::merge(readers, min_per_pair)?;
    merge.into_run(store.create("merge-out")?, block_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_from_slice;

    fn sort_all(records: Vec<LabelRecord>, config: ExtMemConfig) -> Vec<LabelRecord> {
        let store = TempStore::new().unwrap();
        let mut s = ExternalSorter::new(&store, config);
        for r in records {
            s.push(r).unwrap();
        }
        s.finish().unwrap().read_all().unwrap()
    }

    fn draws(seed: u64) -> impl FnMut(u32) -> u32 {
        let mut x = seed;
        move |n| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % u64::from(n)) as u32
        }
    }

    /// The least distance of each `(key, pivot)` of `records`, sorted: what
    /// `min_per_pair` keeps, from a map instead of a merge.
    fn nearest(records: impl IntoIterator<Item = LabelRecord>) -> Vec<LabelRecord> {
        let mut nearest = std::collections::BTreeMap::new();
        for r in records {
            let d = nearest.entry((r.key, r.pivot)).or_insert(r.dist);
            *d = r.dist.min(*d);
        }
        nearest.into_iter().map(|((k, p), d)| LabelRecord::new(k, p, d)).collect()
    }

    /// Everything `source` has left.
    fn drain(source: &mut impl RecordSource) -> Vec<LabelRecord> {
        let mut out = Vec::new();
        while let Some(r) = source.next_record().unwrap() {
            out.push(r);
        }
        out
    }

    /// The groups at `probes` (ascending), read as a join's group reader
    /// reads them: hint the source past what is below the probe, discard
    /// what still is, take the records that carry it.
    fn groups_at(source: &mut impl RecordSource, probes: &[u32]) -> Vec<Vec<LabelRecord>> {
        let mut pending = source.next_record().unwrap();
        let mut groups = Vec::new();
        for &k in probes {
            if pending.is_some_and(|r| r.key < k) {
                source.skip_hint(k).unwrap();
            }
            while pending.is_some_and(|r| r.key < k) {
                pending = source.next_record().unwrap();
            }
            let mut group = Vec::new();
            while let Some(r) = pending.filter(|r| r.key == k) {
                group.push(r);
                pending = source.next_record().unwrap();
            }
            groups.push(group);
        }
        groups
    }

    /// The groups of the sorted `records` at `probes`.
    fn groups_in(records: &[LabelRecord], probes: &[u32]) -> Vec<Vec<LabelRecord>> {
        let group = |k| records.iter().copied().filter(|r| r.key == k).collect();
        probes.iter().map(|&k| group(k)).collect()
    }

    /// A label base and the deltas written after it, each sorted and one
    /// record per `(key, pivot)`: the deltas lower, raise and repeat base
    /// entries, and add entries — among them a key only one delta holds.
    fn base_and_deltas(draw: &mut impl FnMut(u32) -> u32) -> Vec<Vec<LabelRecord>> {
        let unique = |mut run: Vec<LabelRecord>| {
            run.sort_unstable();
            run.dedup_by_key(|r| (r.key, r.pivot));
            run
        };
        let base: Vec<LabelRecord> =
            unique((0..200).map(|_| LabelRecord::new(draw(60), draw(40), 1 + draw(9))).collect());
        let mut runs = vec![base.clone()];
        for d in 0..1 + draw(4) {
            let mut delta: Vec<LabelRecord> = (0..draw(30))
                .map(|_| {
                    let at = base[draw(base.len() as u32) as usize];
                    match draw(4) {
                        0 => LabelRecord::new(at.key, at.pivot, at.dist - 1),
                        1 => LabelRecord::new(at.key, at.pivot, at.dist + 1),
                        2 => at,
                        _ => LabelRecord::new(draw(60), 40 + draw(20), draw(9)),
                    }
                })
                .collect();
            delta.push(LabelRecord::new(70 + d, 3, 2));
            runs.push(unique(delta));
        }
        runs
    }

    /// Run formation and the merge against the comparison sort and the
    /// tuple heap they replaced: pure in-memory functions, no files, so
    /// they run under Miri too.
    mod order {
        use super::*;
        use std::cell::RefCell;
        use std::rc::Rc;

        /// What run formation did before the radix: `sort_unstable` on
        /// the records; under `min_per_pair`, the map of [`nearest`].
        fn compared(records: &[LabelRecord], min_per_pair: bool) -> Vec<LabelRecord> {
            if min_per_pair {
                return nearest(records.iter().copied());
            }
            let mut buf = records.to_vec();
            buf.sort_unstable();
            buf
        }

        fn radixed(records: &[LabelRecord], min_per_pair: bool) -> Vec<LabelRecord> {
            let mut out = Vec::new();
            let emit = |r| {
                out.push(r);
                Ok(())
            };
            sort_into(records, min_per_pair, emit).unwrap();
            out
        }

        /// Every buffer shape whose order a radix could get wrong, each
        /// with whether its key takes the `u128` word.
        fn buffers() -> Vec<(String, Vec<LabelRecord>, bool)> {
            let (r, max) = (LabelRecord::new, u32::MAX);
            let mut draw = draws(0x5047);
            let mut shapes = vec![
                ("empty".into(), vec![], false),
                ("one".into(), vec![r(3, 1, 4)], false),
                ("two".into(), vec![r(9, 2, 6), r(5, 3, 5)], false),
                ("two equal".into(), vec![r(7, 7, 7), r(7, 7, 7)], false),
                ("one at the top".into(), vec![r(max, max, max)], true),
                ("top and bottom".into(), vec![r(max, max, max), r(0, 0, 0), r(max, 0, max)], true),
                ("top dist".into(), vec![r(4, 1, max), r(4, 1, 2), r(0, 9, max - 1)], false),
            ];
            for round in 0..6 {
                let n = 50 + 40 * round;
                let random = (0..n).map(|_| r(draw(997), draw(991), draw(7))).collect();
                shapes.push(("random".into(), random, false));
                // Long runs of one (key, pivot), the distances shuffled.
                let runs = (0..n).map(|i| r(i / 40, (i / 40) % 3, draw(1_000))).collect();
                shapes.push(("equal pairs".into(), runs, false));
                let dups = (0..n).map(|_| r(draw(4), draw(3), draw(2))).collect();
                shapes.push(("duplicates".into(), dups, false));
                let wide = (0..n)
                    .map(|_| match draw(4) {
                        0 => r(max, draw(max), draw(9)),
                        1 => r(draw(max), max, max),
                        2 => r(max - draw(3), max - draw(3), max - draw(3)),
                        _ => r(draw(50), draw(50), draw(9)),
                    })
                    .collect();
                shapes.push(("u32::MAX fields".into(), wide, true));
            }
            shapes
        }

        #[test]
        fn radix_run_formation_equals_the_comparison_sort() {
            for (shape, records, wide) in buffers() {
                assert_eq!(packing_of(&records).fits_u64(), !wide, "{shape}");
                for min_per_pair in [false, true] {
                    let expect = compared(&records, min_per_pair);
                    let at =
                        format!("{shape}, {} records, min per pair {min_per_pair}", records.len());
                    assert_eq!(radixed(&records, min_per_pair), expect, "{at}");
                }
            }
        }

        /// An in-memory sorted source that logs, in `reads`, its `id`
        /// each time it is read.
        struct Logged {
            records: std::vec::IntoIter<LabelRecord>,
            id: usize,
            reads: Rc<RefCell<Vec<usize>>>,
        }

        impl RecordSource for Logged {
            fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
                self.reads.borrow_mut().push(self.id);
                Ok(self.records.next())
            }
        }

        /// The merge the packed word replaced: a heap of `(record,
        /// reader)` tuples, popped, then refilled from the popped reader.
        fn tuple_heap(mut sources: Vec<Logged>) -> Vec<LabelRecord> {
            let mut heap = BinaryHeap::new();
            for (i, s) in sources.iter_mut().enumerate() {
                if let Some(r) = s.next_record().unwrap() {
                    heap.push(Reverse((r, i)));
                }
            }
            let mut out = Vec::new();
            while let Some(Reverse((r, i))) = heap.pop() {
                if let Some(next) = sources[i].next_record().unwrap() {
                    heap.push(Reverse((next, i)));
                }
                out.push(r);
            }
            out
        }

        /// Keeping every record, equal records arriving from different runs
        /// come out of the merge as the tuple heap let them out, and the
        /// runs are read in the same order: ties go to the lower run.
        #[test]
        fn merge_order_equals_the_tuple_heap_ties_included() {
            let mut draw = draws(0x7ee);
            for runs in [1usize, 2, 3, 7, 12] {
                let contents: Vec<Vec<LabelRecord>> = (0..runs)
                    .map(|_| {
                        let len = draw(60);
                        let mut run: Vec<LabelRecord> =
                            (0..len).map(|_| LabelRecord::new(draw(6), draw(3), draw(2))).collect();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                let sources = |reads: &Rc<RefCell<Vec<usize>>>| -> Vec<Logged> {
                    let each = contents.iter().enumerate();
                    each.map(|(id, run)| Logged {
                        records: run.clone().into_iter(),
                        id,
                        reads: Rc::clone(reads),
                    })
                    .collect()
                };
                let (old_reads, new_reads) = (Rc::default(), Rc::default());
                let expect = tuple_heap(sources(&old_reads));
                let mut merged = SortedStream::merge(sources(&new_reads), false).unwrap();
                let mut got = Vec::new();
                while let Some(r) = merged.next_record().unwrap() {
                    got.push(r);
                }
                assert_eq!(got, expect, "{runs} runs");
                assert_eq!(new_reads, old_reads, "{runs} runs: the runs read in another order");
                let ties = expect.windows(2).filter(|w| w[0] == w[1]).count();
                assert!(runs < 3 || ties > 0, "{runs} runs: equal records must meet");
            }
        }
    }

    /// A base and its deltas read as one: the merge of in-memory sources
    /// against the label merge it replaces, one delta at a time into the
    /// base. Pure in-memory functions, no files, so they run under Miri
    /// too.
    mod merged {
        use super::*;

        /// Records in chunks of this many, as a run's directory sees them.
        const CHUNK: usize = 8;

        /// A sorted in-memory source with a chunk directory: a
        /// `skip_hint` jumps, as a run reader does, to the last chunk
        /// ahead whose first key is below the hint, and counts the jump.
        struct Chunked {
            records: Vec<LabelRecord>,
            at: usize,
            skips: usize,
        }

        impl Chunked {
            fn new(records: &[LabelRecord]) -> Chunked {
                Chunked { records: records.to_vec(), at: 0, skips: 0 }
            }
        }

        impl RecordSource for Chunked {
            fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
                let next = self.records.get(self.at).copied();
                self.at += usize::from(next.is_some());
                Ok(next)
            }

            fn skip_hint(&mut self, key: u32) -> std::io::Result<()> {
                let starts = (0..self.records.len()).step_by(CHUNK);
                let below = starts.rev().find(|&s| self.records[s].key < key);
                if let Some(start) = below.filter(|&s| s > self.at) {
                    (self.at, self.skips) = (start, self.skips + 1);
                }
                Ok(())
            }
        }

        impl Rewind for Chunked {
            fn rewind(&mut self) -> std::io::Result<()> {
                self.at = 0;
                Ok(())
            }
        }

        /// What a label merge of `add` into `base` writes.
        fn merge_sorted(base: &[LabelRecord], add: &[LabelRecord]) -> Vec<LabelRecord> {
            let two = vec![Chunked::new(base), Chunked::new(add)];
            drain(&mut SortedStream::merge(two, true).unwrap())
        }

        /// Base and deltas merged at once equal the deltas merged into the
        /// base one by one, record for record — the minimum kept where
        /// runs tie on `(key, pivot)`, a key only a delta holds included —
        /// and so do the groups a sparse probe pass reads, whose hints
        /// land inside the deltas too, before and after a rewind. Keeping
        /// every record, the merge is all of them in order, and the base
        /// alone reads as itself under either rule.
        #[test]
        fn base_and_deltas_read_as_their_label_merges() {
            let mut draw = draws(0xde17a);
            let mut skips_in_deltas = 0;
            for case in 0..12 {
                let runs = base_and_deltas(&mut draw);
                let expect = runs[1..].iter().fold(runs[0].clone(), |b, d| merge_sorted(&b, d));
                let each = nearest(runs.iter().flatten().copied());
                assert_eq!(expect, each, "case {case}: the nearest per pair");
                let mut every = runs.concat();
                every.sort_unstable();
                let all = runs.iter().map(|r| Chunked::new(r)).collect();
                assert_eq!(drain(&mut SortedStream::merge(all, false).unwrap()), every);
                for min_per_pair in [false, true] {
                    let base = vec![Chunked::new(&runs[0])];
                    let mut base = SortedStream::merge(base, min_per_pair).unwrap();
                    assert_eq!(base.lone, !min_per_pair, "case {case}");
                    assert_eq!(drain(&mut base), runs[0], "case {case}, {min_per_pair}");
                }
                let sources = runs.iter().map(|r| Chunked::new(r)).collect();
                let mut merged = SortedStream::merge(sources, true).unwrap();
                assert_eq!(drain(&mut merged), expect, "case {case}");
                let only_in_a_delta = LabelRecord::new(70, 3, 2);
                assert!(expect.contains(&only_in_a_delta), "case {case}");
                let mut keys: Vec<u32> = expect.iter().flat_map(|r| [r.key, r.key + 1]).collect();
                keys.sort_unstable();
                keys.dedup();
                for pass in 0..4 {
                    merged.rewind().unwrap();
                    let density = 1 + draw(5);
                    let probes: Vec<u32> =
                        keys.iter().copied().filter(|_| pass == 0 || draw(density) == 0).collect();
                    let at = format!("case {case}, pass {pass}, {probes:?}");
                    assert_eq!(
                        groups_at(&mut merged, &probes),
                        groups_in(&expect, &probes),
                        "{at}"
                    );
                }
                merged.rewind().unwrap();
                assert_eq!(drain(&mut merged), expect, "case {case}, rewound");
                skips_in_deltas += merged.readers[1..].iter().map(|d| d.skips).sum::<usize>();
            }
            assert!(skips_in_deltas > 0, "a hint must jump inside a delta");
        }
    }

    /// A merge of run readers with heads, rewound pass after pass, reads
    /// the groups a merge of fresh plain readers reads, and never more
    /// bytes: each reader keeps its own head under the merge.
    #[test]
    fn a_merge_of_readers_with_heads_rewinds_pass_for_pass() {
        let mut draw = draws(0x4eadde17a);
        let (block, mut saved) = (64, 0);
        for case in 0..10 {
            let store = TempStore::new().unwrap();
            let runs = base_and_deltas(&mut draw);
            let files: Vec<Run> =
                runs.iter().map(|r| run_from_slice(&store, "lsm", r, block).unwrap()).collect();
            let merge = |heads: &[usize]| {
                let readers = files.iter().zip(heads);
                let readers = readers.map(|(f, &h)| f.reader(block, h).unwrap());
                SortedStream::merge(readers.collect(), true).unwrap()
            };
            let expect = drain(&mut merge(&vec![0; files.len()]));
            let heads: Vec<usize> =
                files.iter().map(|f| draw(f.bytes() as u32 + 1) as usize).collect();
            let mut held = merge(&heads);
            let mut keys: Vec<u32> = expect.iter().flat_map(|r| [r.key, r.key + 1]).collect();
            keys.sort_unstable();
            keys.dedup();
            for pass in 0..5 {
                let density = 1 + draw(6);
                let probes: Vec<u32> =
                    keys.iter().copied().filter(|_| pass == 0 || draw(density) == 0).collect();
                let before = store.stats().read_bytes();
                let plain = groups_at(&mut merge(&vec![0; files.len()]), &probes);
                let plain_bytes = store.stats().read_bytes() - before;
                held.rewind().unwrap();
                let before = store.stats().read_bytes();
                let got = groups_at(&mut held, &probes);
                let held_bytes = store.stats().read_bytes() - before;
                let at = format!("case {case}, pass {pass}, heads {heads:?}");
                assert_eq!(got, plain, "{at}");
                assert_eq!(got, groups_in(&expect, &probes), "{at}");
                assert!(held_bytes <= plain_bytes, "{at}: {held_bytes} > {plain_bytes}");
                saved += plain_bytes - held_bytes;
            }
        }
        assert!(saved > 0, "the heads must serve some reads");
    }

    #[test]
    fn sorts_in_memory_path() {
        let recs = vec![
            LabelRecord::new(3, 0, 0),
            LabelRecord::new(1, 5, 0),
            LabelRecord::new(1, 2, 0),
            LabelRecord::new(2, 9, 0),
        ];
        let sorted = sort_all(recs.clone(), ExtMemConfig::default());
        let mut expect = recs;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn sorts_with_spills() {
        // Pseudo-random order, tiny budget => many runs + multi-pass merge.
        let mut recs = Vec::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            recs.push(LabelRecord::new((x >> 33) as u32 % 997, (x >> 17) as u32 % 991, 1));
        }
        let sorted = sort_all(recs.clone(), ExtMemConfig::tiny());
        let mut expect = recs;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    /// Under `min_per_pair` each `(key, pivot)` keeps its least distance
    /// alone, wherever its records fall: in one buffer, in runs the last
    /// merge meets, on both sides of an intermediate merge.
    #[test]
    fn combiner_keeps_min_dist_per_pair() {
        let config = ExtMemConfig::tiny();
        let (fanin, m) = (fan_in(&config), config.memory_records);
        // Each pair three times, interleaved so its records land in
        // different spill runs.
        let rounds = [5u32, 1, 3].into_iter();
        let interleaved = rounds.flat_map(|round| {
            (0..500).map(move |k| LabelRecord::new(k % 50, k / 50, round + k % 2))
        });
        let mut draw = draws(0x313);
        let mut random = |n: usize| -> Vec<LabelRecord> {
            (0..n).map(|_| LabelRecord::new(draw(40), draw(30), 1 + draw(9))).collect()
        };
        let cases = [(interleaved.collect(), 1), (random(m / 2), 0), (random((fanin + 3) * m), 2)];
        for (recs, passes) in cases {
            let store = TempStore::new().unwrap();
            let mut s = ExternalSorter::new(&store, config.clone()).min_per_pair();
            for &r in &recs {
                s.push(r).unwrap();
            }
            let out = s.finish().unwrap().read_all().unwrap();
            let at = format!("{} records", recs.len());
            assert_eq!(store.stats().merge_passes(), passes, "{at}");
            assert_eq!(out, nearest(recs), "{at}");
        }
    }

    #[test]
    fn empty_input_yields_empty_run() {
        let sorted = sort_all(Vec::new(), ExtMemConfig::tiny());
        assert!(sorted.is_empty());
    }

    /// `finish_stream()` is `finish()` minus the output file, on every
    /// path: never spilled, spilled into one merge, spilled past the
    /// fan-in (intermediate passes first).
    #[test]
    fn finish_stream_equals_finish_without_the_output_file() {
        let config = ExtMemConfig::tiny();
        let fanin = fan_in(&config);
        assert_eq!(fanin, 6, "256 records of 12 bytes over 512-byte reader buffers");
        for (count, passes) in [
            (config.memory_records / 2, 0),
            (3 * config.memory_records, 1),
            ((fanin + 3) * config.memory_records, 2),
        ] {
            let mut x = 7u64;
            let recs: Vec<LabelRecord> = (0..count)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    LabelRecord::new((x >> 33) as u32 % 97, (x >> 17) as u32 % 89, x as u32 % 5)
                })
                .collect();
            let fill = |store| {
                let mut s = ExternalSorter::new(store, config.clone()).min_per_pair();
                for &r in &recs {
                    s.push(r).unwrap();
                }
                s
            };
            let (filed, streamed) = (TempStore::new().unwrap(), TempStore::new().unwrap());
            let out = fill(&filed).finish().unwrap();
            let expect = out.read_all().unwrap();
            let mut stream = fill(&streamed).finish_stream().unwrap();
            let mut got = Vec::new();
            while let Some(r) = stream.next_record().unwrap() {
                got.push(r);
            }
            assert_eq!(got, expect, "{count} records");
            let (f, s) = (filed.stats(), streamed.stats());
            assert_eq!(s.merge_passes(), passes, "{count} records");
            assert_eq!((s.sort_runs(), s.merge_passes()), (f.sort_runs(), f.merge_passes()));
            // The stream saves exactly the output file `finish` writes.
            assert_eq!(s.write_bytes() + out.bytes(), f.write_bytes(), "{count} records");
            if passes == 0 {
                assert_eq!((s.read_bytes(), s.write_bytes()), (0, 0), "in-memory: no I/O");
            }
        }
    }

    /// With `F + k` runs past a fan-in of `F`, the intermediate merge
    /// takes the first `k + 1` runs, what brings the count down to `F`,
    /// and reads and writes those runs' records and bytes and not one
    /// run more — keeping every record, and keeping the nearest of each
    /// pair, whose other record the same or another run holds.
    #[test]
    fn the_intermediate_merge_reads_only_the_runs_above_the_fan_in() {
        let config = ExtMemConfig::tiny();
        let (fanin, m) = (fan_in(&config), config.memory_records);
        let scratch = TempStore::new().unwrap();
        for (k, min_per_pair) in (1..fanin).flat_map(|k| [(k, false), (k, true)]) {
            // What a run of `records` holds under the rule.
            let kept = |records: &[LabelRecord]| {
                let mut sorted = records.to_vec();
                sorted.sort_unstable();
                if min_per_pair {
                    sorted = nearest(sorted);
                }
                sorted
            };
            let run_of = |records: &[LabelRecord]| {
                let kept = kept(records);
                let run = run_from_slice(&scratch, "expect", &kept, config.block_bytes).unwrap();
                (kept.len() as u64, run.bytes())
            };
            let mut draw = draws(k as u64);
            // Distinct records, two to a `(key, pivot)`: every spill takes
            // `m` of them.
            let mut recs: Vec<LabelRecord> = (0..((fanin + k) * m) as u32)
                .map(|i| LabelRecord::new(i / 14, i % 7, 1 + i / 7 % 2))
                .collect();
            for i in (1..recs.len()).rev() {
                recs.swap(i, draw(i as u32 + 1) as usize);
            }
            let store = TempStore::new().unwrap();
            let mut s = ExternalSorter::new(&store, config.clone());
            if min_per_pair {
                s = s.min_per_pair();
            }
            for &r in &recs {
                s.push(r).unwrap();
            }
            let got = drain(&mut s.finish_stream().unwrap());
            let at = format!("k = {k}, min per pair {min_per_pair}");
            assert_eq!(got, kept(&recs), "{at}");
            let stats = store.stats();
            assert_eq!((stats.sort_runs(), stats.merge_passes()), ((fanin + k) as u64, 2), "{at}");
            let sum = |runs: &[(u64, u64)]| runs.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            let spilled: Vec<(u64, u64)> = recs.chunks(m).map(run_of).collect();
            let merged = run_of(&recs[..(k + 1) * m]);
            let (records, bytes) = sum(&[sum(&spilled), merged]);
            let coded = (stats.records_encoded(), stats.records_decoded());
            assert_eq!(coded, (records, records), "{at}");
            assert_eq!((stats.read_bytes(), stats.write_bytes()), (bytes, bytes), "{at}");
            let merged_in = sum(&spilled[..k + 1]).0;
            assert!(!min_per_pair || merged.0 < merged_in, "{at}: the merge must drop a record");
        }
    }

    #[test]
    fn background_spill_matches_inline_exactly() {
        // Same pseudo-random stream through both paths: identical sorted
        // output, identical spill/merge/byte counters.
        let mut recs = Vec::new();
        let mut x = 99u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            recs.push(LabelRecord::new((x >> 33) as u32 % 511, (x >> 17) as u32 % 509, 1));
        }
        let run_path = |background: bool| {
            let store = TempStore::new().unwrap();
            let mut s = ExternalSorter::new(&store, ExtMemConfig::tiny()).min_per_pair();
            if background {
                s = s.with_background_spill();
            }
            for &r in &recs {
                s.push(r).unwrap();
            }
            let out = s.finish().unwrap().read_all().unwrap();
            let st = store.stats();
            (out, st.sort_runs(), st.merge_passes(), st.read_bytes(), st.write_bytes())
        };
        let inline = run_path(false);
        let pipelined = run_path(true);
        assert_eq!(inline.0, pipelined.0, "sorted output diverged");
        assert_eq!(
            (inline.1, inline.2, inline.3, inline.4),
            (pipelined.1, pipelined.2, pipelined.3, pipelined.4),
            "I/O accounting diverged between inline and background spill"
        );
        assert!(inline.1 > 1, "workload must actually spill to exercise the worker");
    }

    #[test]
    fn background_spill_small_input_stays_in_memory_path() {
        let store = TempStore::new().unwrap();
        let mut s = ExternalSorter::new(&store, ExtMemConfig::default()).with_background_spill();
        for i in (0..100u32).rev() {
            s.push(LabelRecord::new(i, 0, 0)).unwrap();
        }
        let out = s.finish().unwrap().read_all().unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dropping_background_sorter_joins_the_worker() {
        let store = TempStore::new().unwrap();
        {
            let mut s = ExternalSorter::new(&store, ExtMemConfig::tiny()).with_background_spill();
            for i in 0..5_000u32 {
                s.push(LabelRecord::new(i, 0, 0)).unwrap();
            }
            // Dropped without finish: must not hang, leak, or outlive the
            // store (the Drop impl closes the channel and joins).
        }
        assert!(store.stats().sort_runs() > 0);
    }

    #[test]
    fn sort_and_merge_counters_are_recorded() {
        let store = TempStore::new().unwrap();
        let mut s = ExternalSorter::new(&store, ExtMemConfig::tiny());
        for i in 0..10_000u32 {
            s.push(LabelRecord::new(10_000 - i, 0, 0)).unwrap();
        }
        let _ = s.finish().unwrap();
        let stats = store.stats();
        let runs = stats.sort_runs();
        let memory = ExtMemConfig::tiny().memory_records as u64;
        assert!(runs >= 10_000 / memory, "tiny budget must spill: {runs} runs");
        assert!(stats.merge_passes() >= 1, "spilled runs need at least one merge pass");
    }

    #[test]
    fn io_traffic_is_recorded() {
        let config = ExtMemConfig::tiny();
        let records: Vec<LabelRecord> =
            (0..5_000u32).map(|i| LabelRecord::new(5_000 - i, 0, 0)).collect();
        let store = TempStore::new().unwrap();
        let mut s = ExternalSorter::new(&store, config.clone());
        for &r in &records {
            s.push(r).unwrap();
        }
        let run = s.finish().unwrap();
        assert_eq!(run.len(), 5_000);
        // The spilled runs: each budget's worth of input, sorted.
        let scratch = TempStore::new().unwrap();
        let spilled: u64 = records
            .chunks(config.memory_records)
            .map(|batch| {
                let mut batch = batch.to_vec();
                batch.sort_unstable();
                run_from_slice(&scratch, "spill", &batch, config.block_bytes).unwrap().bytes()
            })
            .sum();
        let stats = store.stats();
        // At minimum every record is written once during spill and once
        // during merge output.
        assert!(stats.write_bytes() >= spilled + run.bytes());
        assert!(stats.read_bytes() > 0);
    }
}
