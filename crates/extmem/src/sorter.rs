//! External merge sort with an optional combiner.
//!
//! Classic two-phase sort in the Aggarwal–Vitter model: quicksorted runs
//! of at most `M` records are spilled to counted files, then merged with
//! a k-way heap. An optional *combiner* merges consecutive records with
//! equal keys during both phases — the label engines use it to keep one
//! minimum-distance candidate per `(vertex, pivot)` pair, which is the
//! "avoid duplicates" step of Algorithm 2.
//!
//! The last merge is a stream ([`ExternalSorter::finish_stream`]): a
//! consumer that reads the sorted records once takes them straight from
//! the heap (or from the buffer, when nothing spilled), and only
//! [`ExternalSorter::finish`] pays for a file. Every run the sorter
//! writes — spilled, merged or final — gets its chunk directory from
//! [`RunWriter`] like any other; a merge consumes all of every input, so
//! the sorter itself never seeks, and a [`SortedStream`] — not a file —
//! has no directory: it answers [`RecordSource::skip_hint`] with the
//! default "read on".
//!
//! [`ExternalSorter::with_background_spill`] moves the spill work
//! (quicksort + run write) onto a dedicated worker thread fed through a
//! bounded channel, so the producer keeps streaming records while
//! previous batches sort and hit the disk. The spilled runs — and
//! therefore the final merged output, the spill counters, and the byte
//! traffic — are identical to the inline path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::codec::LabelRecord;
use crate::device::{CountedFile, TempStore};
use crate::run::{chunk_bytes, RecordSource, Run, RunReader, RunWriter};
use crate::ExtMemConfig;

/// How many full buffers may queue for the background spill worker
/// before `push` blocks. Bounds the transient memory overshoot of the
/// pipelined path at `(SPILL_QUEUE_DEPTH + 2) × M` records: one buffer
/// filling, `SPILL_QUEUE_DEPTH` queued, one being sorted/written.
const SPILL_QUEUE_DEPTH: usize = 2;

/// Folds two records of one group into its survivor.
pub type Combiner = fn(LabelRecord, LabelRecord) -> LabelRecord;

/// Whether two records belong to one group.
pub type GroupEq = fn(&LabelRecord, &LabelRecord) -> bool;

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
    /// Merge two records that compare equal under the grouping key;
    /// `None` keeps duplicates.
    combiner: Option<Combiner>,
    /// Grouping: records are considered duplicates when `group_eq` says
    /// so. Defaults to full equality of the `Ord` key.
    group_eq: GroupEq,
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
            combiner: None,
            group_eq: |a, b| a.cmp(b).is_eq(),
            background_spill: false,
            spill_worker: None,
        }
    }

    /// Install a combiner: consecutive records for which `group_eq` holds
    /// are folded with `combine`, keeping one survivor.
    pub fn with_combiner(mut self, group_eq: GroupEq, combine: Combiner) -> Self {
        self.group_eq = group_eq;
        self.combiner = Some(combine);
        self
    }

    /// Move run formation onto a background worker thread.
    ///
    /// Full buffers travel through a channel bounded at
    /// `SPILL_QUEUE_DEPTH` (2); the worker quicksorts, combines, and writes
    /// each one while the producer keeps pushing. Call before the first
    /// [`ExternalSorter::push`] (after combiner setup) — the worker
    /// snapshots the combiner configuration when it starts. The thread is
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
        let combiner = self.combiner;
        let group_eq = self.group_eq;
        let block_bytes = self.config.block_bytes;
        let handle = std::thread::spawn(move || -> std::io::Result<Vec<Run>> {
            let mut runs = Vec::new();
            while let Ok(mut buf) = rx.recv() {
                sort_and_combine(&mut buf, combiner, group_eq);
                let mut w = RunWriter::new(store.create("sort-run")?, block_bytes);
                for &r in &buf {
                    w.push(r)?;
                }
                runs.push(w.finish()?);
                store.stats().record_sort_run();
                buf.clear();
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
        sort_and_combine(&mut self.buffer, self.combiner, self.group_eq);
        let mut w = RunWriter::new(self.store.create("sort-run")?, self.config.block_bytes);
        for &r in &self.buffer {
            w.push(r)?;
        }
        self.runs.push(w.finish()?);
        self.buffer.clear();
        self.store.stats().record_sort_run();
        Ok(())
    }

    /// Finish sorting: returns one globally sorted (and combined) run —
    /// [`ExternalSorter::finish_stream`] drained into a file.
    pub fn finish(self) -> std::io::Result<Run> {
        let (store, block_bytes) = (self.store, self.config.block_bytes);
        self.finish_stream()?.into_run(store.create("sort-out")?, block_bytes)
    }

    /// Finish sorting without materialising the result: the globally
    /// sorted (and combined) records, handed out one at a time.
    ///
    /// Input that never spilled is sorted in the buffer and served from
    /// it with no I/O at all. Otherwise the spilled runs are merged down
    /// to at most the fan-in the memory budget allows (each open reader
    /// needs one block of buffer) and the stream *is* the last k-way
    /// merge, so its output is read by the consumer instead of being
    /// written and read back.
    pub fn finish_stream(mut self) -> std::io::Result<SortedStream> {
        if self.runs.is_empty() && self.spill_worker.is_none() {
            sort_and_combine(&mut self.buffer, self.combiner, self.group_eq);
            let nothing_to_merge = SortedStream::merge(Vec::new(), self.combiner, self.group_eq)?;
            let memory = std::mem::take(&mut self.buffer).into_iter();
            return Ok(SortedStream { memory, ..nothing_to_merge });
        }
        self.spill()?;
        if let Some(worker) = self.spill_worker.take() {
            self.runs.extend(worker.finish()?);
        }
        let block_bytes = self.config.block_bytes;
        let max_fanin = fan_in(&self.config);
        while self.runs.len() > max_fanin {
            let batch: Vec<Run> = self.runs.drain(..max_fanin).collect();
            let merged = merge_runs(self.store, batch, block_bytes, self.combiner, self.group_eq)?;
            self.runs.push(merged);
        }
        self.store.stats().record_merge_pass();
        let mut readers = Vec::with_capacity(self.runs.len());
        for run in self.runs.drain(..) {
            readers.push(run.reader(block_bytes)?);
        }
        SortedStream::merge(readers, self.combiner, self.group_eq)
    }
}

/// Sort `buf` and fold each group of `group_eq` records with `combiner`.
fn sort_and_combine(buf: &mut Vec<LabelRecord>, combiner: Option<Combiner>, group_eq: GroupEq) {
    buf.sort_unstable();
    let Some(combine) = combiner else { return };
    let mut write = 0usize;
    for read in 0..buf.len() {
        if write > 0 && group_eq(&buf[write - 1], &buf[read]) {
            buf[write - 1] = combine(buf[write - 1], buf[read]);
        } else {
            buf[write] = buf[read];
            write += 1;
        }
    }
    buf.truncate(write);
}

/// A sorted (and combined) record stream that is not a file: the k-way
/// heap merge of sorted readers — the one merge loop, behind
/// [`merge_readers`] and [`ExternalSorter::finish_stream`] alike — or a
/// sorter's buffer that never spilled.
pub struct SortedStream {
    readers: Vec<RunReader>,
    heap: BinaryHeap<Reverse<(LabelRecord, usize)>>,
    /// The record the next equal-group arrivals are still folded into.
    pending: Option<LabelRecord>,
    combiner: Option<Combiner>,
    group_eq: GroupEq,
    /// Already sorted and combined; served when there is nothing to merge.
    memory: std::vec::IntoIter<LabelRecord>,
}

impl SortedStream {
    fn merge(
        mut readers: Vec<RunReader>,
        combiner: Option<Combiner>,
        group_eq: GroupEq,
    ) -> std::io::Result<SortedStream> {
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(rec) = r.next_record()? {
                heap.push(Reverse((rec, i)));
            }
        }
        let memory = Vec::new().into_iter();
        Ok(SortedStream { readers, heap, pending: None, combiner, group_eq, memory })
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

impl RecordSource for SortedStream {
    // Inlined into each consumer's loop: as an out-of-line call per record
    // `finish()` measured 4 % (spilled) to 10 % (in-memory) slower than
    // the merge loop it replaced.
    #[inline(always)]
    fn next_record(&mut self) -> std::io::Result<Option<LabelRecord>> {
        while let Some(Reverse((rec, i))) = self.heap.pop() {
            if let Some(next) = self.readers[i].next_record()? {
                self.heap.push(Reverse((next, i)));
            }
            match (self.pending.take(), self.combiner) {
                (None, _) => self.pending = Some(rec),
                (Some(prev), Some(combine)) if (self.group_eq)(&prev, &rec) => {
                    self.pending = Some(combine(prev, rec));
                }
                (Some(prev), _) => {
                    self.pending = Some(rec);
                    return Ok(Some(prev));
                }
            }
        }
        Ok(self.pending.take().or_else(|| self.memory.next()))
    }
}

/// Merge already-sorted runs into one sorted run, consuming them.
pub fn merge_runs(
    store: &TempStore,
    runs: Vec<Run>,
    block_bytes: usize,
    combiner: Option<Combiner>,
    group_eq: GroupEq,
) -> std::io::Result<Run> {
    let mut readers = Vec::with_capacity(runs.len());
    for run in runs {
        readers.push(run.reader(block_bytes)?);
    }
    merge_readers(store, readers, block_bytes, combiner, group_eq)
}

/// Merge the sorted streams behind `readers` into one sorted run. A run
/// that must outlive the merge is passed as [`Run::reader_shared`].
pub fn merge_readers(
    store: &TempStore,
    readers: Vec<RunReader>,
    block_bytes: usize,
    combiner: Option<Combiner>,
    group_eq: GroupEq,
) -> std::io::Result<Run> {
    store.stats().record_merge_pass();
    let merge = SortedStream::merge(readers, combiner, group_eq)?;
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

    #[test]
    fn combiner_keeps_min_dist_per_pair() {
        let store = TempStore::new().unwrap();
        let mut s = ExternalSorter::new(&store, ExtMemConfig::tiny()).with_combiner(
            |a: &LabelRecord, b: &LabelRecord| (a.key, a.pivot) == (b.key, b.pivot),
            |a, b| if a.dist <= b.dist { a } else { b },
        );
        // Push each (key, pivot) pair three times with different dists,
        // interleaved so duplicates land in different spill runs.
        for round in [5u32, 1, 3] {
            for k in 0..500u32 {
                s.push(LabelRecord::new(k % 50, k / 50, round + k % 2)).unwrap();
            }
        }
        let out = s.finish().unwrap().read_all().unwrap();
        assert_eq!(out.len(), 500);
        for r in &out {
            assert!(r.dist <= 2, "kept non-minimal dist {r:?}");
        }
        // Sorted and unique by (key, pivot).
        for w in out.windows(2) {
            assert!((w[0].key, w[0].pivot) < (w[1].key, w[1].pivot));
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
                let mut s = ExternalSorter::new(store, config.clone()).with_combiner(
                    |a: &LabelRecord, b: &LabelRecord| (a.key, a.pivot) == (b.key, b.pivot),
                    |a, b| if a.dist <= b.dist { a } else { b },
                );
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
            let mut s = ExternalSorter::new(&store, ExtMemConfig::tiny()).with_combiner(
                |a: &LabelRecord, b: &LabelRecord| (a.key, a.pivot) == (b.key, b.pivot),
                |a, b| if a.dist <= b.dist { a } else { b },
            );
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
