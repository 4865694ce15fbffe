//! Shared I/O accounting in the Aggarwal–Vitter model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic I/O counters shared by every file of one external computation.
///
/// Counts raw byte traffic and the number of read *operations*;
/// [`IoStats::read_blocks`]/[`IoStats::write_blocks`] convert bytes to
/// block I/Os for a given block size `B`, matching the paper's
/// `scan(N) = Θ(N/B)` reporting.
#[derive(Debug, Default)]
pub struct IoStats {
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    read_ops: AtomicU64,
    sort_runs: AtomicU64,
    merge_passes: AtomicU64,
    seeks: AtomicU64,
    records_encoded: AtomicU64,
    records_decoded: AtomicU64,
}

impl IoStats {
    /// Fresh shared counter.
    pub fn shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Record a read of `bytes` bytes.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a write of `bytes` bytes.
    #[inline]
    pub fn record_write(&self, bytes: u64) {
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one sorted run spilled by an external sorter.
    #[inline]
    pub fn record_sort_run(&self) {
        self.sort_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one k-way merge pass over a batch of runs.
    #[inline]
    pub fn record_merge_pass(&self) {
        self.merge_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one repositioning of a reader: a jump over blocks no join
    /// asked for (see [`crate::run`]).
    #[inline]
    pub fn record_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `records` records coded into a run: a writer counts each
    /// chunk once, as it writes it out.
    #[inline]
    pub fn record_encoded(&self, records: u64) {
        self.records_encoded.fetch_add(records, Ordering::Relaxed);
    }

    /// Record `records` records decoded from a run: a reader counts them
    /// once, when it is dropped.
    #[inline]
    pub fn record_decoded(&self, records: u64) {
        self.records_decoded.fetch_add(records, Ordering::Relaxed);
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }

    /// Number of read operations issued.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Sorted runs spilled by external sorters — with
    /// [`IoStats::merge_passes`], the `sort(N)` term of the §4 cost
    /// model (`O(N/B · log_{M/B}(N/B))` block I/Os per sort).
    pub fn sort_runs(&self) -> u64 {
        self.sort_runs.load(Ordering::Relaxed)
    }

    /// K-way merge passes performed by external sorters.
    pub fn merge_passes(&self) -> u64 {
        self.merge_passes.load(Ordering::Relaxed)
    }

    /// Reader repositionings: how much of the read traffic is not one
    /// sequential scan. Zero when every reader read front to back.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Records coded into runs: the per-record cost of every write,
    /// which the byte counts hide.
    pub fn records_encoded(&self) -> u64 {
        self.records_encoded.load(Ordering::Relaxed)
    }

    /// Records decoded from runs, a resident head's included: the
    /// per-record cost of every read.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded.load(Ordering::Relaxed)
    }

    /// Read traffic in block I/Os of size `block_bytes` (ceiling; a
    /// block size of 0 counts bytes, like 1).
    pub fn read_blocks(&self, block_bytes: usize) -> u64 {
        self.read_bytes().div_ceil(block_bytes.max(1) as u64)
    }

    /// Write traffic in block I/Os of size `block_bytes` (ceiling; a
    /// block size of 0 counts bytes, like 1).
    pub fn write_blocks(&self, block_bytes: usize) -> u64 {
        self.write_bytes().div_ceil(block_bytes.max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_blocks() {
        let s = IoStats::default();
        s.record_read(100);
        s.record_read(1000);
        s.record_write(512);
        assert_eq!(s.read_bytes(), 1100);
        assert_eq!(s.read_ops(), 2);
        assert_eq!(s.write_bytes(), 512);
        assert_eq!(s.read_blocks(512), 3); // ceil(1100/512)
        assert_eq!(s.write_blocks(512), 1);
        s.record_sort_run();
        s.record_merge_pass();
        s.record_seek();
        s.record_encoded(5);
        s.record_decoded(7);
        assert_eq!((s.sort_runs(), s.merge_passes(), s.seeks()), (1, 1, 1));
        assert_eq!((s.records_encoded(), s.records_decoded()), (5, 7));
    }

    /// `--block-bytes 0` used to reach these with a zero divisor, after
    /// the whole build had run.
    #[test]
    fn block_counts_are_total_in_the_block_size() {
        let s = IoStats::default();
        s.record_read(1100);
        s.record_write(512);
        for b in [0, 1] {
            assert_eq!((s.read_blocks(b), s.write_blocks(b)), (1100, 512));
        }
    }

    #[test]
    fn shared_across_threads() {
        let s = IoStats::shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.read_bytes(), 32_000);
        assert_eq!(s.read_ops(), 4_000);
    }
}
