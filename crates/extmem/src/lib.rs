#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # extmem — external-memory substrate
//!
//! The paper's index construction is disk-based: label files are scanned,
//! sorted, and joined under a memory budget `M` with block size `B`, and
//! costs are reported in the I/O model of Aggarwal & Vitter
//! (`scan(N) = Θ(N/B)`). This crate is that substrate:
//!
//! * [`stats::IoStats`] — shared atomic counters for bytes, operations
//!   and reader repositionings, reporting block I/Os for a configurable
//!   block size;
//! * [`device::CountedFile`] — a real temp file whose sequential and
//!   random accesses all flow through the counters;
//! * [`codec`] — the label record and its on-disk coding: chunks of at
//!   most one block, each opened by a record coded absolutely and
//!   delta-coding the rest as varints, one flag bit telling a record
//!   whose key repeats (two bytes, most of a sorted run) from one that
//!   opens a key (about 2.3 bytes per label record where a fixed layout
//!   takes 12), with a total decoder;
//! * [`run::RunWriter`] / [`run::RunReader`] — sequential record streams
//!   over counted files, each buffering one block and decoding in place
//!   from it; every run carries a sparse directory (first key, byte
//!   offset and record index of each chunk) through which a reader of a
//!   key-sorted run skips the blocks no join asks for, each jump counted
//!   as a seek, and a reader that passes over a run again and again can
//!   keep the leading bytes it read resident ([`run::Run::reader`]);
//! * [`radix`] — three `u32` fields packed into one sort word
//!   ([`radix::Packing`]) and the stable LSD radix sort of those words,
//!   which forms the sorter's runs and orders the §4.2 prune's blocks by
//!   pivot;
//! * [`sorter::ExternalSorter`] — budgeted run formation plus k-way merge
//!   under one rule, the nearest record per `(vertex, pivot)` (Algorithm
//!   2's "avoid duplicates"), optionally pipelining the spill passes onto a background worker
//!   ([`sorter::ExternalSorter::with_background_spill`]) and handing its
//!   last merge to the consumer as a stream instead of a file
//!   ([`sorter::ExternalSorter::finish_stream`]); the same stream reads
//!   a base run and its sorted deltas as one
//!   ([`sorter::SortedStream::merge`]), and [`sorter::merge_readers`]
//!   writes either merge into a file;
//! * [`wire`] — total (panic-free) little-endian reads shared by every
//!   decoder in the workspace that consumes untrusted socket or disk
//!   bytes.
//!
//! Everything is deterministic and the simulated "disk" is honest: bytes
//! really hit the filesystem, so the I/O counts benchmarked by `bench`
//! reflect real traffic shapes.

pub mod codec;
pub mod device;
pub mod radix;
pub mod run;
pub mod sorter;
pub mod stats;
pub mod wire;

pub use codec::LabelRecord;
pub use device::{CountedFile, StoreHandle, TempStore};
pub use run::{RecordSource, Run, RunReader, RunWriter};
pub use sorter::ExternalSorter;
pub use stats::IoStats;

/// Configuration of the external-memory environment.
#[derive(Clone, Debug)]
pub struct ExtMemConfig {
    /// Memory budget in *records* available to any one operator
    /// (the paper's `M`). The §4.2 prune holds a block of at most `M`
    /// records' bytes (`12 × M`), and `M/2` records' worth (`6 × M`) for
    /// the resident head of the label file its inner passes read again
    /// ([`run::Run::reader`]).
    pub memory_records: usize,
    /// Block size in bytes (the paper's `B`): the most bytes of a run's
    /// chunk, and the buffer each run reader and writer holds.
    pub block_bytes: usize,
}

impl Default for ExtMemConfig {
    fn default() -> Self {
        // 1M records (~12 MB) and 64 KiB blocks: a deliberately small
        // "RAM" so laptop-scale experiments exercise the external paths.
        ExtMemConfig { memory_records: 1 << 20, block_bytes: 64 << 10 }
    }
}

impl ExtMemConfig {
    /// A tiny configuration that forces spilling even on test-sized
    /// inputs; used by tests and ablation benches.
    pub fn tiny() -> ExtMemConfig {
        ExtMemConfig { memory_records: 256, block_bytes: 512 }
    }
}
