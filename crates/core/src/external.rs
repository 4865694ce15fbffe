//! I/O-efficient index construction (Section 4) — the round of
//! [`crate::engine`] over sorted record files.
//!
//! All label state lives in sorted record files on the `extmem`
//! substrate. A *side* (one for an undirected build, out then in for a
//! directed one) owns three files, and every iteration runs the same
//! joins over them on every side:
//!
//! | file     | records, sort order                                    | read by                                       |
//! |----------|--------------------------------------------------------|-----------------------------------------------|
//! | `labels` | `own`, by `(owner, pivot)`: a base and up to 4 deltas  | the prune; the doubling arcs (own and across) |
//! | `edges`  | edges in the side's step direction, by tail            | this side's stepping arcs                     |
//! | `prev`   | last iteration's new entries, by owner: the survivors  | the arc joins, as the driving input           |
//!
//! A round runs the arc table of [`crate::engine`] pushed instead of
//! pulled. An arc is a record `(u, x, w)` — key the tail `u`, pivot the
//! head `x` — and for a `prev` entry `(u, v, d)` the one rule `emit`
//! offers `(x, v, d + w)` when `x ≠ u` and `v < x`. The arcs are the
//! edge file when stepping; when doubling, the `across` label file
//! (R1 / R4) and the side's own labels by pivot (R2 / R5), a *view*
//! rebuilt from `labels` every doubling round as a sorter stream, which
//! the join reads once and no file holds. Generation stays a push
//! because the in-memory engine's pull — `prev(u)` looked up per owner —
//! would be a seek per lookup on files.
//!
//! Two rules decide what touches the disk: **a run is written only if a
//! reader needs it as a file, and a block is read only if a join asks
//! for a key in it.** Every run is a sequence of delta-coded chunks of at
//! most one block each, and carries a sparse directory — where each chunk
//! starts, noted by the write that happens anyway (see [`extmem::run`])
//! — and every join reads its files through
//! `GroupReader::skip_to`, which jumps over the blocks that cannot hold
//! the next wanted key. A dense probe sequence is the sequential scan it
//! always was; a round whose `prev` is 60 entries reads the blocks those
//! 60 entries ask for. [`ExternalBuildResult::seeks`] counts the jumps.
//!
//! * **Candidate generation** — both inputs of every join are sorted by
//!   the tail `u`, so each is a streaming *sort-merge co-group* join,
//!   driven by `prev` and skipping through the arcs. Candidates go
//!   through the external sorter under its one rule, the nearest per
//!   `(owner, pivot)` — the "avoid duplicates" step of Algorithm 2,
//!   written once, in `extmem` — and the sorter's last merge
//!   streams straight into the prune: the sorted candidate set is never
//!   a file.
//! * **Pruning** — the block nested-loop of §4.2, owner-major on every
//!   side: the outer loop loads a block of candidates as generated,
//!   `(owner x, pivot v)`-sorted, together with `own(x)`, and drops —
//!   uncounted, as the in-memory engine does — a candidate `own(x)`
//!   already has at no more than its distance. A block holds each
//!   candidate as one packed `(pivot, group, dist)` sort word
//!   ([`extmem::radix::Packing`]: a `u64` when the fields fit, a `u128`
//!   when not), each owner's label entries once and each owner's vertex
//!   and entry bound once, and fills to `12 × M` bytes. The inner loop
//!   radix-sorts the words by pivot and makes one forward pass over the
//!   `across` label file per block, joining each candidate's two labels
//!   with the one merge join of every reader and builder,
//!   `hoplabels::index::merge_join`, bounded by the candidate's distance
//!   so it stops at the first witness. A pivot outranks its owner, so on
//!   both sides the inner pass looks for hubs — at the head of the file,
//!   which every block's pass asks for again. So one reader serves all of
//!   a prune's passes and keeps that head resident: the leading bytes of
//!   `across` that its passes read, up to `M/2` records' 12 bytes, read
//!   from the files and counted once, and every later pass decodes them
//!   from memory and goes to the files only past them. The survivors'
//!   words are compacted in place, repacked `(group, pivot, dist)` and
//!   sorted on the group, so they leave `(owner, pivot)`-sorted; the
//!   prune counts those that lower an entry `own(x)` already holds, so a
//!   row's `total_entries` stays exact without reading the labels again.
//!   [`ExternalBuildResult::prune_blocks`] counts the blocks.
//! * **Delta stack** — `labels` is log-structured: a base run and a
//!   stack of delta runs, every reader of it — the prune's own and
//!   `across` passes, the doubling arcs and view, the final load — reads
//!   their merge, the nearest per `(owner, pivot)`, through one
//!   `extmem` [`SortedStream`] that hands skip hints and rewinds to each
//!   run. A side's survivors *are* its next `prev`, and that same run
//!   goes on the stack; it is folded — that same merge, written by
//!   `merge_readers` as a new base — only when the stack's bytes would
//!   pass a quarter of the base's or its depth four runs. A side without
//!   survivors touches nothing, so the round that finds the fixpoint, and
//!   a directed side that found nothing while the other side did, write
//!   no label byte; a late round adding a few dozen entries writes them
//!   once, not the whole label file again.
//!
//! Every byte flows through counted files, so the
//! [`ExternalBuildResult::io`] report gives honest `scan(N) = N/B`
//! figures for Table 6's disk-based columns, and
//! [`IterationStats::io_read_bytes`] / `io_write_bytes` split them by
//! iteration next to the same phase times as the in-memory engine's.
//!
//! # Threading
//!
//! With [`HopDbConfig::parallelism`] ≥ 2 the per-iteration work is
//! pipelined without changing a single byte of output or I/O traffic:
//! the **sides** run on separate scoped threads (their generate → prune
//! chains share only read-only label files, and each reader owns its
//! file handle, so a seek moves nobody else's position); every sorter —
//! candidates and view — uses the `extmem` **background spill worker**,
//! so the joins keep streaming while full buffers sort and write behind
//! a bounded channel; and the sides' **label folds**, which write
//! disjoint runs, run together. The knob is a concurrency *budget* over
//! this fixed structure, not a worker count: every value from 2 up
//! behaves alike.
//!
//! Memory honesty: the sequential path holds at most two record buffers
//! of `M` per side. In a doubling round the view's last merge — its
//! reader buffers (one block each, as many as fit in the `M` records'
//! 12 bytes apiece) or, when it never spilled, its own buffer — is open
//! beside the candidate sorter its join feeds; likewise, while the prune
//! holds its block, the candidate stream feeding it is open. The prune
//! spends `18 × M` bytes: a block of at most `12 × M`, what one sorter
//! buffer of `M` records takes, and the head of `across`, at most `M/2`
//! records' worth of bytes (`6 × M`). The block counts everything it
//! keeps: 16 bytes a candidate (its `u64` sort word and the radix sort's
//! scratch slot; 32 when the pivot, group and distance fields take a
//! `u128`), 8 an own entry (a `LabelEntry`) and 8 an owner (its vertex
//! and where its entries end). It takes no owner once it holds `12 × M`
//! bytes, so it passes that by at most one owner group, which alone may
//! be larger; beside it is the label of the pivot being visited. The
//! block it replaced counted `M/2` records of 12 bytes — 12 a candidate,
//! 12 an own entry — and kept 21 uncounted bytes a candidate beside them
//! (a group index, a keep flag, a pivot-order word and its radix
//! scratch) and 8 an owner: 33 bytes a candidate, 12 an own entry and 8
//! an owner, up to about `16.5 × M` in all. Every sorter's spill
//! packs its `M` records into sort words and radix-sorts them through a
//! scratch buffer of the same length: 16 bytes per record of `M` when
//! the record fits a `u64`, 32 when it takes a `u128`, allocated for
//! that spill and freed when its run is written; a sorter that never
//! spills pays it once, at its end, beside a 12-byte sorted copy of its
//! buffer, which its stream serves. A pipelined sorter can hold up to
//! `(spill queue depth + 2) × M` records in flight (one buffer filling,
//! two queued, one being sorted), and a threaded two-sided build runs
//! both sides at once — two prunes, each with its own block and head —
//! so size `memory_records` with roughly an 8× margin when threading.
//! Every open run reader and writer holds one block of bytes, never a
//! decoded chunk, and every open run its directory: a 24-byte entry
//! (first key, byte offset, first record index) per chunk, `N/B` of them
//! (about 24 KB for a 4 MB label file at 4 KB blocks). A reader of
//! `labels` opens one reader per run, so each delta on the stack adds a
//! block buffer, its directory (a delta holds at most a quarter of the
//! base's bytes, so the directories sum to about 1.25× the base's) and
//! a merge slot to every pass over the labels; the prune's `across`
//! reader splits its head budget over the runs by their bytes, so the
//! heads together never pass `6 × M` bytes.
//!
//! Determinism is structural, not locked: each parallel unit owns its
//! files, the record flow per unit is exactly the sequential one, and
//! the shared `extmem` counters are atomics — so the build is
//! bit-identical at any thread count and the I/O totals, seeks included,
//! do not move.
//!
//! Deviation from the paper: the *graph topology* (for stepping's edge
//! joins) is exported to edge files, but the final index is loaded
//! back into memory at the end so callers can verify/serve it, and the
//! canonical filter that ends every pruned build ([`crate::postprune`],
//! §5.2's exhaustive pruning) runs there, on the loaded labels, as in
//! the in-memory engine: it adds no I/O. At laptop scale that is always
//! possible; for the paper's 9 GB graphs one would run the filter as one
//! more §4.2 block prune, the final labels their own candidates and
//! their own `across` file, and hand the final runs directly to the
//! `HOPIDX` writer (`LabelIndex::write_hopidx`).

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use extmem::device::TempStore;
use extmem::radix::{self, Packing, Word};
use extmem::run::{RecordSource, Rewind, Run, RunReader, RunWriter};
use extmem::sorter::{merge_readers, ExternalSorter, SortedStream};
use extmem::{ExtMemConfig, LabelRecord};
use hoplabels::index::{merge_join, LabelIndex, VertexLabels};
use hoplabels::LabelEntry;
use sfgraph::{Direction, Graph, VertexId};

use crate::builder::{derive_fringe, peel};
use crate::config::HopDbConfig;
use crate::engine::{lap, run_workers, seed_sides};
use crate::iteration::{fixpoint, BuildStats, IterationStats, Rounds};

/// Outcome of an external build.
pub struct ExternalBuildResult {
    /// The finished index (loaded back into memory).
    pub index: LabelIndex,
    /// Per-iteration statistics, as for the in-memory engine.
    pub stats: BuildStats,
    /// Total I/O traffic: `(read_bytes, write_bytes, read_blocks,
    /// write_blocks)` for the configured block size.
    pub io: (u64, u64, u64, u64),
    /// Sorted runs spilled by the external sorters over the whole build
    /// — the `sort(N)` volume of the §4 cost model.
    pub sort_runs: u64,
    /// K-way merge passes performed by the external sorters.
    pub merge_passes: u64,
    /// Reader repositionings: directory jumps over blocks no join asked
    /// for — how much of `io`'s read traffic is not one sequential scan.
    pub seeks: u64,
    /// Records coded into runs: the per-record work behind `io`'s bytes
    /// written.
    pub records_encoded: u64,
    /// Records decoded from runs, resident heads included: the
    /// per-record work behind `io`'s bytes read.
    pub records_decoded: u64,
    /// Blocks of the §4.2 prunes, over every side and round: each makes
    /// one pass over its `across` label file.
    pub prune_blocks: u64,
}

/// Build a label index for a rank-relabeled graph with bounded memory.
///
/// [`HopDbConfig::parallelism`] ≥ 2 enables the threaded pipeline (see
/// the module docs); the built index and the I/O totals are identical
/// at every thread count.
///
/// # Errors
/// `InvalidInput` for `ext.block_bytes == 0` (no block size to report
/// block I/Os in), before anything touches the disk; otherwise whatever
/// the temp files return.
///
/// # Panics
/// Panics if `cfg.prune` is false — the external path implements the
/// paper's (always-pruned) §4 algorithm only.
pub fn build_external(
    g: &Graph,
    cfg: &HopDbConfig,
    ext: &ExtMemConfig,
) -> io::Result<ExternalBuildResult> {
    assert!(cfg.prune, "the external engine implements the pruned algorithm of §4");
    if ext.block_bytes == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "ExtMemConfig::block_bytes must be at least 1",
        ));
    }
    let store = TempStore::new()?;
    // The same core and records as the in-memory build, and the
    // canonical filter on the loaded index exactly as there — same final
    // label sets.
    let reduced = peel(g);
    let mut result = run(&reduced.core, cfg, ext, &store)?;
    derive_fringe(&mut result.index, &mut result.stats, cfg, g, reduced);
    Ok(result)
}

/// Reads one *group* (maximal run of records with equal `key`) at a time
/// from a key-sorted record source.
struct GroupReader<S> {
    source: S,
    pending: Option<LabelRecord>,
}

impl GroupReader<RunReader> {
    fn open(run: &Run, block_bytes: usize) -> io::Result<Self> {
        GroupReader::new(run.reader(block_bytes, 0)?)
    }
}

impl GroupReader<SortedStream> {
    /// A reader of `labels` for passes that each start with
    /// [`GroupReader::rewind`], keeping up to `head_budget` of the files'
    /// leading bytes resident between them (see [`Labels::reader`]).
    fn with_head(labels: &Labels, block_bytes: usize, head_budget: usize) -> io::Result<Self> {
        Ok(GroupReader { source: labels.reader(block_bytes, head_budget)?, pending: None })
    }
}

impl<S: Rewind> GroupReader<S> {
    /// Start a pass at the first group.
    fn rewind(&mut self) -> io::Result<()> {
        self.source.rewind()?;
        self.pending = self.source.next_record()?;
        Ok(())
    }
}

impl<S: RecordSource> GroupReader<S> {
    fn new(mut source: S) -> io::Result<GroupReader<S>> {
        let pending = source.next_record()?;
        Ok(GroupReader { source, pending })
    }

    /// Key of the next group, or `None` at end of stream.
    fn peek_key(&self) -> Option<u32> {
        self.pending.map(|r| r.key)
    }

    /// Append the next whole group to `out`, each record as a `T`;
    /// returns its key.
    fn append_group<T: From<LabelRecord>>(&mut self, out: &mut Vec<T>) -> io::Result<Option<u32>> {
        let Some(first) = self.pending.take() else { return Ok(None) };
        let key = first.key;
        out.push(first.into());
        loop {
            match self.source.next_record()? {
                Some(r) if r.key == key => out.push(r.into()),
                other => {
                    self.pending = other;
                    break;
                }
            }
        }
        Ok(Some(key))
    }

    /// Read the next whole group into `out` (cleared first); returns its
    /// key.
    fn next_group(&mut self, out: &mut Vec<LabelRecord>) -> io::Result<Option<u32>> {
        out.clear();
        self.append_group(out)
    }

    /// The next record of the group keyed `key`, or `None` once the
    /// group has ended.
    fn next_in(&mut self, key: u32) -> io::Result<Option<LabelRecord>> {
        match self.pending {
            Some(r) if r.key == key => {
                self.pending = self.source.next_record()?;
                Ok(Some(r))
            }
            _ => Ok(None),
        }
    }

    /// Advance until the next group's key is ≥ `key`. A source with a key
    /// directory first jumps over the blocks that cannot hold `key`; the
    /// records of the block it lands in (or all of them, on a source
    /// without one) are read and discarded.
    fn skip_to(&mut self, key: u32) -> io::Result<()> {
        if self.pending.is_some_and(|r| r.key < key) {
            self.source.skip_hint(key)?;
        }
        while self.pending.is_some_and(|r| r.key < key) {
            self.pending = self.source.next_record()?;
        }
        Ok(())
    }
}

/// A sorter keeping one record per `(key, pivot)`, the nearest; `overlap`
/// moves its spill passes onto a background worker (bit-identical output
/// and I/O counts, see `extmem::sorter`).
fn sorter<'s>(store: &'s TempStore, ext: &ExtMemConfig, overlap: bool) -> ExternalSorter<'s> {
    let s = ExternalSorter::new(store, ext.clone()).min_per_pair();
    if overlap {
        s.with_background_spill()
    } else {
        s
    }
}

/// Deltas are folded into the base when their bytes would pass
/// `1 / FOLD_FRACTION` of the base's. A fold rewrites the whole base;
/// holding it off spares that write while the deltas are small beside
/// it, and a quarter bounds what they cost every pass over the labels —
/// the prune's, the views', the final load — at a quarter more bytes
/// than the folded file's.
const FOLD_FRACTION: u64 = 4;

/// … or when the stack would pass `MAX_DELTAS` runs: every open reader
/// of the labels holds a block buffer, a chunk directory and a heap slot
/// per delta, and the prune's `across` reader gives each a share of its
/// head.
const MAX_DELTAS: usize = 4;

/// A side's `own` labels, log-structured: a base run and a stack of delta
/// runs, each sorted by `(owner, pivot)`, read as one through
/// [`Labels::reader`]: their merge, the nearest per `(owner, pivot)`.
struct Labels {
    base: Run,
    /// The survivor runs of the rounds since the last fold, oldest first;
    /// the newest is also the side's `prev`.
    deltas: Vec<Arc<Run>>,
    /// The entries of the merge: exact, not the runs' records summed.
    entries: u64,
}

impl Labels {
    fn new(base: Run) -> Labels {
        Labels { entries: base.len(), base, deltas: Vec::new() }
    }

    fn runs(&self) -> impl Iterator<Item = &Run> {
        std::iter::once(&self.base).chain(self.deltas.iter().map(|d| &**d))
    }

    /// The bytes a full pass reads.
    fn bytes(&self) -> u64 {
        self.runs().map(Run::bytes).sum()
    }

    /// The file errors name: the base, which holds every vertex's group.
    fn path(&self) -> &std::path::Path {
        self.base.path()
    }

    /// The labels as one `(owner, pivot)`-sorted stream, the nearest per
    /// pair, keeping up to `head_budget` of leading bytes resident for a
    /// caller that rewinds it. With no deltas this is the base's reader,
    /// its whole budget and every record.
    fn reader(&self, block_bytes: usize, head_budget: usize) -> io::Result<SortedStream> {
        SortedStream::merge(self.readers(block_bytes, head_budget)?, !self.deltas.is_empty())
    }

    /// A reader of each run, base first, each with the share of
    /// `head_budget` its bytes are of the labels', so the budget never
    /// grows.
    fn readers(&self, block_bytes: usize, head_budget: usize) -> io::Result<Vec<RunReader>> {
        let total = u128::from(self.bytes().max(1));
        let share = |run: &Run| (head_budget as u128 * u128::from(run.bytes()) / total) as usize;
        self.runs().map(|run| run.reader(block_bytes, share(run))).collect()
    }

    /// Add a round's survivors, of which `replaced` lower the distance of
    /// an entry the labels hold: nothing for an empty run; otherwise the
    /// run goes on the stack, unless the stack would outgrow
    /// [`FOLD_FRACTION`] or [`MAX_DELTAS`], in which case the base, the
    /// deltas and the run are merged into a new base.
    fn add(
        mut self,
        store: &TempStore,
        ext: &ExtMemConfig,
        surv: &Arc<Run>,
        replaced: u64,
    ) -> io::Result<Labels> {
        if surv.is_empty() {
            return Ok(self);
        }
        self.entries = self.entries + surv.len() - replaced;
        self.deltas.push(Arc::clone(surv));
        let stacked: u64 = self.deltas.iter().map(|d| d.bytes()).sum();
        if stacked * FOLD_FRACTION <= self.base.bytes() && self.deltas.len() <= MAX_DELTAS {
            return Ok(self);
        }
        let block = ext.block_bytes;
        let base = merge_readers(store, self.readers(block, 0)?, block, true)?;
        debug_assert_eq!(base.len(), self.entries, "the fold keeps one record per entry");
        Ok(Labels { base, deltas: Vec::new(), entries: self.entries })
    }
}

/// Edge file: `key = group vertex`, `pivot = neighbour`, `dist = weight`.
fn edge_run(store: &TempStore, ext: &ExtMemConfig, g: &Graph, dir: Direction) -> io::Result<Run> {
    let mut w = RunWriter::new(store.create("edges")?, ext.block_bytes);
    for v in g.vertices() {
        for (t, wgt) in g.edges(v, dir) {
            w.push(LabelRecord::new(v, t, wgt))?;
        }
    }
    w.finish()
}

/// Materialise a side's label files, read as one `(key, pivot)`-sorted
/// stream, as per-vertex labels, each built as its group is read.
///
/// # Errors
/// `InvalidData` naming the file when `(key, pivot)` does not strictly
/// increase or a key is not one of the `n` vertices; otherwise what the
/// file returns.
fn load_labels(files: &Labels, n: usize, ext: &ExtMemConfig) -> io::Result<Vec<VertexLabels>> {
    let mut labels = vec![VertexLabels::new(); n];
    let mut reader = GroupReader::new(files.reader(ext.block_bytes, 0)?)?;
    let (mut group, mut last) = (Vec::new(), None);
    while let Some(v) = reader.next_group(&mut group)? {
        let in_order = last < Some(v) && group.windows(2).all(|w| w[0].pivot < w[1].pivot);
        let Some(label) = labels.get_mut(v as usize).filter(|_| in_order) else {
            let why = format!("label group {v} out of (vertex, pivot) order or not below {n}");
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {why}", files.path().display()),
            ));
        };
        let entries = group.iter().map(|r| LabelEntry::new(r.pivot, r.dist));
        *label = VertexLabels::from_entries(entries.collect());
        last = Some(v);
    }
    Ok(labels)
}

/// Co-group join of `prev` with a key-sorted arc source: every `prev`
/// group meets the arcs out of its owner in [`emit`].
fn cogroup_join(
    prev: &Run,
    arcs: impl RecordSource,
    ext: &ExtMemConfig,
    offer: &mut impl FnMut(LabelRecord) -> io::Result<()>,
) -> io::Result<()> {
    let mut pr = GroupReader::open(prev, ext.block_bytes)?;
    let mut ar = GroupReader::new(arcs)?;
    let (mut pg, mut ag) = (Vec::new(), Vec::new());
    while let Some(u) = pr.next_group(&mut pg)? {
        ar.skip_to(u)?;
        if ar.peek_key() == Some(u) {
            ar.next_group(&mut ag)?;
            emit(&pg, &ag, offer)?;
        }
    }
    Ok(())
}

/// The arc rule of [`crate::engine`]: `prev` entry `(u, v, d)` × arc
/// `(u, x, w)` with `x ≠ u` and `v < x` offers `(x, v, d + w)`.
fn emit(
    prev: &[LabelRecord],
    arcs: &[LabelRecord],
    offer: &mut impl FnMut(LabelRecord) -> io::Result<()>,
) -> io::Result<()> {
    for p in prev {
        for a in arcs.iter().filter(|a| a.pivot != a.key && a.pivot > p.pivot) {
            offer(LabelRecord::new(a.pivot, p.pivot, p.dist.saturating_add(a.dist)))?;
        }
    }
    Ok(())
}

/// The bytes of `across` the prune keeps resident beside its block:
/// `M/2` records of 12 bytes.
fn across_head_bytes(ext: &ExtMemConfig) -> usize {
    ext.memory_records.saturating_mul(6)
}

/// Self-entries give every vertex a label group: label files without
/// `v`'s are damaged.
fn missing_group(labels: &Labels, v: u32) -> io::Error {
    let file = labels.path().display();
    io::Error::new(io::ErrorKind::InvalidData, format!("{file}: no label group for vertex {v}"))
}

/// A prune block holds `BLOCK_BYTES_PER_RECORD × M` bytes, short of the
/// owner group that takes it past them: 12, a record's bytes, so that a
/// block takes what one sorter buffer of `M` records takes, and every
/// byte it keeps counts against that — each candidate's sort word and
/// radix-scratch slot, each own entry, each group (see the module's
/// memory notes).
const BLOCK_BYTES_PER_RECORD: usize = 12;

/// The bytes of one prune block (see [`BLOCK_BYTES_PER_RECORD`]), at most
/// 4 GiB, so that a block's own entries count in a `u32`.
fn prune_block_bytes(ext: &ExtMemConfig) -> usize {
    ext.memory_records.saturating_mul(BLOCK_BYTES_PER_RECORD).min(u32::MAX as usize)
}

/// An owner in a prune block: its vertex, and where its own entries end
/// in the block's pool; they start where the group before ends.
#[derive(Clone, Copy)]
struct Group {
    owner: u32,
    end: u32,
}

/// The least bytes a group takes in a block: a candidate's `u64` word
/// and scratch slot, an own entry (every owner holds its self-entry) and
/// the group — so a block holds at most `bytes / MIN_GROUP_BYTES + 1`
/// groups.
const MIN_GROUP_BYTES: usize = 2 * size_of::<u64>() + size_of::<LabelEntry>() + size_of::<Group>();

/// The sort words of a prune's candidates: `(pivot, group, dist)` to
/// visit a block by pivot, and `(group, pivot, dist)` to write its
/// survivors by owner, fixed before the first block from `widest` (the
/// OR of every candidate's fields) and the most groups a block holds.
fn candidate_packings(ext: &ExtMemConfig, widest: LabelRecord) -> (Packing, Packing) {
    let groups = u32::try_from(prune_block_bytes(ext) / MIN_GROUP_BYTES).unwrap_or(u32::MAX);
    let by_pivot = Packing::covering([widest.pivot, groups, widest.dist]);
    (by_pivot, Packing::covering([groups, widest.pivot, widest.dist]))
}

/// The own label of group `g`: its run of `pool`.
fn own_label<'b>(pool: &'b [LabelEntry], groups: &[Group], g: u32) -> &'b [LabelEntry] {
    let g = g as usize;
    let start = g.checked_sub(1).map_or(0, |before| groups[before].end as usize);
    &pool[start..groups[g].end as usize]
}

/// What a prune leaves: the survivors, `(owner, pivot)`-sorted; the
/// candidates it pruned; the survivors that replace an entry of their
/// owner's label at a larger distance; and its blocks, one `across`
/// pass each.
struct Pruned {
    survivors: Run,
    pruned: u64,
    replaced: u64,
    blocks: u64,
}

/// Prune candidates with the 2-hop test `own(owner) ⋈ across(pivot) ≤ d`
/// — the block nested-loop of §4.2.
///
/// `cands` must be sorted by `(key = owner, pivot)`, one record per pair,
/// and `widest` hold the OR of their fields; `own` (sorted by owner)
/// provides the owners' labels for the outer blocks; `across` (sorted by
/// owner) is visited once per block for the label of each candidate's
/// `pivot`. A block fills to [`prune_block_bytes`]: each candidate one
/// packed `(pivot, group, dist)` word, each owner's label entries once.
/// Both label files are read through [`GroupReader::skip_to`], so a block
/// reads only the chunks that hold a group it asks for — and a pivot
/// outranks its owner, so what the inner scan asks for sits at the head
/// of the file. That head stays resident from block to block, up to
/// [`across_head_bytes`]: one reader serves every pass, and a later pass
/// reads from the file only what lies past the bytes the earlier ones
/// read from its start. A candidate its owner's label already has at no
/// more than its distance is dropped before it is counted or joined.
///
/// # Errors
/// `InvalidData` naming the file when `own` lacks a candidate owner's
/// group or `across` a candidate pivot's; otherwise what the files
/// return.
fn prune_candidates(
    store: &TempStore,
    ext: &ExtMemConfig,
    cands: impl RecordSource,
    widest: LabelRecord,
    own: &Labels,
    across: &Labels,
) -> io::Result<Pruned> {
    let packings = candidate_packings(ext, widest);
    if packings.0.fits_u64() && packings.1.fits_u64() {
        prune_blocks::<u64>(store, ext, cands, packings, own, across)
    } else {
        prune_blocks::<u128>(store, ext, cands, packings, own, across)
    }
}

/// [`prune_candidates`] on sort words of type `W`.
fn prune_blocks<W: Word>(
    store: &TempStore,
    ext: &ExtMemConfig,
    cands: impl RecordSource,
    (by_pivot, by_group): (Packing, Packing),
    own: &Labels,
    across: &Labels,
) -> io::Result<Pruned> {
    let (budget, word_bytes) = (prune_block_bytes(ext), 2 * size_of::<W>());
    let mut cand_reader = GroupReader::new(cands)?;
    let mut own_reader = GroupReader::new(own.reader(ext.block_bytes, 0)?)?;
    let mut across_reader =
        GroupReader::with_head(across, ext.block_bytes, across_head_bytes(ext))?;
    let mut survivors = RunWriter::new(store.create("survivors")?, ext.block_bytes);
    let (mut pruned, mut replaced, mut blocks) = (0u64, 0u64, 0u64);
    // One block, reused across blocks: a word per candidate and the radix
    // sort's scratch, the owners' own entries back to back in `pool`, and
    // a group per owner; and the label of the pivot being visited.
    let (mut words, mut scratch) = (Vec::<W>::new(), Vec::<W>::new());
    let mut pool: Vec<LabelEntry> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut ag: Vec<LabelRecord> = Vec::new();
    let held = |words: &[W], pool: &[LabelEntry], groups: &[Group]| {
        words.len() * word_bytes + size_of_val(pool) + size_of_val(groups)
    };

    loop {
        // Outer: load candidate groups + their owners' labels up to the
        // budget. An owner left without a candidate hands its label back,
        // so a block without groups means the stream is done.
        words.clear();
        pool.clear();
        groups.clear();
        while groups.is_empty() || held(&words, &pool, &groups) < budget {
            let Some(x) = cand_reader.peek_key() else { break };
            own_reader.skip_to(x)?;
            if own_reader.peek_key() != Some(x) {
                return Err(missing_group(own, x));
            }
            let start = pool.len();
            own_reader.append_group(&mut pool)?;
            let (mine, g, had) = (&pool[start..], groups.len() as u32, words.len());
            while let Some(c) = cand_reader.next_in(x)? {
                let at = mine.binary_search_by_key(&c.pivot, |e| e.pivot);
                if at.map_or(true, |i| mine[i].dist > c.dist) {
                    words.push(by_pivot.pack([c.pivot, g, c.dist]));
                }
            }
            if words.len() == had {
                pool.truncate(start);
                continue;
            }
            let end = u32::try_from(pool.len()).expect("a block's pool is at most 4 GiB");
            groups.push(Group { owner: x, end });
        }
        if groups.is_empty() {
            break;
        }
        blocks += 1;
        // Inner: one forward pass over `across`, visiting the block's
        // candidates by pivot. A survivor's word is repacked by group in
        // place, behind the visit.
        radix::sort_from(&mut words, &mut scratch, by_pivot.top_shift(), by_pivot.bits());
        across_reader.rewind()?;
        let (mut at, mut kept) = (0, 0);
        while let Some(&first) = words.get(at) {
            let [pivot, ..] = by_pivot.unpack(first);
            across_reader.skip_to(pivot)?;
            if across_reader.peek_key() != Some(pivot) {
                return Err(missing_group(across, pivot));
            }
            across_reader.next_group(&mut ag)?;
            while let Some([_, g, dist]) =
                words.get(at).map(|&w| by_pivot.unpack(w)).filter(|f| f[0] == pivot)
            {
                // Pivots are rank-sorted and the hubs that kill most
                // candidates come first: the join stops at the first witness.
                if merge_join(own_label(&pool, &groups, g), &ag, VertexId::MAX, dist) > dist {
                    words[kept] = by_group.pack([g, pivot, dist]);
                    kept += 1;
                }
                at += 1;
            }
        }
        pruned += (words.len() - kept) as u64;
        words.truncate(kept);
        // Visited by pivot, each pivot's candidates by group: a stable
        // sort on the group leaves them `(owner, pivot)`-sorted, and
        // blocks are consecutive owner ranges, so the survivors leave
        // globally sorted.
        radix::sort_from(&mut words, &mut scratch, by_group.top_shift(), by_group.bits());
        for &w in &words {
            let [g, pivot, dist] = by_group.unpack(w);
            survivors.push(LabelRecord::new(groups[g as usize].owner, pivot, dist))?;
            let mine = own_label(&pool, &groups, g);
            replaced += u64::from(mine.binary_search_by_key(&pivot, |e| e.pivot).is_ok());
        }
    }
    Ok(Pruned { survivors: survivors.finish()?, pruned, replaced, blocks })
}

/// The files of one label side (see [`crate::engine`] for the side
/// formulation): `own`, the new entries of the previous iteration, and
/// the edge file stepping joins against.
struct Side {
    /// Index of the side whose label files this side is joined against
    /// (the other side of a directed build, itself when undirected).
    across: usize,
    /// Edges of each vertex in this side's step direction.
    edges: Run,
    /// `own`, sorted by `(owner, pivot)`.
    labels: Labels,
    /// Entries the previous iteration added to `own` (no self-entries):
    /// that iteration's survivor run itself, the newest delta of
    /// `labels` until a fold.
    prev: Arc<Run>,
}

/// What one side's generate → prune chain produced in one iteration.
struct SideOutcome {
    pruned: Pruned,
    gather: Duration,
    prune: Duration,
}

/// One iteration of one side: push `prev` over the round's arcs into the
/// candidate sorter, then prune the candidates against the frozen label
/// files.
fn side_round(
    store: &TempStore,
    ext: &ExtMemConfig,
    overlap: bool,
    stepping: bool,
    side: &Side,
    across: &Labels,
) -> io::Result<SideOutcome> {
    let (mut clock, block) = (Instant::now(), ext.block_bytes);
    let mut s = sorter(store, ext, overlap);
    let mut widest = LabelRecord::new(0, 0, 0);
    let mut offer = |r: LabelRecord| {
        widest = LabelRecord::new(widest.key | r.key, widest.pivot | r.pivot, widest.dist | r.dist);
        s.push(r)
    };
    if stepping {
        cogroup_join(&side.prev, side.edges.reader(block, 0)?, ext, &mut offer)?;
    } else {
        cogroup_join(&side.prev, across.reader(block, 0)?, ext, &mut offer)?;
        // The view: this side's labels by pivot, self-entries left out.
        let mut view = sorter(store, ext, overlap);
        let mut labels = side.labels.reader(block, 0)?;
        while let Some(r) = labels.next_record()? {
            if r.key != r.pivot {
                view.push(r.inverted())?;
            }
        }
        cogroup_join(&side.prev, view.finish_stream()?, ext, &mut offer)?;
    }
    let gather = lap(&mut clock);
    // The sorter's last merge is the prune's candidate scan. The 2-hop
    // test is symmetric, so on every side it is own(owner) ⋈ across(pivot)
    // and the candidates go in as generated.
    let pruned = prune_candidates(store, ext, s.finish_stream()?, widest, &side.labels, across)?;
    Ok(SideOutcome { pruned, gather, prune: lap(&mut clock) })
}

fn io_report(store: &TempStore, ext: &ExtMemConfig) -> (u64, u64, u64, u64) {
    let io = store.stats();
    (
        io.read_bytes(),
        io.write_bytes(),
        io.read_blocks(ext.block_bytes),
        io.write_blocks(ext.block_bytes),
    )
}

/// The state of an external build: the store, the budget and the sides'
/// files.
struct External<'s> {
    store: &'s TempStore,
    ext: &'s ExtMemConfig,
    threaded: bool,
    sides: Vec<Side>,
    /// Bytes read and written as of the last row.
    seen: (u64, u64),
    /// The prunes' blocks so far, over every side and round.
    prune_blocks: u64,
}

impl External<'_> {
    /// Bytes moved since the last call: the per-iteration I/O columns.
    fn io_lap(&mut self) -> (u64, u64) {
        let now = (self.store.stats().read_bytes(), self.store.stats().write_bytes());
        let lap = (now.0 - self.seen.0, now.1 - self.seen.1);
        self.seen = now;
        lap
    }
}

impl Rounds for External<'_> {
    type Error = io::Error;

    fn pending(&self) -> bool {
        self.sides.iter().any(|s| !s.prev.is_empty())
    }

    fn round(&mut self, stepping: bool) -> io::Result<IterationStats> {
        let (store, ext, threaded) = (self.store, self.ext, self.threaded);
        // The sides share only read-only label files; each owns its
        // sorters and temp runs, so scheduling cannot reorder any
        // per-side record stream.
        let sides = &self.sides;
        let outcomes = run_workers(threaded, sides.iter().collect(), |s: &Side| {
            side_round(store, ext, threaded, stepping, s, &sides[s.across].labels)
        });
        let outcomes = outcomes.into_iter().collect::<io::Result<Vec<SideOutcome>>>()?;
        self.prune_blocks += outcomes.iter().map(|o| o.pruned.blocks).sum::<u64>();
        let mut row = IterationStats {
            pruned: outcomes.iter().map(|o| o.pruned.pruned).sum(),
            inserted: outcomes.iter().map(|o| o.pruned.survivors.len()).sum(),
            gather: outcomes.iter().map(|o| o.gather).sum(),
            prune: outcomes.iter().map(|o| o.prune).sum(),
            ..IterationStats::default()
        };
        row.candidates = row.inserted + row.pruned;
        // Each side's survivors join its labels as a delta, or fold them
        // into a new base (see [`Labels::add`]); a side without survivors
        // touches nothing. The folds write disjoint runs, so they run
        // together when threaded.
        let jobs = std::mem::take(&mut self.sides).into_iter().zip(outcomes).collect();
        let applied = run_workers(threaded, jobs, |(side, o): (Side, SideOutcome)| {
            let started = Instant::now();
            let prev = Arc::new(o.pruned.survivors);
            let labels = side.labels.add(store, ext, &prev, o.pruned.replaced)?;
            io::Result::Ok((Side { labels, prev, ..side }, started.elapsed()))
        });
        for side in applied {
            let (side, apply) = side?;
            row.apply += apply;
            self.sides.push(side);
        }
        row.total_entries = self.sides.iter().map(|s| s.labels.entries).sum();
        (row.io_read_bytes, row.io_write_bytes) = self.io_lap();
        Ok(row)
    }
}

fn run(
    g: &Graph,
    cfg: &HopDbConfig,
    ext: &ExtMemConfig,
    store: &TempStore,
) -> io::Result<ExternalBuildResult> {
    let started = Instant::now();
    let threads = cfg.resolved_parallelism();
    let (mut e, seeded) = seed(g, ext, store, threads >= 2)?;
    let mut stats = fixpoint(&mut e, &cfg.strategy, threads, seeded)?;

    let mut labels = Vec::with_capacity(e.sides.len());
    for side in &e.sides {
        labels.push(load_labels(&side.labels, g.num_vertices(), ext)?);
    }
    let index = LabelIndex::from_sides(labels);
    stats.final_entries = index.total_entries() as u64;
    stats.elapsed = started.elapsed();
    let io = store.stats();
    Ok(ExternalBuildResult {
        index,
        stats,
        io: io_report(store, ext),
        sort_runs: io.sort_runs(),
        merge_passes: io.merge_passes(),
        seeks: io.seeks(),
        records_encoded: io.records_encoded(),
        records_decoded: io.records_decoded(),
        prune_blocks: e.prune_blocks,
    })
}

/// Initialization (iteration 1): every side's files — self-entries plus
/// one entry per edge, written owner by owner from the graph's sorted
/// adjacency, so the row reads nothing — and the row that reports them.
fn seed<'s>(
    g: &Graph,
    ext: &'s ExtMemConfig,
    store: &'s TempStore,
    threaded: bool,
) -> io::Result<(External<'s>, IterationStats)> {
    let started = Instant::now();
    let n = g.num_vertices();
    let mut sides = Vec::new();
    let mut seeds = 0u64;
    for seed in seed_sides(g) {
        // Each owner's seeds, then — in `labels` only, `prev` holds only
        // new entries — its self-entry, the highest pivot of its label.
        let mut labels = RunWriter::new(store.create("labels")?, ext.block_bytes);
        let mut prev = RunWriter::new(store.create("prev")?, ext.block_bytes);
        for owner in g.vertices() {
            for (pivot, w) in seed.seeds(g, owner) {
                let record = LabelRecord::new(owner, pivot, w);
                labels.push(record)?;
                prev.push(record)?;
                seeds += 1;
            }
            labels.push(LabelRecord::new(owner, owner, 0))?;
        }
        sides.push(Side {
            across: seed.across,
            edges: edge_run(store, ext, g, seed.step)?,
            labels: Labels::new(labels.finish()?),
            prev: Arc::new(prev.finish()?),
        });
    }
    let total_entries = seeds + (sides.len() * n) as u64;
    let mut e = External { store, ext, threaded, sides, seen: (0, 0), prune_blocks: 0 };
    let (io_read_bytes, io_write_bytes) = e.io_lap();
    let seeded = IterationStats {
        iteration: 1,
        stepping: true,
        candidates: seeds,
        inserted: seeds,
        total_entries,
        elapsed: started.elapsed(),
        io_read_bytes,
        io_write_bytes,
        ..IterationStats::default()
    };
    Ok((e, seeded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_prelabeled;
    use crate::config::Strategy;
    use hoplabels::index::merge_join_reference;
    use hoplabels::verify::assert_exact;
    use sfgraph::GraphBuilder;

    fn tiny_ext() -> ExtMemConfig {
        ExtMemConfig { memory_records: 128, block_bytes: 256 }
    }

    /// The engine alone on all of `g`, where [`build_external`] runs it on
    /// `g`'s core: for the tests about the rounds a path or a chain takes,
    /// which the builders would mostly eliminate.
    fn run_on(g: &Graph, cfg: &HopDbConfig, ext: &ExtMemConfig) -> ExternalBuildResult {
        run(g, cfg, ext, &TempStore::new().unwrap()).unwrap()
    }

    /// One side's files: its base (the file, and its encoded bytes), its
    /// deltas' bytes, oldest first, its `prev`'s and its edges'.
    #[derive(Clone, Debug, PartialEq)]
    struct SideFiles {
        edges: u64,
        base: std::path::PathBuf,
        base_bytes: u64,
        deltas: Vec<u64>,
        prev: u64,
    }

    impl SideFiles {
        fn labels(&self) -> u64 {
            self.base_bytes + self.deltas.iter().sum::<u64>()
        }
    }

    /// Every side's files.
    #[derive(Clone, Debug)]
    struct Files(Vec<SideFiles>);

    impl Files {
        /// The labels' encoded bytes, summed over the sides.
        fn labels(&self) -> u64 {
            self.0.iter().map(SideFiles::labels).sum()
        }

        /// The `prev` runs' encoded bytes, summed over the sides.
        fn prev(&self) -> u64 {
            self.0.iter().map(|s| s.prev).sum()
        }

        /// The edge runs' encoded bytes, summed over the sides.
        fn edges(&self) -> u64 {
            self.0.iter().map(|s| s.edges).sum()
        }

        /// The sides that folded into a new base since `before`, each
        /// beside what it had then.
        fn folded<'a>(
            &'a self,
            before: &'a Files,
        ) -> impl Iterator<Item = (&'a SideFiles, &'a SideFiles)> {
            self.0.iter().zip(&before.0).filter(|(now, then)| now.base != then.base)
        }
    }

    /// An [`External`] that notes its [`Files`] after every round.
    struct Noted<'s> {
        e: External<'s>,
        files: Vec<Files>,
    }

    impl Noted<'_> {
        fn note(&mut self) {
            let side = |s: &Side| SideFiles {
                edges: s.edges.bytes(),
                base: s.labels.path().to_path_buf(),
                base_bytes: s.labels.base.bytes(),
                deltas: s.labels.deltas.iter().map(|d| d.bytes()).collect(),
                prev: s.prev.bytes(),
            };
            self.files.push(Files(self.e.sides.iter().map(side).collect()));
        }
    }

    impl Rounds for Noted<'_> {
        type Error = io::Error;

        fn pending(&self) -> bool {
            self.e.pending()
        }

        fn round(&mut self, stepping: bool) -> io::Result<IterationStats> {
            let row = self.e.round(stepping)?;
            self.note();
            Ok(row)
        }
    }

    /// The rows [`run_on`] builds, each beside the files it left behind:
    /// `files[i]` after row `i`, the seeding's included.
    fn rows_and_files(
        g: &Graph,
        cfg: &HopDbConfig,
        ext: &ExtMemConfig,
    ) -> (Vec<IterationStats>, Vec<Files>) {
        let store = TempStore::new().unwrap();
        let (e, seeded) = seed(g, ext, &store, false).unwrap();
        let mut noted = Noted { e, files: Vec::new() };
        noted.note();
        let stats = fixpoint(&mut noted, &cfg.strategy, 1, seeded).unwrap();
        (stats.iterations, noted.files)
    }

    /// Every row's I/O columns.
    fn io_columns(rows: &[IterationStats]) -> Vec<(u64, u64)> {
        rows.iter().map(|it| (it.io_read_bytes, it.io_write_bytes)).collect()
    }

    /// The OR of the candidates' fields: the `widest` a round hands its
    /// prune.
    fn widest(cands: &[LabelRecord]) -> LabelRecord {
        let or = |w: LabelRecord, r: &LabelRecord| {
            LabelRecord::new(w.key | r.key, w.pivot | r.pivot, w.dist | r.dist)
        };
        cands.iter().fold(LabelRecord::new(0, 0, 0), or)
    }

    /// The bytes a candidate takes in a block: its word and scratch slot.
    fn word_bytes(ext: &ExtMemConfig, cands: &[LabelRecord]) -> usize {
        let (by_pivot, by_group) = candidate_packings(ext, widest(cands));
        if by_pivot.fits_u64() && by_group.fits_u64() {
            16
        } else {
            32
        }
    }

    /// The prune of the sorted `cands`, written to a run in `store` first.
    fn prune(
        store: &TempStore,
        ext: &ExtMemConfig,
        cands: &[LabelRecord],
        own: &Labels,
        across: &Labels,
    ) -> io::Result<Pruned> {
        let run = extmem::run::run_from_slice(store, "cands", cands, ext.block_bytes)?;
        prune_candidates(store, ext, run.into_reader(ext.block_bytes)?, widest(cands), own, across)
    }

    /// The block each owner goes to under the byte rule, given its live
    /// candidates and its own entries (owners without a live candidate
    /// left out): a block takes owners while it holds fewer than
    /// [`prune_block_bytes`], `word_bytes` a candidate, 8 an own entry
    /// and 8 an owner.
    fn blocks_by_bytes(
        ext: &ExtMemConfig,
        word_bytes: usize,
        owners: &[(usize, usize)],
    ) -> Vec<usize> {
        let (budget, mut block, mut fill) = (prune_block_bytes(ext), 0, 0);
        let place = |&(live, own): &(usize, usize)| {
            if fill > 0 && fill >= budget {
                (block, fill) = (block + 1, 0);
            }
            fill += live * word_bytes + (own + 1) * 8;
            block
        };
        owners.iter().map(place).collect()
    }

    /// What both engines must agree on, iteration by iteration: every
    /// counter of the row.
    fn progress(stats: &BuildStats) -> Vec<(u32, bool, u64, u64, u64, u64)> {
        let row = |it: &IterationStats| {
            (it.iteration, it.stepping, it.candidates, it.pruned, it.inserted, it.total_entries)
        };
        stats.iterations.iter().map(row).collect()
    }

    #[test]
    fn directed_example_matches_memory_engine() {
        let g = graphgen::example_graph_fig3();
        for strategy in [Strategy::Doubling, Strategy::Stepping, Strategy::Hybrid { switch_at: 3 }]
        {
            let cfg = HopDbConfig::with_strategy(strategy);
            let (mem, mem_stats) = build_prelabeled(&g, &cfg);
            let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
            assert_eq!(result.index, mem, "external != memory for {:?}", cfg.strategy);
            assert_eq!(progress(&result.stats), progress(&mem_stats), "{:?}", cfg.strategy);
            assert_exact(&g, &result.index);
        }
    }

    #[test]
    fn undirected_random_matches_memory_engine() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for case in 0..8 {
            let n = rng.gen_range(4..24);
            let mut b = GraphBuilder::new_undirected(n);
            for _ in 0..rng.gen_range(n..4 * n) {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            let cfg = HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 2 });
            let (mem, mem_stats) = build_prelabeled(&g, &cfg);
            let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
            assert_eq!(result.index, mem, "case {case}");
            assert_eq!(
                progress(&result.stats),
                progress(&mem_stats),
                "per-iteration progress must agree (case {case})"
            );
        }
    }

    #[test]
    fn directed_random_weighted_matches_memory_engine() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..6 {
            let n = rng.gen_range(4..16);
            let mut b = GraphBuilder::new_directed(n).weighted();
            for _ in 0..rng.gen_range(n..3 * n) {
                b.add_weighted_edge(
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(1..6),
                );
            }
            let g = b.build();
            let cfg = HopDbConfig::default();
            let (mem, mem_stats) = build_prelabeled(&g, &cfg);
            let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
            assert_eq!(result.index, mem, "case {case}");
            assert_eq!(progress(&result.stats), progress(&mem_stats), "case {case}");
            assert_exact(&g, &result.index);
        }
    }

    #[test]
    fn threaded_build_matches_sequential_and_memory() {
        let g = graphgen::example_graph_fig3();
        for strategy in [Strategy::Doubling, Strategy::Stepping, Strategy::Hybrid { switch_at: 3 }]
        {
            let cfg = HopDbConfig::with_strategy(strategy);
            let (mem, _) = build_prelabeled(&g, &cfg);
            let seq = build_external(&g, &cfg, &tiny_ext()).unwrap();
            for threads in [2usize, 4] {
                let cfg = cfg.clone().with_parallelism(threads);
                let par = build_external(&g, &cfg, &tiny_ext()).unwrap();
                assert_eq!(par.index, seq.index, "threads={threads} {:?}", cfg.strategy);
                assert_eq!(par.index, mem, "threads={threads} vs memory engine");
                assert_eq!(
                    (par.io, par.sort_runs, par.merge_passes, par.seeks),
                    (seq.io, seq.sort_runs, seq.merge_passes, seq.seeks),
                    "I/O accounting must not depend on the thread count (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn threaded_undirected_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let n = 40;
        let mut b = GraphBuilder::new_undirected(n);
        for _ in 0..4 * n {
            b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
        }
        let g = b.build();
        let cfg = HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 2 });
        let seq = build_external(&g, &cfg, &tiny_ext()).unwrap();
        let par = build_external(&g, &cfg.clone().with_parallelism(4), &tiny_ext()).unwrap();
        assert_eq!(par.index, seq.index);
        assert_eq!(
            (par.io, par.sort_runs, par.merge_passes, par.seeks),
            (seq.io, seq.sort_runs, seq.merge_passes, seq.seeks)
        );
        assert_eq!(par.stats.num_iterations(), seq.stats.num_iterations());
    }

    #[test]
    fn filtered_doubling_build_matches_memory_engine() {
        let g = graphgen::glp(&graphgen::GlpParams::with_density(300, 3.0, 8));
        // Doubling leaves §5.2-removable entries behind, so the canonical
        // filter has real work to mirror.
        let cfg = HopDbConfig::with_strategy(Strategy::Doubling);
        let (mem, mem_stats) = build_prelabeled(&g, &cfg);
        assert!(mem_stats.post_pruned > 0);
        for threads in [1usize, 4] {
            let cfg = cfg.clone().with_parallelism(threads);
            let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
            assert_eq!(result.index, mem, "filtered external != memory at {threads} threads");
            assert_eq!(result.stats.post_pruned, mem_stats.post_pruned);
            assert_eq!(result.stats.final_entries, mem_stats.final_entries);
        }
    }

    /// A path whose ids follow breadth-first bisection (the middle vertex
    /// is id 0, the middles of the two halves ids 1 and 2, …): labels stay
    /// `O(n log n)` while the trough path from an end to the middle still
    /// has `n / 2` hops, so stepping needs that many rounds.
    fn bisected_path(n: usize, directed: bool) -> Graph {
        let mut id_at = vec![0 as VertexId; n];
        let mut intervals = std::collections::VecDeque::from([(0, n)]);
        let mut next = 0;
        while let Some((lo, hi)) = intervals.pop_front() {
            if lo < hi {
                let mid = (lo + hi) / 2;
                id_at[mid] = next;
                next += 1;
                intervals.extend([(lo, mid), (mid + 1, hi)]);
            }
        }
        let mut b =
            if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
        for pair in id_at.windows(2) {
            b.add_edge(pair[0], pair[1]);
        }
        b.build()
    }

    /// The external twin of `engine::tests`' cap regression: more than 256
    /// stepping rounds, run to the fixpoint (the old 256-iteration cap
    /// returned a partial index that answered `unreachable`).
    #[test]
    fn stepping_runs_past_256_iterations_to_the_fixpoint() {
        let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
        for directed in [false, true] {
            let g = bisected_path(600, directed);
            let result = run_on(&g, &cfg, &ExtMemConfig::default());
            assert!(result.stats.num_iterations() > 256, "directed = {directed}");
            assert_exact(&g, &result.index);
        }
    }

    /// (a) The §4.2 block prune hands back its survivors in candidate
    /// order — strictly `(key, pivot)`-increasing across block borders —
    /// keeps exactly what a per-candidate join keeps, counts as pruned
    /// only the candidates its owner's label did not already dominate,
    /// and reads less than one scan of the pivot-side file per block.
    #[test]
    fn prune_keeps_candidate_order_across_blocks() {
        use extmem::run::run_from_slice;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (n, ext, store) = (96u32, tiny_ext(), TempStore::new().unwrap());
        let block = ext.block_bytes;
        let mut labels = |tag| {
            let mut recs = Vec::new();
            for v in 0..n {
                for p in 0..v {
                    if rng.gen_bool(0.4) {
                        recs.push(LabelRecord::new(v, p, rng.gen_range(1..5)));
                    }
                }
                recs.push(LabelRecord::new(v, v, 0));
            }
            (Labels::new(run_from_slice(&store, tag, &recs, block).unwrap()), recs)
        };
        let (src_run, src) = labels("src");
        let (dst_run, dst) = labels("dst");
        // Every source also targets the last vertex, so a sequential inner
        // scan would read `dst` to its end in every block.
        let mut cands = Vec::new();
        for (k, p) in (0..n).flat_map(|k| (0..n).map(move |p| (k, p))) {
            if p == n - 1 || rng.gen_bool(0.08) {
                cands.push(LabelRecord::new(k, p, rng.gen_range(1..8)));
            }
        }
        let group = |recs: &[LabelRecord], v: u32| -> Vec<LabelRecord> {
            recs.iter().copied().filter(|r| r.key == v).collect()
        };
        let entries = |recs: Vec<LabelRecord>| -> Vec<LabelEntry> {
            recs.into_iter().map(LabelEntry::from).collect()
        };
        let expect: Vec<LabelRecord> = cands
            .iter()
            .copied()
            .filter(|c| {
                let (own, across) = (entries(group(&src, c.key)), entries(group(&dst, c.pivot)));
                merge_join_reference(&own, &across, VertexId::MAX) > c.dist
            })
            .collect();
        assert!(!expect.is_empty() && expect.len() < cands.len(), "both outcomes occur");
        // Same-pair dominance drops a candidate before it is counted.
        let counted = |k: u32| -> usize {
            let own = group(&src, k);
            let dominated =
                |c: &&LabelRecord| own.iter().any(|e| e.pivot == c.pivot && e.dist <= c.dist);
            group(&cands, k).iter().filter(|c| !dominated(c)).count()
        };
        let live: usize = (0..n).map(counted).sum();
        assert!(live < cands.len(), "some candidates are dominated");

        // The outer loop closes a block at the first owner that takes it
        // to the budget; an owner without a live candidate takes nothing.
        let owners: Vec<(usize, usize)> = (0..n)
            .filter(|&k| counted(k) > 0)
            .map(|k| (counted(k), group(&src, k).len()))
            .collect();
        let cuts = blocks_by_bytes(&ext, word_bytes(&ext, &cands), &owners);
        let blocks = cuts.last().map_or(0, |b| b + 1) as u64;
        assert!(blocks >= 3, "the budget must cut the candidates into ≥ 3 blocks");

        let cand_run = run_from_slice(&store, "cands", &cands, block).unwrap();
        let whole_scans = cand_run.bytes() + src_run.bytes() + blocks * dst_run.bytes();
        let read_before = store.stats().read_bytes();
        let cands_in = cand_run.into_reader(block).unwrap();
        let Pruned { survivors: surv, pruned, blocks: cut, .. } =
            prune_candidates(&store, &ext, cands_in, widest(&cands), &src_run, &dst_run).unwrap();
        assert_eq!(cut, blocks, "the blocks the byte rule cuts");
        // One pass over the candidates and the owners' labels, and per
        // block only the chunks of `dst` that hold a wanted pivot — not
        // the file.
        let read = store.stats().read_bytes() - read_before;
        assert!(read < whole_scans, "{read} B read, {whole_scans} B with one scan per block");
        assert!(store.stats().seeks() > 0);
        let got = surv.read_all().unwrap();
        assert!(got.windows(2).all(|w| (w[0].key, w[0].pivot) < (w[1].key, w[1].pivot)));
        assert_eq!(got, expect);
        // Dominated candidates used to be counted as pruned (the join
        // found the owner's own entry); now they are no candidates.
        assert_eq!(pruned as usize, live - expect.len());
    }

    /// The block prune against a brute-force reference, seeded: the
    /// survivors, `pruned` and `replaced` of every case equal what the
    /// reference join and the owners' labels give, on `u64` words (small
    /// ids and distances) and `u128` ones (pivots near `u32::MAX`,
    /// weighted distances past 2²⁰), and the blocks the byte rule cuts, with one owner whose group alone
    /// outgrows a block's whole budget and goes into a block of its own.
    #[test]
    fn prune_matches_the_reference_on_either_word_width() {
        use extmem::run::run_from_slice;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ext = ExtMemConfig { memory_records: 48, ..tiny_ext() };
        let (mut replacing, mut oversize) = (0, 0);
        for case in 0..8u64 {
            let (wide, big) = (case % 2 == 1, case >= 4);
            let mut rng = StdRng::seed_from_u64(61 + case);
            let store = TempStore::new().unwrap();
            // 60 small ids and, when wide, 8 just below `u32::MAX`.
            let mut ids: Vec<u32> = (0..60).collect();
            if wide {
                ids.extend((1..=8).map(|i| u32::MAX - i).rev());
            }
            // Wide distances take 28 bits: with 32 for the pivot and the
            // groups' 5, one past a `u64`.
            let far = if wide { 1u32 << 27 } else { 9 };
            // Every id's label: itself and about a third of the ids.
            let label = |rng: &mut StdRng, v: u32| -> Vec<LabelRecord> {
                let mut entry = |p: u32| match (p == v, rng.gen_bool(0.3)) {
                    (true, _) => Some(LabelRecord::new(v, p, 0)),
                    (false, true) => Some(LabelRecord::new(v, p, rng.gen_range(1..far))),
                    (false, false) => None,
                };
                ids.iter().filter_map(|&p| entry(p)).collect()
            };
            let own: Vec<LabelRecord> = ids.iter().flat_map(|&v| label(&mut rng, v)).collect();
            let across: Vec<LabelRecord> = ids.iter().flat_map(|&v| label(&mut rng, v)).collect();
            // Candidates of about a tenth of the pairs — all of one
            // owner's, when `big` — some at an own entry's pivot.
            let mut cands = Vec::new();
            for (&k, &p) in ids.iter().flat_map(|k| ids.iter().map(move |p| (k, p))) {
                if (big && k == 17) || rng.gen_bool(0.1) {
                    cands.push(LabelRecord::new(k, p, rng.gen_range(1..2 * far)));
                }
            }
            let group = |recs: &[LabelRecord], v: u32| -> Vec<LabelEntry> {
                recs.iter().filter(|r| r.key == v).map(|&r| LabelEntry::from(r)).collect()
            };
            let at =
                |label: &[LabelEntry], pivot: u32| label.iter().find(|e| e.pivot == pivot).copied();
            let live: Vec<LabelRecord> = cands
                .iter()
                .copied()
                .filter(|c| at(&group(&own, c.key), c.pivot).is_none_or(|e| e.dist > c.dist))
                .collect();
            let expect: Vec<LabelRecord> = live
                .iter()
                .copied()
                .filter(|c| {
                    let (mine, theirs) = (group(&own, c.key), group(&across, c.pivot));
                    merge_join_reference(&mine, &theirs, VertexId::MAX) > c.dist
                })
                .collect();
            let replaced =
                expect.iter().filter(|c| at(&group(&own, c.key), c.pivot).is_some()).count();
            let at_case = format!("case {case}: wide {wide}, big {big}");
            assert!(!expect.is_empty() && expect.len() < live.len(), "{at_case}: both outcomes");
            let word = word_bytes(&ext, &cands);
            assert_eq!(word, if wide { 32 } else { 16 }, "{at_case}: the word width");
            let owners: Vec<(usize, usize)> = ids
                .iter()
                .map(|&k| (live.iter().filter(|c| c.key == k).count(), group(&own, k).len()))
                .filter(|&(n, _)| n > 0)
                .collect();
            let budget = prune_block_bytes(&ext);
            let outgrow = |&(n, own): &(usize, usize)| n * word + (own + 1) * 8 > budget;
            oversize += owners.iter().filter(|o| outgrow(o)).count();
            assert_eq!(big, owners.iter().any(outgrow), "{at_case}");
            let blocks = blocks_by_bytes(&ext, word, &owners).last().map_or(0, |b| b + 1);

            let labels = |tag, recs: &[LabelRecord]| {
                Labels::new(run_from_slice(&store, tag, recs, ext.block_bytes).unwrap())
            };
            let (own_run, across_run) = (labels("own", &own), labels("across", &across));
            let got = prune(&store, &ext, &cands, &own_run, &across_run).unwrap();
            assert_eq!(got.survivors.read_all().unwrap(), expect, "{at_case}");
            assert_eq!(
                (got.pruned as usize, got.replaced as usize, got.blocks),
                (live.len() - expect.len(), replaced, blocks as u64),
                "{at_case}: pruned, replaced, blocks"
            );
            replacing += replaced;
        }
        assert!(replacing > 0 && oversize > 0);
    }

    /// The resident head of `across`: on a hub-heavy input cut into
    /// several blocks, the prune reads `across` at most once up to the
    /// head's budget and, past it, what each block's pass reads there —
    /// the bytes a reader whose head is already full reads — while
    /// keeping and counting exactly what a per-candidate join does.
    #[test]
    fn the_across_head_is_read_once_per_prune() {
        use extmem::run::run_from_slice;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let (n, ext) = (240u32, tiny_ext());
        let (block, head) = (ext.block_bytes, across_head_bytes(&ext));
        // `across` in a store of its own, whose counters are its reads.
        let (store, far) = (TempStore::new().unwrap(), TempStore::new().unwrap());
        let mut labels = |store: &TempStore, tag| {
            let mut recs = Vec::new();
            for v in 0..n {
                for p in 0..v {
                    if p < 10 || rng.gen_bool(0.1) {
                        recs.push(LabelRecord::new(v, p, rng.gen_range(1..4)));
                    }
                }
                recs.push(LabelRecord::new(v, v, 0));
            }
            (Labels::new(run_from_slice(store, tag, &recs, block).unwrap()), recs)
        };
        let (own_run, own) = labels(&store, "own");
        let (across_run, across) = labels(&far, "across");
        assert!(across_run.bytes() > 8 * head as u64, "the head must be a small prefix");
        // Mostly hubs, now and then a lower-ranked pivot.
        let mut cands = Vec::new();
        for k in 1..n {
            for p in 0..k {
                if (p < 6 && rng.gen_bool(0.7)) || rng.gen_bool(0.05) {
                    cands.push(LabelRecord::new(k, p, rng.gen_range(1..6)));
                }
            }
        }
        let group = |recs: &[LabelRecord], v: u32| -> Vec<LabelRecord> {
            recs.iter().copied().filter(|r| r.key == v).collect()
        };
        let entries = |recs: Vec<LabelRecord>| -> Vec<LabelEntry> {
            recs.into_iter().map(LabelEntry::from).collect()
        };
        let live = |k: u32| -> Vec<LabelRecord> {
            let mine = group(&own, k);
            let dominated =
                |c: &LabelRecord| mine.iter().any(|e| e.pivot == c.pivot && e.dist <= c.dist);
            group(&cands, k).into_iter().filter(|c| !dominated(c)).collect()
        };
        let expect: Vec<LabelRecord> = (0..n)
            .flat_map(live)
            .filter(|c| {
                let (mine, theirs) = (group(&own, c.key), group(&across, c.pivot));
                merge_join_reference(&entries(mine), &entries(theirs), VertexId::MAX) > c.dist
            })
            .collect();
        let counted: usize = (0..n).map(|k| live(k).len()).sum();
        assert!(!expect.is_empty() && expect.len() < counted, "both outcomes occur");
        // Each block's probes into `across`: its live candidates' pivots.
        let owners: Vec<u32> = (0..n).filter(|&k| !live(k).is_empty()).collect();
        let sizes: Vec<(usize, usize)> =
            owners.iter().map(|&k| (live(k).len(), group(&own, k).len())).collect();
        let cuts = blocks_by_bytes(&ext, word_bytes(&ext, &cands), &sizes);
        let mut probes: Vec<Vec<u32>> = vec![Vec::new(); cuts.last().map_or(0, |b| b + 1)];
        for (&k, &b) in owners.iter().zip(&cuts) {
            probes[b].extend(live(k).iter().map(|c| c.pivot));
        }
        assert!(probes.len() >= 3, "the budget must cut the candidates into ≥ 3 blocks");
        for block_probes in &mut probes {
            block_probes.sort_unstable();
            block_probes.dedup();
        }
        // What each block's pass reads with no head, and past a full one.
        let pass = |reader: &mut GroupReader<SortedStream>, probes: &[u32]| -> u64 {
            let (before, mut g) = (far.stats().read_bytes(), Vec::new());
            reader.rewind().unwrap();
            for &p in probes.iter() {
                reader.skip_to(p).unwrap();
                assert_eq!(reader.next_group(&mut g).unwrap(), Some(p));
            }
            far.stats().read_bytes() - before
        };
        let mut full = GroupReader::with_head(&across_run, block, head).unwrap();
        pass(&mut full, &(0..n).collect::<Vec<_>>());
        let (mut plain, mut beyond) = (0, 0);
        for block_probes in &probes {
            plain +=
                pass(&mut GroupReader::with_head(&across_run, block, 0).unwrap(), block_probes);
            beyond += pass(&mut full, block_probes);
        }

        let before = far.stats().read_bytes();
        let got = prune(&store, &ext, &cands, &own_run, &across_run).unwrap();
        let read = far.stats().read_bytes() - before;
        assert!(read <= head as u64 + beyond, "{read} B > {head} B head + {beyond} B past it");
        assert!(read < plain, "{read} B, {plain} B with no head");
        assert_eq!(got.survivors.read_all().unwrap(), expect);
        assert_eq!(
            (got.pruned as usize, got.blocks),
            (counted - expect.len(), probes.len() as u64)
        );
    }

    /// A label file that lacks a vertex's group — self-entries give every
    /// vertex one — is `InvalidData` naming the file, whether the owner's
    /// group is missing from `own` or the pivot's from `across`, not a
    /// join against the next vertex's label.
    #[test]
    fn a_missing_label_group_is_invalid_data_naming_the_file() {
        use extmem::run::run_from_slice;
        let (ext, store) = (tiny_ext(), TempStore::new().unwrap());
        let block = ext.block_bytes;
        let whole: Vec<LabelRecord> = (0..6).map(|v| LabelRecord::new(v, v, 0)).collect();
        let holed: Vec<LabelRecord> = whole.iter().copied().filter(|r| r.key != 3).collect();
        let whole = Labels::new(run_from_slice(&store, "whole", &whole, block).unwrap());
        let holed = Labels::new(run_from_slice(&store, "holed", &holed, block).unwrap());
        for (cand, own, across) in [((3, 1), &holed, &whole), ((5, 3), &whole, &holed)] {
            let cands = [LabelRecord::new(cand.0, cand.1, 2)];
            let Err(e) = prune(&store, &ext, &cands, own, across) else {
                panic!("a missing group must be refused: {cand:?}")
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("holed") && e.to_string().contains("vertex 3"), "{e}");
        }
    }

    /// A label run whose `(key, pivot)` does not strictly increase, or
    /// whose key is not a vertex, is `InvalidData` naming the file when
    /// it is loaded, not silently re-sorted.
    #[test]
    fn an_unsorted_label_run_is_invalid_data_naming_the_file() {
        use extmem::run::run_from_slice;
        let (ext, store) = (tiny_ext(), TempStore::new().unwrap());
        let r = |key, pivot| LabelRecord::new(key, pivot, 1);
        let sorted = [r(0, 0), r(1, 0), r(1, 1), r(2, 0), r(2, 2)];
        let run = Labels::new(run_from_slice(&store, "sorted", &sorted, ext.block_bytes).unwrap());
        let labels = load_labels(&run, 3, &ext).unwrap();
        assert_eq!(labels.iter().map(VertexLabels::len).collect::<Vec<_>>(), [1, 2, 2]);
        let cases: [(&str, &[LabelRecord]); 4] = [
            ("pivots", &[r(0, 0), r(1, 1), r(1, 0)]),
            ("twice", &[r(0, 0), r(1, 0), r(1, 0), r(1, 1)]),
            ("keys", &[r(0, 0), r(2, 0), r(1, 1)]),
            ("past", &[r(0, 0), r(3, 0)]),
        ];
        for (tag, records) in cases {
            let run = Labels::new(run_from_slice(&store, tag, records, ext.block_bytes).unwrap());
            let Err(e) = load_labels(&run, 3, &ext) else { panic!("{tag} must be refused") };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(tag), "{tag}: {e}");
        }
    }

    /// A fold of the base and 1 to `MAX_DELTAS` deltas writes, as its new
    /// base, exactly the records `Labels::reader` streamed before it —
    /// the nearest per `(owner, pivot)`, pass after pass, with a head and
    /// without — in one merge pass that reads each run once and writes
    /// the new base once.
    #[test]
    fn a_fold_writes_what_the_labels_read_before_it() {
        use extmem::run::run_from_slice;
        use rand::{Rng, SeedableRng};
        let (ext, mut rng) = (tiny_ext(), rand::rngs::StdRng::seed_from_u64(0xf01d));
        let block = ext.block_bytes;
        let nearest = |runs: &[Vec<LabelRecord>]| {
            let mut nearest = std::collections::BTreeMap::new();
            for r in runs.iter().flatten() {
                let d = nearest.entry((r.key, r.pivot)).or_insert(r.dist);
                *d = r.dist.min(*d);
            }
            let each = nearest.into_iter().map(|((k, p), d)| LabelRecord::new(k, p, d));
            each.collect::<Vec<_>>()
        };
        for (deltas, head) in (1..=MAX_DELTAS).flat_map(|d| [(d, 0), (d, 600)]) {
            let store = TempStore::new().unwrap();
            // A base and deltas, each one record per pair, whose pivots
            // overlap: the deltas lower, raise and repeat base entries,
            // and add their own.
            let mut runs: Vec<Vec<LabelRecord>> = [(300, 0..60)]
                .into_iter()
                .chain(std::iter::repeat_n((150, 30..90), deltas))
                .map(|(n, pivots)| {
                    let mut run: Vec<LabelRecord> = (0..n)
                        .map(|_| {
                            let (key, dist) = (rng.gen_range(0..40), rng.gen_range(1..9));
                            LabelRecord::new(key, rng.gen_range(pivots.clone()), dist)
                        })
                        .collect();
                    run.sort_unstable();
                    run.dedup_by_key(|r| (r.key, r.pivot));
                    run
                })
                .collect();
            let file = |recs: &Vec<LabelRecord>| run_from_slice(&store, "l", recs, block).unwrap();
            let mut labels = Labels::new(file(&runs[0]));
            labels.deltas = runs[1..].iter().map(|r| Arc::new(file(r))).collect();
            let at = format!("{deltas} deltas, head {head}");
            let mut reader = labels.reader(block, head).unwrap();
            let mut streamed = Vec::new();
            for pass in 0..3 {
                reader.rewind().unwrap();
                let mut this_pass = Vec::new();
                while let Some(r) = reader.next_record().unwrap() {
                    this_pass.push(r);
                }
                assert!(pass == 0 || this_pass == streamed, "{at}, pass {pass}");
                streamed = this_pass;
            }
            drop(reader);
            assert_eq!(streamed, nearest(&runs), "{at}");
            // The same labels one round earlier, then that round's delta.
            let surv = labels.deltas.pop().unwrap();
            let last = runs.pop().unwrap();
            labels.entries = nearest(&runs).len() as u64;
            let replaced = labels.entries + last.len() as u64 - streamed.len() as u64;
            let stats = store.stats();
            let before = (stats.read_bytes(), stats.write_bytes(), stats.merge_passes());
            let read = labels.bytes() + surv.bytes();
            let folded = labels.add(&store, &ext, &surv, replaced).unwrap();
            assert!(folded.deltas.is_empty(), "{at}: the stack must fold");
            let after = (stats.read_bytes(), stats.write_bytes(), stats.merge_passes());
            let expect = (before.0 + read, before.1 + folded.base.bytes(), before.2 + 1);
            assert_eq!(after, expect, "{at}");
            assert_eq!(folded.entries, streamed.len() as u64, "{at}");
            assert_eq!(folded.base.read_all().unwrap(), streamed, "{at}");
        }
    }

    /// Owners whose candidates are all dominated leave no block behind
    /// them, and a budget's worth of them in a row does not end the
    /// prune: the live candidates after them are still joined.
    #[test]
    fn prune_reads_past_owners_whose_candidates_all_die_early() {
        use extmem::run::run_from_slice;
        let (n, ext, store) = (200u32, tiny_ext(), TempStore::new().unwrap());
        let block = ext.block_bytes;
        // Every vertex carries the hub 0 at distance 1, and itself.
        let labels: Vec<LabelRecord> = (0..n)
            .flat_map(|v| {
                let hub = (v > 0).then(|| LabelRecord::new(v, 0, 1));
                hub.into_iter().chain([LabelRecord::new(v, v, 0)])
            })
            .collect();
        let run = Labels::new(run_from_slice(&store, "labels", &labels, block).unwrap());
        // Owners below 190 offer the hub again at distance 3, dominated;
        // the last ten also offer their neighbour at distance 1, live.
        let mut cands = Vec::new();
        for v in 1..n {
            cands.push(LabelRecord::new(v, 0, 3));
            if v >= 190 {
                cands.push(LabelRecord::new(v, v - 1, 1));
            }
        }
        // Each dominated owner would take a word, its two entries and a
        // group were it counted.
        let dominated = 189 * (16 + 2 * 8 + 8);
        assert!(dominated > prune_block_bytes(&ext), "the dominated owners alone overrun a block");
        let got = prune(&store, &ext, &cands, &run, &run).unwrap();
        let expect: Vec<LabelRecord> = (190..n).map(|v| LabelRecord::new(v, v - 1, 1)).collect();
        assert_eq!((got.survivors.read_all().unwrap(), got.pruned, got.blocks), (expect, 0, 1));
    }

    /// (b) A hybrid that switches at 3 on graphs that need more rounds
    /// starts streaming views mid-build, and still builds the in-memory
    /// engine's labels and rows, with the same I/O at 1 and 4 threads.
    #[test]
    fn hybrid_switching_mid_build_matches_memory_at_any_thread_count() {
        let cfg = HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 3 });
        for directed in [false, true] {
            let g = bisected_path(96, directed);
            let (mem, mem_stats) = build_prelabeled(&g, &cfg);
            assert!(mem_stats.num_iterations() >= 6, "doubling rounds must follow the switch");
            let seq = build_external(&g, &cfg, &tiny_ext()).unwrap();
            let par = build_external(&g, &cfg.clone().with_parallelism(4), &tiny_ext()).unwrap();
            for (threads, ext) in [(1, &seq), (4, &par)] {
                assert_eq!(ext.index, mem, "directed = {directed}, threads = {threads}");
                assert_eq!(progress(&ext.stats), progress(&mem_stats), "threads = {threads}");
            }
            assert_eq!(
                (par.io, par.sort_runs, par.merge_passes, par.seeks),
                (seq.io, seq.sort_runs, seq.merge_passes, seq.seeks),
                "directed = {directed}"
            );
        }
    }

    /// (c) A build that never doubles never sorts a view: it writes less
    /// and merges less than a hybrid that doubles from iteration 3 on.
    #[test]
    fn stepping_never_sorts_a_view() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        for directed in [false, true] {
            // Low diameter: both strategies need about as many rounds.
            let n = 60;
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            for _ in 0..4 * n {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            let build = |strategy| {
                let cfg = HopDbConfig::with_strategy(strategy);
                let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
                assert_eq!(result.index, build_prelabeled(&g, &cfg).0, "{:?}", cfg.strategy);
                result
            };
            let stepping = build(Strategy::Stepping);
            let hybrid = build(Strategy::Hybrid { switch_at: 2 });
            // Not for want of rounds: stepping runs at least as many.
            assert!(stepping.stats.num_iterations() >= hybrid.stats.num_iterations());
            assert!(stepping.io.1 < hybrid.io.1, "directed = {directed}");
            assert!(stepping.merge_passes < hybrid.merge_passes, "directed = {directed}");
        }
    }

    /// A directed side whose round has no survivors keeps its label files
    /// as they were — the same base, the same deltas — and writes nothing,
    /// while the other side inserts: the round writes that side's
    /// survivors and its fold, if it folds, and not a byte more.
    #[test]
    fn a_side_without_survivors_leaves_its_labels_untouched() {
        use rand::{Rng, SeedableRng};
        let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
        let mut lopsided = 0;
        for seed in 0..8 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 30;
            let mut b = GraphBuilder::new_directed(n);
            for _ in 0..2 * n {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build();
            // No candidate sorter spills, so every byte a round writes is
            // a survivor run or a fold.
            assert_eq!(run_on(&g, &cfg, &tiny_ext()).sort_runs, 0, "seed {seed}");
            let (rows, files) = rows_and_files(&g, &cfg, &tiny_ext());
            for (i, it) in rows.iter().enumerate().skip(1) {
                let (now, then) = (&files[i], &files[i - 1]);
                let idle: Vec<bool> = now.0.iter().map(|s| s.prev == 0).collect();
                if !idle.contains(&true) || !idle.contains(&false) {
                    continue;
                }
                lopsided += 1;
                let at = format!("seed {seed}, iteration {}", it.iteration);
                for ((now, then), _) in now.0.iter().zip(&then.0).zip(&idle).filter(|s| *s.1) {
                    assert_eq!(now, &SideFiles { prev: 0, ..then.clone() }, "{at}");
                }
                let bases: u64 = now.folded(then).map(|(s, _)| s.base_bytes).sum();
                assert_eq!(it.io_write_bytes, now.prev() + bases, "{at}");
            }
        }
        assert!(lopsided > 0, "some round must insert on one side only");
    }

    /// (d) Weighted doubling: a later round finds a lighter path for an
    /// `(owner, pivot)` pair that already has an entry, and the label
    /// merge — which only borrows the survivor run — keeps the minimum.
    #[test]
    fn later_round_lowers_an_existing_distance() {
        // 4 → 0 directly costs 10; through 3, 2, 1 it costs 4.
        let mut b = GraphBuilder::new_directed(5).weighted();
        for (u, v, w) in [(4, 0, 10), (4, 3, 1), (3, 2, 1), (2, 1, 1), (1, 0, 1)] {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let cfg = HopDbConfig::with_strategy(Strategy::Doubling);
        let (mem, mem_stats) = crate::engine::build_index(&g, &cfg);
        let result = run_on(&g, &cfg, &tiny_ext());
        let its = &result.stats.iterations;
        assert!(
            its.windows(2)
                .skip(1)
                .any(|w| w[1].inserted > 0
                    && w[1].total_entries < w[0].total_entries + w[1].inserted),
            "an iteration after the second must replace an entry, not add one: {its:?}"
        );
        assert_eq!(result.index, mem);
        assert_eq!(progress(&result.stats), progress(&mem_stats));
        assert_eq!(result.index.query(4, 0), 4);
        assert_exact(&g, &result.index);
    }

    /// The per-iteration I/O columns account for every byte of the build:
    /// together with the closing read of the label files they are the
    /// build's total.
    #[test]
    fn per_iteration_io_sums_to_the_total() {
        for directed in [false, true] {
            let g = bisected_path(96, directed);
            let cfg = HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 3 });
            let result = run_on(&g, &cfg, &tiny_ext());
            let its = &result.stats.iterations;
            let (rows, files) = rows_and_files(&g, &cfg, &tiny_ext());
            // Seeding walks the graph: it reads nothing and writes each
            // side's edge, label and `prev` runs, once.
            let seeded = &files[0];
            assert_eq!(
                io_columns(&its[..1]),
                [(0, seeded.edges() + seeded.labels() + seeded.prev())]
            );
            assert!(its[1..].iter().all(|it| it.io_read_bytes > 0));
            assert!(its.iter().all(|it| it.io_write_bytes > 0 || it.inserted == 0));
            // The closing load reads the last round's label files whole.
            assert_eq!(io_columns(&rows), io_columns(its));
            let load_labels_read = files.last().expect("rows").labels();
            let read: u64 = its.iter().map(|it| it.io_read_bytes).sum();
            let written: u64 = its.iter().map(|it| it.io_write_bytes).sum();
            assert_eq!((read + load_labels_read, written), (result.io.0, result.io.1));
            let (_, mem_stats) = build_prelabeled(&g, &cfg);
            assert!(mem_stats
                .iterations
                .iter()
                .all(|it| it.io_read_bytes + it.io_write_bytes == 0));
        }
    }

    /// Every side pushes its candidates as generated and prunes them
    /// owner-major, so no side sorts anything back: when no candidate
    /// sorter spills, an inserting stepping round writes one survivor run
    /// per side and the new base of each side that folds, and not a byte
    /// more.
    #[test]
    fn directed_build_never_inverts_its_candidates() {
        let g = bisected_path(96, true);
        let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
        let result = build_external(&g, &cfg, &ExtMemConfig::default()).unwrap();
        assert_eq!(result.sort_runs, 0, "the budget must hold every candidate set");
        let (rows, files) = rows_and_files(&peel(&g).core, &cfg, &ExtMemConfig::default());
        assert_eq!(
            progress(&result.stats),
            progress(&BuildStats { iterations: rows.clone(), ..BuildStats::default() })
        );
        assert!(rows[1..].iter().filter(|it| it.inserted > 0).count() >= 10);
        for (i, it) in rows.iter().enumerate().skip(1).filter(|(_, it)| it.inserted > 0) {
            // The round's survivor run is the next `prev`.
            let bases: u64 = files[i].folded(&files[i - 1]).map(|(now, _)| now.base_bytes).sum();
            assert_eq!(it.io_write_bytes, files[i].prev() + bases, "iteration {}", it.iteration);
        }
        for strategy in [Strategy::Stepping, Strategy::Doubling, Strategy::Hybrid { switch_at: 3 }]
        {
            let cfg = HopDbConfig::with_strategy(strategy);
            let (mem, mem_stats) = build_prelabeled(&g, &cfg);
            let result = build_external(&g, &cfg, &tiny_ext()).unwrap();
            assert_eq!(result.index, mem, "{:?}", cfg.strategy);
            assert_eq!(progress(&result.stats), progress(&mem_stats), "{:?}", cfg.strategy);
        }
    }

    /// The round that finds the fixpoint has nothing to merge: it writes
    /// nothing and `load_labels` reads the files the round before wrote.
    #[test]
    fn a_round_without_survivors_merges_nothing() {
        for directed in [false, true] {
            let g = bisected_path(96, directed);
            let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
            let result = build_external(&g, &cfg, &ExtMemConfig::default()).unwrap();
            let its = &result.stats.iterations;
            let (last, before) = (&its[its.len() - 1], &its[its.len() - 2]);
            assert_eq!((last.inserted, last.io_write_bytes), (0, 0), "directed = {directed}");
            assert!(last.io_read_bytes > 0, "the round did run");
            assert_eq!(last.total_entries, before.total_entries);
            // Nothing spills under this budget, so the only merge passes
            // are the label folds: at most one per side per inserting
            // round, and most of the late, small rounds stack a delta.
            let (_, files) = rows_and_files(&peel(&g).core, &cfg, &ExtMemConfig::default());
            let folds = files.windows(2).map(|w| w[1].folded(&w[0]).count() as u64).sum::<u64>();
            assert_eq!(result.merge_passes, folds, "directed = {directed}");
            let sides = if directed { 2 } else { 1 };
            let inserting = its[1..].iter().filter(|it| it.inserted > 0).count() as u64;
            assert!(2 * folds < sides * inserting, "directed = {directed}: {folds} folds");
            assert_eq!(result.index, build_prelabeled(&g, &cfg).0);
        }
    }

    /// A round reads the blocks its `prev` asks for, not its label files:
    /// late in a long stepping build, with a handful of new entries per
    /// round, everything a round reads *besides* a fold's own pass over
    /// the labels is a small fraction of them, and a fold comes once in
    /// [`MAX_DELTAS`] + 1 inserting rounds.
    #[test]
    fn late_rounds_read_what_their_prev_costs() {
        let g = bisected_path(600, false);
        let cfg = HopDbConfig::with_strategy(Strategy::Stepping);
        // Blocks of about twenty records: the label files span some 200.
        let ext = ExtMemConfig { memory_records: 1 << 14, block_bytes: 75 };
        let result = run_on(&g, &cfg, &ext);
        let (its, files) = rows_and_files(&g, &cfg, &ext);
        assert_eq!(io_columns(&its), io_columns(&result.stats.iterations));
        let label_bytes = files.last().expect("rows").labels();
        let half = its.len() / 2;
        assert!(its.len() - half > 100 && its[half..].iter().all(|it| it.inserted < 16));
        let mut folds = 0;
        for i in half + 1..its.len() {
            // A fold reads the label files the round before left and the
            // survivors, which are the next `prev`.
            let fold_read: u64 =
                files[i].folded(&files[i - 1]).map(|(now, then)| then.labels() + now.prev).sum();
            folds += usize::from(fold_read > 0);
            let rest = its[i].io_read_bytes - fold_read;
            assert!(rest * 10 < label_bytes, "iteration {}: {rest} B", its[i].iteration);
        }
        let inserting = its[half + 1..].iter().filter(|it| it.inserted > 0).count();
        assert!(folds <= inserting / (MAX_DELTAS + 1) + 1, "{folds} folds in {inserting} rounds");
        assert!(result.seeks > 0);
    }

    #[test]
    fn io_is_counted() {
        let g = graphgen::example_graph_fig3();
        let result = build_external(&g, &HopDbConfig::default(), &tiny_ext()).unwrap();
        let (rb, wb, rblk, wblk) = result.io;
        assert!(rb > 0 && wb > 0 && rblk > 0 && wblk > 0);
    }

    #[test]
    #[should_panic(expected = "pruned algorithm")]
    fn rejects_unpruned_config() {
        let g = graphgen::example_graph_fig3();
        let _ = build_external(&g, &HopDbConfig::unpruned(Strategy::Doubling), &tiny_ext());
    }

    /// A zero block size is refused up front (it used to run the whole
    /// build and then divide by it in the I/O report).
    #[test]
    fn rejects_zero_block_bytes() {
        let g = graphgen::example_graph_fig3();
        let ext = ExtMemConfig { block_bytes: 0, ..tiny_ext() };
        let Err(e) = build_external(&g, &HopDbConfig::default(), &ext) else {
            panic!("block_bytes = 0 must be refused")
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("block_bytes"), "{e}");
        // The budgets clamp: degenerate but non-zero values build.
        for ext in [
            ExtMemConfig { memory_records: 0, block_bytes: 1 },
            ExtMemConfig { memory_records: 1, block_bytes: 256 },
        ] {
            let result = build_external(&g, &HopDbConfig::default(), &ext).unwrap();
            assert_eq!(result.index, build_prelabeled(&g, &HopDbConfig::default()).0);
        }
    }
}
