//! `FlatIndex` — the frozen read path: a validated `HOPIDX04` image,
//! served in place.
//!
//! [`crate::index::LabelIndex`] is the *construction* representation:
//! one `Vec<LabelEntry>` per vertex, resizable because the engines keep
//! inserting and pruning. A `FlatIndex` is the finished index as the
//! bytes [`LabelIndex::write_hopidx`] produces — one `Vec<u8>` that *is*
//! the file ([`crate::image`] describes the format) — so loading is
//! read + validate with no second layout, and what a daemon holds
//! resident is what `ls -l` shows.
//!
//! A query never decodes a label into entries. Per label the 64
//! top-ranked pivots are one `u64` with a packed `d − 1` per set bit
//! (0 to 32 bits, one width per image), so the join over them is
//! `hubs(s) & hubs(t)` and a `popcount`-ranked distance lookup per
//! common bit; the rest is a tail of one varint per entry, split into
//! pivot gap and `d − 1` by the image's tail shift and merged by one
//! portable two-pointer loop. No label stores its self entry `(v, 0)`:
//! the join knows the two vertices, and of their self entries only the
//! lower one's can meet a stored pivot of the other label, so it looks
//! that one up — a hub bit, or one more entry after the last of its
//! label's tail. The per-entry
//! loops read label bytes without bounds checks; [`crate::image`]'s
//! validator, which every constructor runs, is what makes that sound.
//! The record rule is [`crate::index::resolve`]'s: a query hands it the
//! slots, a record decoded in place and this byte join.
//!
//! [`FlatIndex::query_many_work`] answers a batch on the same path with
//! its [`QueryWork`] counters on, and `()` in their place elsewhere
//! compiles to nothing.
//!
//! [`FlatIndex::query_many`] cuts a pair slice into one chunk per
//! worker ([`crate::parallel`]); the index is immutable, so serving
//! parallelises embarrassingly and results come back in input order.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::path::Path;

use sfgraph::{Dist, VertexId, INF_DIST};

use crate::image::{self, Layout, Widths};
use crate::index::{resolve, LabelIndex, Record, NO_PARENT, RECORD_PAIRS};
use crate::parallel::{resolve_threads, run_workers};

/// A frozen, query-only 2-hop label index: the bytes of a `HOPIDX04`
/// image, validated once, then served in place.
///
/// Built from a finished [`LabelIndex`] with [`FlatIndex::from_index`],
/// or loaded from the file `hopdb-cli build` wrote with
/// [`FlatIndex::load`] / [`FlatIndex::from_hopidx_bytes`]; either way
/// the index owns exactly one heap allocation, the image.
///
/// ```
/// use hoplabels::flat::FlatIndex;
/// use hoplabels::{LabelEntry, LabelIndex};
///
/// let mut idx = LabelIndex::new(3, false);
/// let l = &mut idx.sides_mut()[0]; // an undirected index's one side, `L`
/// l[1].insert_min(LabelEntry::new(0, 2));
/// l[2].insert_min(LabelEntry::new(0, 5));
/// let flat = FlatIndex::from_index(&idx);
/// assert_eq!(flat.query(1, 2), 7); // 1 –2– 0 –5– 2
/// assert_eq!(flat.query(2, 2), 0);
/// assert_eq!(flat.query_many(&[(1, 2), (2, 1)], 2), vec![7, 7]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatIndex {
    /// The image, byte for byte. Private, and never mutated after
    /// [`image::validate`] accepted it: the unchecked reads in
    /// [`join`] lean on exactly that.
    image: Vec<u8>,
    /// Where `image`'s directories and labels start, from `validate`.
    layout: Layout,
    entries: usize,
}

impl FlatIndex {
    /// Freeze a finished nested index: serialize it into memory and
    /// validate the result like any other image.
    ///
    /// # Panics
    /// If [`LabelIndex::write_hopidx`] refuses the index: a label pivot
    /// not below its vertex, a distance 0 at another vertex, a record
    /// that breaks the record rule, or a side past the 4 GiB offset
    /// range.
    pub fn from_index(index: &LabelIndex) -> FlatIndex {
        let mut image = Vec::new();
        index.write_hopidx(&mut image).expect("a finished index is writable as HOPIDX04");
        FlatIndex::from_image(image).expect("the writer's image passes its own validator")
    }

    /// Validate `bytes` as a `HOPIDX04` image (the format written by
    /// [`LabelIndex::write_hopidx`], hence by `hopdb-cli build`) and
    /// serve it. Total: any image that is not exactly what the writer
    /// could have produced is `InvalidData`, never a panic and never an
    /// index that answers wrong.
    pub fn from_hopidx_bytes(bytes: &[u8]) -> std::io::Result<FlatIndex> {
        FlatIndex::from_image(bytes.to_vec())
    }

    /// Read and validate the image file at `path`.
    pub fn load(path: &Path) -> std::io::Result<FlatIndex> {
        FlatIndex::from_image(std::fs::read(path)?)
    }

    fn from_image(image: Vec<u8>) -> std::io::Result<FlatIndex> {
        let (layout, entries) = image::validate(&image)?;
        Ok(FlatIndex { image, layout, entries })
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.layout.header.n
    }

    /// Whether this is a directed index (separate `Lin`/`Lout`).
    pub fn is_directed(&self) -> bool {
        self.layout.header.directed
    }

    /// Total number of label entries.
    pub fn total_entries(&self) -> usize {
        self.entries
    }

    /// Bytes this structure holds resident: the image, which is also
    /// the file's length.
    pub fn resident_bytes(&self) -> usize {
        self.image.len()
    }

    /// The image itself: exactly what [`LabelIndex::write_hopidx`]
    /// wrote and [`FlatIndex::load`] read, so persisting a frozen index
    /// is writing these bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Slot `v` of `side` (0 = `Lout`/`L`, 1 = `Lin`, which an
    /// undirected layout aliases to side 0).
    #[inline]
    fn slot(&self, side: usize, v: VertexId) -> Slot<'_> {
        let span = self.layout.span(&self.image, side, v as usize).expect("validated directory");
        Slot { v, len: span.len(), rest: &self.image[span.start..] }
    }

    /// Entries of the label in slot `v` of `side`, the implied self
    /// entry included; none for a record.
    fn label_len(&self, side: usize, v: VertexId) -> usize {
        let slot = self.slot(side, v);
        if self.layout.header.records && image::is_record(slot.len) {
            return 0;
        }
        let bytes = &slot.rest[..slot.len];
        let implied = self.layout.implies_self(&self.image, side, v as usize) as usize;
        let Some((hubs, rest)) = bytes.split_first_chunk::<8>() else { return implied };
        let hubs = u64::from_le_bytes(*hubs).count_ones() as usize;
        let tail = rest.get(self.layout.header.widths.hub_bytes(hubs)..).unwrap_or_default();
        // A tail varint ends at its one byte below `0x80`.
        implied + hubs + tail.iter().filter(|&&b| b < 0x80).count()
    }

    /// Entry count of the source-side label of `v` (`Lout`/`L`).
    pub fn out_label_len(&self, v: VertexId) -> usize {
        self.label_len(0, v)
    }

    /// Entry count of the target-side label of `v` (`Lin`/`L`).
    pub fn in_label_len(&self, v: VertexId) -> usize {
        self.label_len(1, v)
    }

    /// Exact distance query `dist(s, t)`; [`INF_DIST`] when
    /// unreachable. Vertex ids are rank positions, exactly as in
    /// [`LabelIndex::query`], and the answer is the same rule's:
    /// [`resolve`] over the image's slots, a record decoded in place and
    /// labels joined by the byte join — at most four joins, no
    /// allocation.
    ///
    /// # Panics
    /// If `s` or `t` is not below [`FlatIndex::num_vertices`].
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        self.answer(s, t, &())
    }

    /// The one query path; `tally` counts its work, or, as `()`,
    /// compiles to nothing.
    #[inline]
    fn answer(&self, s: VertexId, t: VertexId, tally: &impl Tally) -> Dist {
        let n = self.layout.header.n;
        assert!((s as usize) < n && (t as usize) < n, "vertex out of range");
        let widths = self.layout.header.widths;
        let record = |slot: &Slot<'_>| {
            // Only an image with records has slots of 1–7 bytes.
            if !image::is_record(slot.len) {
                return None;
            }
            tally.record_end();
            let (mut pairs, mut at) = ([(NO_PARENT, 0); RECORD_PAIRS], 0);
            // `resolve` hands this only slots of `self.image`, and
            // validation read this one as a record: one or two pairs of
            // complete varints of at most 5 bytes and 32 bits each, filling it
            // exactly.
            for pair in &mut pairs {
                if at == slot.len {
                    break;
                }
                // SAFETY: `at` is at the start of a pair (above).
                *pair = unsafe {
                    (varint(slot.rest, &mut at) as u32, varint(slot.rest, &mut at) as u32)
                };
            }
            Some(Record::from_array(pairs))
        };
        let join = |a: &Slot<'_>, b: &Slot<'_>| {
            tally.join(a.len + b.len);
            // SAFETY: `resolve` joins only slots of `self.image` that
            // `record` did not read as a record (validation: a record's
            // parents hold labels), so whole labels `image::validate`
            // accepted at these `widths` before `self` existed, each
            // followed by the rest of the image; nothing has written
            // since.
            let sum = unsafe { join(*a, *b, widths, tally) };
            sum.min(INF_DIST.into()) as Dist
        };
        let slot = |v, target_side| Ok(self.slot(target_side as usize, v));
        resolve(s, t, slot, record, join).expect("a validated image's records name labels")
    }

    /// Answer a batch of `(s, t)` pairs, cut into one contiguous chunk
    /// for each of up to `threads` workers (`0` = all cores; see
    /// [`crate::parallel`]). Results are returned in input order; each
    /// pair's answer is bit-identical to [`FlatIndex::query`] on the
    /// same pair.
    pub fn query_many(&self, pairs: &[(VertexId, VertexId)], threads: usize) -> Vec<Dist> {
        let mut results = Vec::with_capacity(pairs.len());
        self.query_many_into(pairs, threads, &mut results);
        results
    }

    /// Like [`FlatIndex::query_many`], but *appends* the answers to
    /// `out` instead of allocating a fresh vector — the serving tier
    /// reuses one buffer across coalesced micro-batches.
    pub fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) {
        self.many::<()>(pairs, threads, out);
    }

    /// [`FlatIndex::query_many`] and the [`QueryWork`] of all its pairs,
    /// summed: the same batch path, with its counters on. The sum does
    /// not depend on `threads`.
    pub fn query_many_work(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
    ) -> (Vec<Dist>, QueryWork) {
        let mut results = Vec::with_capacity(pairs.len());
        let tallies = self.many::<Cell<QueryWork>>(pairs, threads, &mut results);
        (
            results,
            tallies.into_iter().map(Cell::into_inner).fold(QueryWork::default(), |a, b| a + b),
        )
    }

    /// The batch path: appends the answers to `out` and returns one
    /// tally per worker.
    fn many<T: Tally + Default + Send>(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> Vec<T> {
        let threads = resolve_threads(threads);
        let base = out.len();
        out.resize(base + pairs.len(), INF_DIST);
        let chunk = pairs.len().div_ceil(threads).max(1);
        let jobs = pairs.chunks(chunk).zip(out[base..].chunks_mut(chunk)).collect();
        run_workers(threads > 1, jobs, |(pairs, results): (&[_], &mut [Dist])| {
            let tally = T::default();
            for (r, &(s, t)) in results.iter_mut().zip(pairs) {
                *r = self.answer(s, t, &tally);
            }
            tally
        })
    }
}

/// What queries cost, counted by the code that answers them
/// ([`FlatIndex::query_many_work`]): exact
/// numbers that a format or a record rule moves, where a timer on a
/// shared host only drifts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct QueryWork {
    /// Label joins made.
    pub joins: u64,
    /// Bytes of the labels handed to those joins, both sides.
    pub join_bytes: u64,
    /// Entries the joins decoded: one per hub both labels hold, one per
    /// tail varint read.
    pub entries: u64,
    /// Query ends whose slot was a record, resolved through its parents.
    pub record_ends: u64,
}

impl std::ops::Add for QueryWork {
    type Output = QueryWork;

    fn add(self, other: QueryWork) -> QueryWork {
        QueryWork {
            joins: self.joins + other.joins,
            join_bytes: self.join_bytes + other.join_bytes,
            entries: self.entries + other.entries,
            record_ends: self.record_ends + other.record_ends,
        }
    }
}

/// Where a query counts its work: `()` counts nothing, and the
/// monomorphised query keeps no trace of the calls.
trait Tally {
    fn join(&self, _bytes: usize) {}
    /// `count` is called only by a tally that counts.
    fn entries(&self, _count: impl FnOnce() -> u32) {}
    fn record_end(&self) {}
}

impl Tally for () {}

impl Tally for Cell<QueryWork> {
    fn join(&self, bytes: usize) {
        let w = self.get();
        self.set(QueryWork { joins: w.joins + 1, join_bytes: w.join_bytes + bytes as u64, ..w });
    }

    fn entries(&self, count: impl FnOnce() -> u32) {
        let w = self.get();
        self.set(QueryWork { entries: w.entries + u64::from(count()), ..w });
    }

    fn record_end(&self) {
        let w = self.get();
        self.set(QueryWork { record_ends: w.record_ends + 1, ..w });
    }
}

/// One slot of the image as a query reads it.
#[derive(Clone, Copy)]
struct Slot<'a> {
    /// The vertex whose slot it is.
    v: VertexId,
    /// The slot's bytes, then the rest of the image: the unchecked loads
    /// may read up to 3 bytes past a label's end, and the image's
    /// 4-byte CRC trailer guarantees there are that many.
    rest: &'a [u8],
    /// Bytes in the slot.
    len: usize,
}

impl Slot<'_> {
    /// The hub word of the slot's label; `None` for an empty label,
    /// which stores no entry.
    #[inline(always)]
    fn hubs(&self) -> Option<u64> {
        let word = self.rest.first_chunk::<8>().filter(|_| self.len != 0)?;
        Some(u64::from_le_bytes(*word))
    }
}

/// Minimum `d(s, p) + d(p, t)` over the pivots two labels share, each
/// label's implied self entry included; `u64::MAX` when they share none.
///
/// Stored pivots lie below their vertex, so of the two self entries only
/// that of the lower vertex `m` can meet a pivot of the other label: a
/// hub bit when `m < 64`, else one more tail entry after the last stored
/// one of the label of `m`.
///
/// # Safety
/// `a` and `b` must each be a label slot whose `len` bytes
/// [`image::validate`] accepted at these `widths`, followed in `rest` by
/// the rest of that image.
#[inline(always)]
unsafe fn join(a: Slot<'_>, b: Slot<'_>, widths: Widths, tally: &impl Tally) -> u64 {
    let (low, high) = if a.v < b.v { (a, b) } else { (b, a) };
    // An empty high label holds only its own self entry, above every
    // pivot of the low one.
    let Some(hh) = high.hubs() else { return u64::MAX };
    let hl = low.hubs().unwrap_or(0);
    let bits = widths.hub_bits;
    let mut common = hl & hh;
    tally.entries(|| common.count_ones());
    // The least sum of stored values, `d − 1` each.
    let mut least = u64::MAX;
    while common != 0 {
        // A hub's distance sits at the rank of its bit among the
        // label's own set bits.
        let below = (common & common.wrapping_neg()) - 1;
        // SAFETY: the bit is set in both words, so each rank is below
        // its label's popcount.
        let (dl, dh) = unsafe {
            (
                hub_value(low, (hl & below).count_ones() as usize, bits),
                hub_value(high, (hh & below).count_ones() as usize, bits),
            )
        };
        least = least.min(dl + dh);
        common &= common - 1;
    }
    let best = least.saturating_add(2);
    if low.v < image::HUBS {
        // The low self entry is a hub, and the low label has no tail:
        // nothing is left to merge.
        let below = (1 << low.v) - 1;
        if hh >> low.v & 1 == 0 {
            return best;
        }
        tally.entries(|| 1);
        // SAFETY: the bit is set in `hh`, so its rank is below the popcount.
        let dh = unsafe { hub_value(high, (hh & below).count_ones() as usize, bits) };
        return best.min(dh + 1);
    }
    let mut tl = Tail::after_hubs(low, hl, widths, Some(low.v));
    let mut th = Tail::after_hubs(high, hh, widths, None);
    // SAFETY: both cursors are where `after_hubs` put them in a
    // validated label.
    let tails = unsafe { merge_tails(&mut tl, &mut th) };
    tally.entries(|| tl.read() + th.read());
    best.min(tails)
}

/// Minimum `d_a + d_b` over the tail pivots two cursors share; `u64::MAX`
/// when they share none. Either tail running out ends the merge: what
/// is left on the other side has no partner.
///
/// # Safety
/// Only [`Tail::after_hubs`] has placed either cursor, in a validated
/// label.
#[inline(always)]
unsafe fn merge_tails(ta: &mut Tail<'_>, tb: &mut Tail<'_>) -> u64 {
    let mut best = u64::MAX;
    // SAFETY: as this function's.
    if unsafe { !ta.next() || !tb.next() } {
        return best;
    }
    loop {
        let (step_a, step_b) = (ta.pivot <= tb.pivot, tb.pivot <= ta.pivot);
        if step_a && step_b {
            best = best.min(ta.dist + tb.dist);
        }
        // SAFETY: only `next` has moved either cursor since `after_hubs`.
        if unsafe { (step_a && !ta.next()) || (step_b && !tb.next()) } {
            return best;
        }
    }
}

/// The stored `d − 1` of hub rank `rank` in the label of `slot`, `bits`
/// wide.
///
/// # Safety
/// `slot` is a validated label at `bits` and `rank` is below the
/// popcount of its hub word.
#[inline(always)]
unsafe fn hub_value(slot: Slot<'_>, rank: usize, bits: u32) -> u64 {
    let first = rank * bits as usize;
    let shift = first % 8;
    // SAFETY: validation's `8 + ⌈bits · popcount(hubs) / 8⌉ ≤ len` puts
    // the first byte of this value, `p`, inside the label at any width
    // above 0, and at width 0 `p` is the label's byte 8, at most its
    // end; so `p + 3` is at most 3 bytes past the label, inside `rest`
    // (the CRC trailer). Above 25 bits the value ends at `p + 3` or
    // later, so `p + 4` is at most 1 byte past the label. Byte arrays
    // have alignment 1.
    let word = unsafe {
        let p = slot.rest.as_ptr().add(8 + first / 8);
        let low = u64::from(u32::from_le_bytes(p.cast::<[u8; 4]>().read())) >> shift;
        // A test of the width alone, which the join's loop does not
        // change: above 25 bits a value may reach a fifth byte.
        if bits > 25 {
            low | u64::from(p.add(4).read()) << (32 - shift)
        } else {
            low
        }
    };
    word & ((1u64 << bits) - 1)
}

/// A cursor over the varint tail of one validated label, which may end
/// with the label's implied self entry.
struct Tail<'a> {
    rest: &'a [u8],
    /// Where the tail starts.
    start: usize,
    at: usize,
    /// Where the label ends.
    end: usize,
    widths: Widths,
    pivot: VertexId,
    dist: u64,
    /// The implied self entry's pivot, while it is still to come.
    implied: Option<VertexId>,
}

impl Tail<'_> {
    /// Before the first tail entry of the label of `slot`, whose hub word
    /// is `hubs` (0 for an empty label); `implied` is reported after the
    /// stored entries, at distance 0.
    #[inline(always)]
    fn after_hubs(
        slot: Slot<'_>,
        hubs: u64,
        widths: Widths,
        implied: Option<VertexId>,
    ) -> Tail<'_> {
        let at = if slot.len == 0 { 0 } else { 8 + widths.hub_bytes(hubs.count_ones() as usize) };
        let (rest, end) = (slot.rest, slot.len);
        Tail { rest, start: at, at, end, widths, pivot: image::HUBS - 1, dist: 0, implied }
    }

    /// Step to the next entry; `false` at the label's end.
    ///
    /// # Safety
    /// `rest` holds a validated label of `end` bytes and `at` is where
    /// [`Tail::after_hubs`] or an earlier `next` left it.
    #[inline(always)]
    unsafe fn next(&mut self) -> bool {
        // Validation's "the tail is whole varints ending exactly at the
        // label's end" makes this the only end test: `at` is at an entry
        // boundary, so it is either the end or the first byte of a
        // complete varint.
        if self.at == self.end {
            let Some(pivot) = self.implied.take() else { return false };
            (self.pivot, self.dist) = (pivot, 0);
            return true;
        }
        // SAFETY: a complete varint starts at `at` (above).
        let (gap, dist) = self.widths.split(unsafe { tail_varint(self.rest, &mut self.at) });
        // The pivot cannot overflow: validation summed it to below v.
        self.pivot += 1 + gap as VertexId;
        self.dist = dist;
        true
    }

    /// Varints read so far: each ends at its one byte below `0x80`.
    fn read(&self) -> u32 {
        let read = self.rest.get(self.start..self.at).unwrap_or_default();
        read.iter().filter(|&&b| b < 0x80).count() as u32
    }
}

/// The tail varint at `rest[*at..]`, advancing `at`: one or two bytes
/// without a branch on which, longer ones by [`varint`].
///
/// # Safety
/// As [`varint`], and the varint lies in a label that `rest` continues
/// past by at least one byte.
#[inline(always)]
unsafe fn tail_varint(rest: &[u8], at: &mut usize) -> u64 {
    let p = rest.as_ptr();
    // SAFETY: a varint starts at `at`, so its first byte is in the label
    // and the next one in `rest`: in the label, or the first byte after
    // it (used only when the varint goes on, so never past the label).
    let (b0, b1) = unsafe { (u64::from(*p.add(*at)), u64::from(*p.add(*at + 1))) };
    let more = b0 >> 7;
    if more & (b1 >> 7) != 0 {
        // SAFETY: as this function's.
        return unsafe { varint(rest, at) };
    }
    *at += 1 + more as usize;
    (b0 & 0x7F) | ((b1 * more) << 7)
}

/// One varint of `label` at `*at`, advancing `at`.
///
/// # Safety
/// A complete varint of at most 10 bytes and 64 bits starts at `at`.
#[inline(always)]
unsafe fn varint(label: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0u32);
    loop {
        // SAFETY: validation's "every varint is complete inside its
        // label" keeps `at` in bounds until the byte below 0x80 that
        // ends this one; "at most 10 bytes" keeps `shift` at or below 63.
        let b = unsafe { *label.get_unchecked(*at) };
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Every stored entry of the label of `v` in `image[span]`, read the way
/// [`join`] reads it, then its implied self entry if `implied`.
///
/// # Safety
/// `image[span]` must be a whole label of vertex `v` that
/// [`image::validate`] (or its per-label half, `image::walk_label`)
/// accepted at these `widths`, and `image` must continue at least 4
/// bytes past it.
#[cfg(test)]
pub(crate) unsafe fn decode_in_place(
    image: &[u8],
    span: std::ops::Range<usize>,
    v: VertexId,
    widths: Widths,
    implied: bool,
) -> Vec<crate::LabelEntry> {
    let slot = Slot { v, len: span.len(), rest: &image[span.start..] };
    let hubs = slot.hubs().unwrap_or(0);
    let mut entries = Vec::new();
    let mut rest = hubs;
    while rest != 0 {
        let rank = (hubs & ((rest & rest.wrapping_neg()) - 1)).count_ones() as usize;
        // SAFETY: `rank` counts the set bits below a set bit.
        let dist = unsafe { hub_value(slot, rank, widths.hub_bits) } as Dist + 1;
        entries.push(crate::LabelEntry::new(rest.trailing_zeros(), dist));
        rest &= rest - 1;
    }
    if implied && v < image::HUBS {
        entries.push(crate::LabelEntry::trivial(v));
    }
    let mut tail = Tail::after_hubs(slot, hubs, widths, (implied && v >= image::HUBS).then_some(v));
    // SAFETY: only `next` moves `tail`.
    while unsafe { tail.next() } {
        entries.push(crate::LabelEntry::new(tail.pivot, tail.dist as Dist));
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LabelEntry;
    use crate::index::VertexLabels;

    fn directed_example() -> LabelIndex {
        // Path 1 -> 0 -> 2 plus 3 isolated.
        let mut d = LabelIndex::new(4, true);
        d.sides_mut()[0][1].insert_min(LabelEntry::new(0, 1));
        d.sides_mut()[1][2].insert_min(LabelEntry::new(0, 1));
        d
    }

    #[test]
    fn flat_matches_nested_directed() {
        let idx = directed_example();
        let flat = FlatIndex::from_index(&idx);
        assert!(flat.is_directed());
        assert_eq!(flat.num_vertices(), 4);
        for s in 0..4u32 {
            for t in 0..4u32 {
                assert_eq!(flat.query(s, t), idx.query(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn flat_matches_nested_undirected() {
        let mut idx = LabelIndex::new(3, false);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 2));
        idx.sides_mut()[0][2].insert_min(LabelEntry::new(0, 5));
        let flat = FlatIndex::from_index(&idx);
        for s in 0..3u32 {
            for t in 0..3u32 {
                assert_eq!(flat.query(s, t), idx.query(s, t), "{s}->{t}");
            }
        }
        assert_eq!(flat.total_entries(), idx.total_entries());
        // Served in place: resident is the image, nothing else.
        let mut image = Vec::new();
        idx.write_hopidx(&mut image).unwrap();
        assert_eq!(flat.resident_bytes(), image.len());
        for v in 0..3u32 {
            assert_eq!(flat.out_label_len(v), idx.source_labels(v).len());
            assert_eq!(flat.in_label_len(v), idx.target_labels(v).len());
        }
    }

    #[test]
    fn skewed_labels_match_the_nested_join() {
        // A long label (hub) against short ones, both spanning the hub
        // word and the tail, on either side of each other's vertex:
        // answers must agree with the nested join.
        let long: Vec<LabelEntry> = (0..400).map(|p| LabelEntry::new(3 * p, p + 1)).collect();
        for short_len in [1usize, 2, 5, 24] {
            let short: Vec<LabelEntry> =
                (0..short_len as u32).map(|p| LabelEntry::new(6 * p, 2 * p + 3)).collect();
            for (l, s) in [(1_200, 1_201), (1_201, 1_200), (1_200, 150)] {
                let mut idx = LabelIndex::new(1_202, false);
                let cut = |entries: &[LabelEntry], v: u32| {
                    let below = entries.iter().filter(|e| e.pivot < v).copied();
                    VertexLabels::from_entries(below.chain([LabelEntry::trivial(v)]).collect())
                };
                idx.sides_mut()[0][l as usize] = cut(&long, l);
                idx.sides_mut()[0][s as usize] = cut(&short, s);
                let flat = FlatIndex::from_index(&idx);
                assert_eq!(flat.query(l, s), idx.query(l, s), "short_len {short_len}");
                assert_eq!(flat.query(s, l), idx.query(s, l), "short_len {short_len}");
            }
        }
    }

    #[test]
    fn disjoint_and_past_the_end_pivots_are_unreachable() {
        let mut idx = LabelIndex::new(2_002, false);
        idx.sides_mut()[0][2_000] =
            VertexLabels::from_entries((0..200).map(|p| LabelEntry::new(2 * p, 1)).collect());
        // Odd pivots only, one far past the long side's last pivot.
        idx.sides_mut()[0][2_001] = VertexLabels::from_entries(vec![
            LabelEntry::new(1, 1),
            LabelEntry::new(7, 1),
            LabelEntry::new(1_999, 1),
        ]);
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.query(2_000, 2_001), INF_DIST);
    }

    #[test]
    fn large_distances_and_saturating_sums_stay_exact() {
        // Distances near u32 bounds: sums clamp to unreachable exactly
        // like the nested join's saturating add.
        let mut idx = LabelIndex::new(3, false);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 123_456_789));
        idx.sides_mut()[0][2].insert_min(LabelEntry::new(0, INF_DIST - 1));
        let flat = FlatIndex::from_index(&idx);
        for s in 0..3u32 {
            for t in 0..3u32 {
                assert_eq!(flat.query(s, t), idx.query(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn self_query_short_circuits_even_for_empty_labels() {
        let idx = LabelIndex::new(2, false);
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.query(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn an_out_of_range_self_query_panics_like_any_other() {
        let flat = FlatIndex::from_index(&LabelIndex::new(2, false));
        flat.query(2 + 5, 2 + 5);
    }

    #[test]
    fn query_many_matches_query_in_input_order() {
        let idx = directed_example();
        let flat = FlatIndex::from_index(&idx);
        let pairs: Vec<(u32, u32)> = (0..4).flat_map(|s| (0..4).map(move |t| (s, t))).collect();
        let expect: Vec<Dist> = pairs.iter().map(|&(s, t)| flat.query(s, t)).collect();
        for threads in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(flat.query_many(&pairs, threads), expect, "threads {threads}");
        }
        assert_eq!(flat.query_many(&[], 4), Vec::<Dist>::new());
        assert_eq!(flat.query_many(&[(1, 2)], 4), vec![2]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "temp files; Miri runs isolated")]
    fn hopidx_roundtrip_directed_and_undirected() {
        use extmem::device::TempStore;
        let store = TempStore::new().unwrap();
        for idx in [directed_example(), {
            let mut u = LabelIndex::new(3, false);
            u.sides_mut()[0][1].insert_min(LabelEntry::new(0, 2));
            u
        }] {
            let disk = crate::disk::DiskIndex::create(&idx, &store, "flat-rt").unwrap();
            let path = disk.persist();
            let flat = FlatIndex::load(&path).unwrap();
            assert_eq!(flat, FlatIndex::from_index(&idx));
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn from_hopidx_bytes_rejects_garbage_and_truncation() {
        assert!(FlatIndex::from_hopidx_bytes(b"junk").is_err());
        // A valid magic with an absurd vertex count must fail cleanly
        // (no overflow panic, no giant allocation).
        for bogus_n in [u64::MAX, 1 << 61, 1 << 40] {
            let mut crafted = Vec::new();
            crafted.extend_from_slice(b"HOPIDX04");
            crafted.extend_from_slice(&[1, 8, 0, 0, 0]);
            crafted.extend_from_slice(&bogus_n.to_le_bytes());
            crafted.extend_from_slice(&[0u8; 16]);
            assert!(FlatIndex::from_hopidx_bytes(&crafted).is_err(), "n = {bogus_n}");
        }
        let mut bytes = Vec::new();
        directed_example().write_hopidx(&mut bytes).unwrap();
        assert!(FlatIndex::from_hopidx_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
