//! `FlatIndex` — the frozen read path: a validated `HOPIDX02` image,
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
//! top-ranked pivots are one `u64` with a fixed-width distance per set
//! bit, so the join over them is `hubs(s) & hubs(t)` and a
//! `popcount`-ranked distance lookup per common bit; the rest is a
//! varint tail, merged by one portable two-pointer loop. The per-entry
//! loops read label bytes without bounds checks; [`crate::image`]'s
//! validator, which every constructor runs, is what makes that sound.
//! The record rule is [`crate::index::resolve`]'s: a query hands it the
//! slots, a record decoded in place and this byte join.
//!
//! [`FlatIndex::query_many`] shards a pair slice across scoped threads;
//! the index is immutable, so serving parallelises embarrassingly and
//! results come back in input order.
#![allow(unsafe_code)]

use std::path::Path;

use sfgraph::{Dist, VertexId, INF_DIST};

use crate::image::{self, Layout};
use crate::index::{resolve, LabelIndex, Record, NO_PARENT, RECORD_PAIRS};

/// A frozen, query-only 2-hop label index: the bytes of a `HOPIDX02`
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
/// let mut idx = LabelIndex::new_undirected(3);
/// if let LabelIndex::Undirected(u) = &mut idx {
///     u.labels[1].insert_min(LabelEntry::new(0, 2));
///     u.labels[2].insert_min(LabelEntry::new(0, 5));
/// }
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
    /// If [`LabelIndex::write_hopidx`] refuses the index: a pivot that
    /// is not a vertex id, or a side past the 4 GiB offset range.
    pub fn from_index(index: &LabelIndex) -> FlatIndex {
        let mut image = Vec::new();
        index.write_hopidx(&mut image).expect("a finished index is writable as HOPIDX02");
        FlatIndex::from_image(image).expect("the writer's image passes its own validator")
    }

    /// Validate `bytes` as a `HOPIDX02` image (the format written by
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

    /// The encoded label of `v` on `side` (0 = `Lout`/`L`, 1 = `Lin`,
    /// which an undirected layout aliases to side 0).
    #[inline]
    fn label(&self, side: usize, v: VertexId) -> &[u8] {
        self.layout.label(&self.image, side, v as usize).expect("validated directory")
    }

    /// Entry count of the source-side label of `v` (`Lout`/`L`).
    pub fn out_label_len(&self, v: VertexId) -> usize {
        label_len(self.label(0, v), self.layout.header.width)
    }

    /// Entry count of the target-side label of `v` (`Lin`/`L`).
    pub fn in_label_len(&self, v: VertexId) -> usize {
        label_len(self.label(1, v), self.layout.header.width)
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
        let n = self.layout.header.n;
        assert!((s as usize) < n && (t as usize) < n, "vertex out of range");
        let width = self.layout.header.width;
        let record = |slot: &&[u8]| {
            // Only an image with records has slots of 1–7 bytes.
            if !image::is_record(slot) {
                return None;
            }
            let (mut pairs, mut at) = ([(NO_PARENT, 0); RECORD_PAIRS], 0);
            // `resolve` hands this only slots of `self.image`, and
            // validation read this one as a record: one or two pairs of
            // complete varints of at most 5 bytes and 32 bits each,
            // filling it exactly.
            for pair in &mut pairs {
                if at == slot.len() {
                    break;
                }
                // SAFETY: `at` is at the start of a pair (above).
                *pair = unsafe { (varint(slot, &mut at), varint(slot, &mut at)) };
            }
            Some(Record::from_array(pairs))
        };
        let join = |a: &&[u8], b: &&[u8]| {
            // SAFETY: `resolve` joins only slots of `self.image` that
            // `record` did not read as a record (validation: a record's
            // parents hold labels), so whole labels `image::validate`
            // accepted at this `width` before `self` existed; nothing has
            // written since.
            let sum = unsafe { join(a, b, width) };
            sum.min(INF_DIST.into()) as Dist
        };
        let slot = |v, target_side| Ok(self.label(target_side as usize, v));
        resolve(s, t, slot, record, join).expect("a validated image's records name labels")
    }

    /// Answer a batch of `(s, t)` pairs, sharding the slice across up
    /// to `threads` scoped workers (`0` = all cores). Results are
    /// returned in input order; each pair's answer is bit-identical to
    /// [`FlatIndex::query`] on the same pair.
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
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        let base = out.len();
        out.resize(base + pairs.len(), INF_DIST);
        let results = &mut out[base..];
        if threads <= 1 || pairs.len() < 2 {
            for (r, &(s, t)) in results.iter_mut().zip(pairs) {
                *r = self.query(s, t);
            }
            return;
        }
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (pair_chunk, result_chunk) in pairs.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (r, &(s, t)) in result_chunk.iter_mut().zip(pair_chunk) {
                        *r = self.query(s, t);
                    }
                });
            }
        });
    }
}

/// Entries of one validated label: a hub per set bit, and a tail entry
/// per two varints — a varint ends at its one byte below `0x80`.
fn label_len(label: &[u8], width: usize) -> usize {
    let Some((hubs, rest)) = label.split_first_chunk::<8>() else { return 0 };
    let hubs = u64::from_le_bytes(*hubs).count_ones() as usize;
    let tail = rest.get(hubs * width..).unwrap_or(&[]);
    hubs + tail.iter().filter(|&&b| b < 0x80).count() / 2
}

/// Minimum `d(s, p) + d(p, t)` over the pivots `p` two encoded labels
/// share; `u64::MAX` when they share none.
///
/// # Safety
/// `a` and `b` must each be a whole label that [`image::validate`]
/// accepted at this `width`.
#[inline]
unsafe fn join(a: &[u8], b: &[u8], width: usize) -> u64 {
    // An empty label is zero bytes; any other starts with its hub word.
    let (Some(ha), Some(hb)) = (a.first_chunk::<8>(), b.first_chunk::<8>()) else {
        return u64::MAX;
    };
    let (ha, hb) = (u64::from_le_bytes(*ha), u64::from_le_bytes(*hb));
    let mut best = u64::MAX;
    let mut common = ha & hb;
    while common != 0 {
        // A hub's distance sits at the rank of its bit among the
        // label's own set bits.
        let below = (common & common.wrapping_neg()) - 1;
        // SAFETY: the bit is set in both words, so each rank is below
        // its label's popcount.
        let (da, db) = unsafe {
            (
                hub_dist(a, (ha & below).count_ones() as usize, width),
                hub_dist(b, (hb & below).count_ones() as usize, width),
            )
        };
        best = best.min(da + db);
        common &= common - 1;
    }
    let mut ta = Tail::after_hubs(a, ha, width);
    let mut tb = Tail::after_hubs(b, hb, width);
    // SAFETY: both cursors are where `after_hubs` put them in a
    // validated label.
    if unsafe { !ta.next() || !tb.next() } {
        return best;
    }
    loop {
        let (step_a, step_b) = (ta.pivot <= tb.pivot, tb.pivot <= ta.pivot);
        if step_a && step_b {
            best = best.min(ta.dist as u64 + tb.dist as u64);
        }
        // Either tail running out ends the join: what is left on the
        // other side has no partner.
        // SAFETY: only `next` has moved either cursor since `after_hubs`.
        if unsafe { (step_a && !ta.next()) || (step_b && !tb.next()) } {
            return best;
        }
    }
}

/// The hub distance of rank `rank` in `label`.
///
/// # Safety
/// `label` is a validated label at `width` and `rank` is below the
/// popcount of its hub word.
#[inline(always)]
unsafe fn hub_dist(label: &[u8], rank: usize, width: usize) -> u64 {
    // SAFETY: validation's `8 + width · popcount(hubs) ≤ len` puts all
    // `width` bytes of every rank below the popcount inside `label`;
    // byte arrays have alignment 1.
    unsafe {
        let at = label.as_ptr().add(8 + rank * width);
        match width {
            1 => at.read() as u64,
            2 => u16::from_le_bytes(at.cast::<[u8; 2]>().read()) as u64,
            _ => u32::from_le_bytes(at.cast::<[u8; 4]>().read()) as u64,
        }
    }
}

/// A cursor over the varint tail of one validated label.
struct Tail<'a> {
    label: &'a [u8],
    at: usize,
    pivot: VertexId,
    dist: Dist,
}

impl Tail<'_> {
    /// Before the first tail entry of `label`, whose hub word is `hubs`.
    #[inline(always)]
    fn after_hubs(label: &[u8], hubs: u64, width: usize) -> Tail<'_> {
        Tail { label, at: 8 + width * hubs.count_ones() as usize, pivot: image::HUBS - 1, dist: 0 }
    }

    /// Step to the next entry; `false` at the label's end.
    ///
    /// # Safety
    /// `label` is a validated label and `at` is where
    /// [`Tail::after_hubs`] or an earlier `next` left it.
    #[inline(always)]
    unsafe fn next(&mut self) -> bool {
        // Validation's "the tail is whole `(gap, dist)` pairs ending
        // exactly at the label's end" makes this the only end test:
        // `at` is at an entry boundary, so it is either the end or the
        // first byte of a complete pair.
        if self.at == self.label.len() {
            return false;
        }
        // SAFETY: a complete pair starts at `at` (above). The pivot
        // cannot overflow: validation summed it in 64 bits to below n.
        unsafe {
            self.pivot += 1 + varint(self.label, &mut self.at);
            self.dist = varint(self.label, &mut self.at);
        }
        true
    }
}

/// One varint of `label` at `*at`, advancing `at`.
///
/// # Safety
/// A complete varint of at most 5 bytes and 32 bits starts at `at`.
#[inline(always)]
unsafe fn varint(label: &[u8], at: &mut usize) -> u32 {
    let (mut v, mut shift) = (0u32, 0u32);
    loop {
        // SAFETY: validation's "every varint is complete inside its
        // label" keeps `at` in bounds until the byte below 0x80 that
        // ends this one; "at most 5 bytes" keeps `shift` at or below 28.
        let b = unsafe { *label.get_unchecked(*at) };
        *at += 1;
        v |= u32::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Every entry of one label, read the way [`join`] reads it.
///
/// # Safety
/// `label` must be a whole label that [`image::validate`] (or its
/// per-label half, `image::walk_label`) accepted at this `width`.
#[cfg(test)]
pub(crate) unsafe fn decode_in_place(label: &[u8], width: usize) -> Vec<crate::LabelEntry> {
    let Some(hubs) = label.first_chunk::<8>().map(|w| u64::from_le_bytes(*w)) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let mut rest = hubs;
    while rest != 0 {
        let rank = (hubs & ((rest & rest.wrapping_neg()) - 1)).count_ones() as usize;
        // SAFETY: `rank` counts the set bits below a set bit.
        let dist = unsafe { hub_dist(label, rank, width) } as Dist;
        entries.push(crate::LabelEntry::new(rest.trailing_zeros(), dist));
        rest &= rest - 1;
    }
    let mut tail = Tail::after_hubs(label, hubs, width);
    // SAFETY: only `next` moves `tail`.
    while unsafe { tail.next() } {
        entries.push(crate::LabelEntry::new(tail.pivot, tail.dist));
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LabelEntry;
    use crate::index::{DirectedLabels, VertexLabels};

    fn directed_example() -> LabelIndex {
        // Path 1 -> 0 -> 2 plus 3 isolated.
        let mut d = DirectedLabels {
            in_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
            out_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
        };
        d.out_labels[1].insert_min(LabelEntry::new(0, 1));
        d.in_labels[2].insert_min(LabelEntry::new(0, 1));
        LabelIndex::Directed(d)
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
        let mut idx = LabelIndex::new_undirected(3);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[1].insert_min(LabelEntry::new(0, 2));
            u.labels[2].insert_min(LabelEntry::new(0, 5));
        }
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
        // word and the tail: answers must agree with the nested join.
        let long: Vec<LabelEntry> = (0..400).map(|p| LabelEntry::new(3 * p, p + 1)).collect();
        for short_len in [1usize, 2, 5, 24] {
            let short: Vec<LabelEntry> =
                (0..short_len as u32).map(|p| LabelEntry::new(6 * p, 2 * p + 3)).collect();
            let mut idx = LabelIndex::new_undirected(1_200);
            if let LabelIndex::Undirected(u) = &mut idx {
                u.labels[0] = VertexLabels::from_entries(long.clone());
                u.labels[1] = VertexLabels::from_entries(short.clone());
            }
            let flat = FlatIndex::from_index(&idx);
            assert_eq!(flat.query(0, 1), idx.query(0, 1), "short_len {short_len}");
            assert_eq!(flat.query(1, 0), idx.query(1, 0), "short_len {short_len}");
        }
    }

    #[test]
    fn disjoint_and_past_the_end_pivots_are_unreachable() {
        let mut idx = LabelIndex::new_undirected(2_000);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[0] =
                VertexLabels::from_entries((0..200).map(|p| LabelEntry::new(2 * p, 1)).collect());
            // Odd pivots only, one far past the long side's last pivot.
            u.labels[1] = VertexLabels::from_entries(vec![
                LabelEntry::new(1, 1),
                LabelEntry::new(7, 1),
                LabelEntry::new(1_999, 1),
            ]);
        }
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.query(0, 1), INF_DIST);
    }

    #[test]
    fn large_distances_and_saturating_sums_stay_exact() {
        // Distances near u32 bounds: sums clamp to unreachable exactly
        // like the nested join's saturating add.
        let mut idx = LabelIndex::new_undirected(3);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[1].insert_min(LabelEntry::new(0, 123_456_789));
            u.labels[2].insert_min(LabelEntry::new(0, INF_DIST - 1));
        }
        let flat = FlatIndex::from_index(&idx);
        for s in 0..3u32 {
            for t in 0..3u32 {
                assert_eq!(flat.query(s, t), idx.query(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn self_query_short_circuits_even_for_empty_labels() {
        let idx = LabelIndex::new_undirected(2);
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.query(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn an_out_of_range_self_query_panics_like_any_other() {
        let flat = FlatIndex::from_index(&LabelIndex::new_undirected(2));
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
            let mut u = LabelIndex::new_undirected(3);
            if let LabelIndex::Undirected(l) = &mut u {
                l.labels[1].insert_min(LabelEntry::new(0, 2));
            }
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
            crafted.extend_from_slice(b"HOPIDX02");
            crafted.extend_from_slice(&[1, 1, 0, 0]);
            crafted.extend_from_slice(&bogus_n.to_le_bytes());
            crafted.extend_from_slice(&[0u8; 16]);
            assert!(FlatIndex::from_hopidx_bytes(&crafted).is_err(), "n = {bogus_n}");
        }
        let mut bytes = Vec::new();
        directed_example().write_hopidx(&mut bytes).unwrap();
        assert!(FlatIndex::from_hopidx_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
