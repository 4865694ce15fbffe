//! `FlatIndex` — a frozen, read-optimized struct-of-arrays label index.
//!
//! [`crate::index::LabelIndex`] is the *construction* representation:
//! one `Vec<LabelEntry>` per vertex, resizable because the engines keep
//! inserting and pruning. Once building is done, that layout pays for
//! its flexibility on every query: a pointer chase per label, an enum
//! dispatch per side, bounds checks in the join loop, and an
//! array-of-structs stride that drags the distance halves of entries
//! through the cache while the merge only compares pivots.
//!
//! `FlatIndex` freezes a finished index into CSR form (Akiba et al.'s
//! Pruned Landmark Labeling uses the same family of tricks to run
//! hub-label queries at memory bandwidth): a `u32` offset directory
//! per direction over one contiguous `data` array in which every
//! vertex's run stores its pivots first, then its dists —
//!
//! ```text
//! offsets: [o_0, o_1, …, o_n]
//! data:    [ …pivots(0)…, ⊥…, …dists(0)…, ∞…,  …pivots(1)…, ⊥…, … ]
//! ```
//!
//! Each pivot half is padded with [`SENTINEL`] (`u32::MAX`, never a
//! real vertex id) to a whole number of 4-lane SIMD blocks, the dist
//! half mirrors it with `INF_DIST`. That buys the hot join three
//! things: the block loop needs no slice-length checks (a sentinel can
//! only "match" another sentinel, and such a sum clamps back to
//! unreachable), it consumes any label in full blocks without ever
//! touching a neighbouring label, and a query side is one sequential
//! memory stream — the winning match's distance sits a couple of cache
//! lines behind the pivots being scanned instead of in a second random
//! array.
//!
//! The join itself is *adaptive*: balanced labels take the SIMD block
//! merge (all 16 lane pairs per block pair via four lane rotations,
//! advance the block with the smaller maximum), while heavily skewed
//! pairs (a tail vertex against a hub — the common case on scale-free
//! graphs) switch to galloping probes of the small side into the large
//! one.
//!
//! Throughput workloads go through [`FlatIndex::query_many`], which
//! shards a pair slice across scoped threads; the index is immutable,
//! so serving parallelises embarrassingly and results come back in
//! input order.

use std::path::Path;

use sfgraph::{Dist, VertexId, INF_DIST};

use crate::index::LabelIndex;

/// Label terminator stored after every per-vertex run in the pivot
/// array. `u32::MAX` is never a valid vertex id (graphs use dense ids
/// `0..n` with `n < u32::MAX`), so a sentinel compare can never collide
/// with a real pivot.
pub const SENTINEL: VertexId = VertexId::MAX;

/// When one label is at least this many times longer than the other,
/// the adaptive join abandons the linear merge and gallops the short
/// side into the long one. Below this ratio the merge's sequential
/// prefetch wins; above it, `short · log(long)` probes beat
/// `short + long` steps.
pub const GALLOP_RATIO: usize = 16;

/// One direction's labels: a CSR offset directory over one contiguous
/// `data` array holding, per vertex, the pivot run followed by the
/// matching dist run (each padded to whole 4-slot blocks):
///
/// ```text
/// offsets: [o_0, o_1, …, o_n]                       (u32 word offsets)
/// data:    [ …pivots(0)…,⊥pad, …dists(0)…,∞pad, …pivots(1)…, … ]
/// ```
///
/// Keeping a label's dists directly behind its pivots makes a query
/// side a *single* sequential memory stream: the rare match's distance
/// lookup lands a few cache lines after the pivots being scanned
/// instead of in a second random location.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct FlatSide {
    /// `offsets[v]..offsets[v + 1]` is vertex `v`'s run in `data`;
    /// pivots first, then the dist block.
    offsets: Vec<u32>,
    data: Vec<u32>,
    /// Real entries stored (sentinel padding excluded).
    entries: usize,
    /// Scratch for the label currently being built.
    cur_pivots: Vec<VertexId>,
    cur_dists: Vec<Dist>,
}

impl FlatSide {
    fn with_capacity(n: usize, entries: usize) -> FlatSide {
        FlatSide {
            offsets: Vec::with_capacity(n + 1),
            data: Vec::with_capacity(2 * entries + 8 * n),
            entries: 0,
            cur_pivots: Vec::new(),
            cur_dists: Vec::new(),
        }
    }

    /// Begin the run of the next vertex.
    fn begin_label(&mut self) {
        debug_assert!(self.cur_pivots.is_empty(), "previous label not ended");
        self.offsets.push(word_offset(self.data.len()));
    }

    fn push(&mut self, pivot: VertexId, dist: Dist) {
        self.cur_pivots.push(pivot);
        self.cur_dists.push(dist);
        self.entries += 1;
    }

    /// Terminate the current vertex's run: pad the pivot block with at
    /// least one sentinel up to a whole number of 4-slot blocks (so the
    /// SIMD join consumes any run in full blocks without ever reading a
    /// neighbouring label), pad the dist block to match, and flush both
    /// behind each other into `data`.
    fn end_label(&mut self) {
        loop {
            self.cur_pivots.push(SENTINEL);
            self.cur_dists.push(INF_DIST);
            if self.cur_pivots.len().is_multiple_of(4) {
                break;
            }
        }
        self.data.extend_from_slice(&self.cur_pivots);
        self.data.extend_from_slice(&self.cur_dists);
        self.cur_pivots.clear();
        self.cur_dists.clear();
    }

    fn finish(&mut self) {
        self.offsets.push(word_offset(self.data.len()));
        self.offsets.shrink_to_fit();
        self.data.shrink_to_fit();
        // Drop the build scratch entirely — the frozen side must not
        // keep a hub-label's worth of dead capacity alive for the
        // lifetime of a serving index.
        self.cur_pivots = Vec::new();
        self.cur_dists = Vec::new();
    }

    /// The sentinel-padded pivot run of `v` (the first half of the
    /// run; the dist block mirrors it in the second half).
    #[inline]
    fn pivots_of(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.data[lo..lo + (hi - lo) / 2]
    }

    /// The sentinel-padded run of `v` as a pivot slice plus a dist
    /// accessor, without bounds checks on the offset directory or the
    /// data array.
    ///
    /// # Safety
    /// `v < n` (the directory has `n + 1` slots) — [`FlatIndex::query`]
    /// asserts this once per query instead of paying four slice checks.
    /// The offsets themselves are trusted: construction appends them
    /// monotonically up to the final array length.
    #[inline]
    unsafe fn label_unchecked(&self, v: VertexId) -> (&[VertexId], &[Dist]) {
        let lo = *self.offsets.get_unchecked(v as usize) as usize;
        let hi = *self.offsets.get_unchecked(v as usize + 1) as usize;
        let half = (hi - lo) / 2;
        let base = self.data.as_ptr().add(lo);
        (std::slice::from_raw_parts(base, half), std::slice::from_raw_parts(base.add(half), half))
    }

    /// Number of real entries of `v` (sentinel padding excluded).
    fn len(&self, v: VertexId) -> usize {
        let pivots = self.pivots_of(v);
        let mut hi = pivots.len();
        while hi > 0 && pivots[hi - 1] == SENTINEL {
            hi -= 1;
        }
        hi
    }

    fn resident_bytes(&self) -> usize {
        (self.offsets.len() + self.data.len()) * std::mem::size_of::<u32>()
    }
}

/// Offsets are stored as `u32` words to halve the directory's cache
/// footprint; a label `data` array would need to exceed 16 GiB before
/// this overflows, at which point construction fails loudly.
fn word_offset(len: usize) -> u32 {
    u32::try_from(len).expect("FlatIndex data exceeds u32 offsets (> 4 Gi words)")
}

/// A frozen, query-only 2-hop label index in flat SoA/CSR layout.
///
/// Built from a finished [`LabelIndex`] with [`FlatIndex::from_index`],
/// or loaded straight from the serialized `HOPIDX01` on-disk format
/// with [`FlatIndex::from_hopidx_bytes`] / [`FlatIndex::load`] without
/// materialising the nested representation first.
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
    directed: bool,
    n: usize,
    /// `Lout` for directed graphs, the single `L` otherwise.
    out: FlatSide,
    /// `Lin` for directed graphs; empty for undirected.
    inn: FlatSide,
}

impl FlatIndex {
    /// Freeze a finished nested index into the flat layout.
    pub fn from_index(index: &LabelIndex) -> FlatIndex {
        let n = index.num_vertices();
        let flatten = |labels: &[crate::index::VertexLabels]| {
            let entries = labels.iter().map(|l| l.len()).sum();
            let mut side = FlatSide::with_capacity(labels.len(), entries);
            for l in labels {
                side.begin_label();
                for e in l.entries() {
                    side.push(e.pivot, e.dist);
                }
                side.end_label();
            }
            side.finish();
            side
        };
        match index {
            LabelIndex::Directed(d) => FlatIndex {
                directed: true,
                n,
                out: flatten(&d.out_labels),
                inn: flatten(&d.in_labels),
            },
            LabelIndex::Undirected(u) => {
                FlatIndex { directed: false, n, out: flatten(&u.labels), inn: FlatSide::default() }
            }
        }
    }

    /// Parse a serialized `HOPIDX01` index (the format written by
    /// [`LabelIndex::write_hopidx`], hence by `hopdb-cli build`)
    /// straight into the flat layout — one pass over the byte image, no
    /// intermediate [`LabelIndex`] or per-vertex allocations, so a
    /// server can load its serving index directly.
    pub fn from_hopidx_bytes(bytes: &[u8]) -> std::io::Result<FlatIndex> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let header = crate::disk::HopIdxHeader::parse(bytes)?;
        // Exact, not `>=`: a trailing-garbage image is as untrustworthy
        // as a truncated one — refuse to serve from it.
        if bytes.len() != header.expected_len() {
            return Err(bad("index image length does not match its header"));
        }
        let n = header.n;

        let side_of = |entry_base: usize, offsets: &[u64]| -> std::io::Result<FlatSide> {
            let total = *offsets.last().unwrap_or(&0) as usize;
            // Saturating: a crafted entry count that overflows simply
            // fails the length check instead of wrapping past it.
            let need = total.saturating_mul(8).saturating_add(entry_base);
            if bytes.len() < need {
                return Err(bad("truncated index file"));
            }
            let mut side = FlatSide::with_capacity(n, total);
            for v in 0..n {
                side.begin_label();
                let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                for at in (entry_base + lo * 8..entry_base + hi * 8).step_by(8) {
                    let pivot = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                    let dist = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
                    side.push(pivot, dist);
                }
                side.end_label();
            }
            side.finish();
            Ok(side)
        };

        let out = side_of(header.out_base, &header.out_offsets)?;
        let inn = if header.directed {
            side_of(header.in_base, &header.in_offsets)?
        } else {
            FlatSide::default()
        };
        Ok(FlatIndex { directed: header.directed, n, out, inn })
    }

    /// Load a serialized `HOPIDX01` index file into the flat layout.
    pub fn load(path: &Path) -> std::io::Result<FlatIndex> {
        FlatIndex::from_hopidx_bytes(&std::fs::read(path)?)
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Whether this is a directed index (separate `Lin`/`Lout`).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Total number of real label entries (sentinel padding excluded).
    pub fn total_entries(&self) -> usize {
        self.out.entries + self.inn.entries
    }

    /// Bytes of raw label entries, 8 bytes per `(pivot, dist)` pair —
    /// comparable with [`LabelIndex::entry_bytes`].
    pub fn entry_bytes(&self) -> usize {
        self.total_entries() * 8
    }

    /// Bytes this structure actually holds resident: entry arrays,
    /// sentinel slots, and the offset directories.
    pub fn resident_bytes(&self) -> usize {
        self.out.resident_bytes() + self.inn.resident_bytes()
    }

    /// Entry count of the source-side label of `v` (`Lout`/`L`).
    #[inline]
    pub fn out_label_len(&self, v: VertexId) -> usize {
        self.out.len(v)
    }

    /// Entry count of the target-side label of `v` (`Lin`/`L`).
    #[inline]
    pub fn in_label_len(&self, v: VertexId) -> usize {
        if self.directed {
            self.inn.len(v)
        } else {
            self.out.len(v)
        }
    }

    /// Exact distance query `dist(s, t)`; [`INF_DIST`] when
    /// unreachable. Vertex ids are rank positions, exactly as in
    /// [`LabelIndex::query`].
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return 0;
        }
        assert!((s as usize) < self.n && (t as usize) < self.n, "vertex out of range");
        // SAFETY: both ids were just range-checked against `n`.
        let ((sp, sd), (tp, td)) = unsafe {
            (
                self.out.label_unchecked(s),
                if self.directed {
                    self.inn.label_unchecked(t)
                } else {
                    self.out.label_unchecked(t)
                },
            )
        };
        join_adaptive(sp, sd, tp, td)
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

/// Adaptive join over two sentinel-padded SoA labels: SIMD block merge
/// for comparable sizes, galloping probes when one side dwarfs the
/// other (ratio >= [`GALLOP_RATIO`]).
#[inline]
fn join_adaptive(ap: &[VertexId], ad: &[Dist], bp: &[VertexId], bd: &[Dist]) -> Dist {
    // Padded run lengths (multiples of 4, sentinels included) — close
    // enough to the real sizes for the skew heuristic.
    let (la, lb) = (ap.len(), bp.len());
    let best = if la * GALLOP_RATIO < lb {
        join_gallop(ap, ad, bp, bd)
    } else if lb * GALLOP_RATIO < la {
        join_gallop(bp, bd, ap, ad)
    } else {
        #[cfg(target_arch = "x86_64")]
        {
            join_blocks(ap, ad, bp, bd)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            join_linear(ap, ad, bp, bd)
        }
    };
    if best >= INF_DIST as u64 {
        INF_DIST
    } else {
        best as Dist
    }
}

/// The balanced join as one uniform SIMD loop: compare the runs in
/// 4-wide blocks (every pair of lanes via four lane rotations of the
/// b-block), then advance the block whose maximum is smaller — the
/// standard block-merge intersection. Runs are padded to whole 4-slot
/// blocks, so the loop needs no scalar tail: the final block of a label
/// is part sentinel, compares harmlessly (a sentinel lane can only
/// "match" another sentinel, and that sum clamps to unreachable), and
/// an all-sentinel leading lane ends the join early — the other side
/// can no longer find a partner. Returns the best `u64` sum; the
/// caller clamps to [`INF_DIST`].
#[cfg(target_arch = "x86_64")]
#[inline]
fn join_blocks(ap: &[VertexId], ad: &[Dist], bp: &[VertexId], bd: &[Dist]) -> u64 {
    use core::arch::x86_64::*;
    let (la, lb) = (ap.len(), bp.len());
    debug_assert!(la % 4 == 0 && lb % 4 == 0 && la >= 4 && lb >= 4);
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = u64::MAX;
    // SAFETY: `i`/`j` advance in steps of 4 from 0 and the loop guard
    // keeps `i < la` / `j < lb`; the run lengths are multiples of 4, so
    // every 16-byte block load and every lane access below stays inside
    // the run. SSE2 is part of the x86_64 baseline.
    unsafe {
        // Matches cluster at the front of the runs (the top-ranked
        // pivots that cover nearly every label sort first), and their
        // distance loads hit a *different* array after the pivot scan —
        // start those lines now so the sums don't stall on a late miss.
        _mm_prefetch(ad.as_ptr() as *const i8, _MM_HINT_T0);
        _mm_prefetch(bd.as_ptr() as *const i8, _MM_HINT_T0);
        while i < la && j < lb {
            // Lookahead hints: the next block loads sit behind the
            // advance decision, so hinting one cache line ahead from
            // the already-known positions keeps upcoming misses in
            // flight. The addresses may run past the label (or the
            // whole array) — prefetch never faults, the hint is simply
            // discarded.
            _mm_prefetch(ap.as_ptr().wrapping_add(i + 16) as *const i8, _MM_HINT_T0);
            _mm_prefetch(bp.as_ptr().wrapping_add(j + 16) as *const i8, _MM_HINT_T0);
            let va = _mm_loadu_si128(ap.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(bp.as_ptr().add(j) as *const __m128i);
            // Rotate b's lanes so every (a-lane, b-lane) pair is
            // checked for equality once: rotation r puts b[(l + r) % 4]
            // against a[l].
            let m0 = _mm_cmpeq_epi32(va, vb);
            let m1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
            let m2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
            let m3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
            let any = _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3));
            if _mm_movemask_epi8(any) != 0 {
                // Common pivots are rare; decode lane hits only now.
                for (r, m) in [(0usize, m0), (1, m1), (2, m2), (3, m3)] {
                    let mut mask = _mm_movemask_ps(_mm_castsi128_ps(m)) as u32;
                    while mask != 0 {
                        let l = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let d = *ad.get_unchecked(i + l) as u64
                            + *bd.get_unchecked(j + (l + r) % 4) as u64;
                        best = best.min(d);
                    }
                }
            }
            // A block whose first lane is already the sentinel holds no
            // real entries — that side is exhausted, nothing further on
            // the other side can match. Lane 0 is read out of the
            // vectors already in registers. (Predictable: taken once.)
            let (a0, b0) = (_mm_cvtsi128_si32(va) as u32, _mm_cvtsi128_si32(vb) as u32);
            if a0 == SENTINEL || b0 == SENTINEL {
                break;
            }
            let (a3, b3) = (*ap.get_unchecked(i + 3), *bp.get_unchecked(j + 3));
            // Flag-based advance (conditional increments, no three-way
            // branch): on real query mixes the advance direction is
            // close to random, and a branch here would mispredict every
            // other block at ~15–20 cycles a flush; the lookahead
            // prefetches above keep the next lines in flight despite
            // the data dependency this creates.
            i += ((a3 <= b3) as usize) << 2;
            j += ((b3 <= a3) as usize) << 2;
        }
    }
    best
}

/// Scalar fallback for the balanced join on targets without the SIMD
/// kernel: a sentinel-terminated two-pointer merge. Returns the best
/// sum as a `u64` — the caller clamps to [`INF_DIST`] so sentinel
/// self-matches (`INF + INF`) collapse to "unreachable".
///
/// The loop carries no slice-length checks: an index advances only
/// while its pivot is <= the other side's pivot, and [`SENTINEL`] is
/// the maximum `u32` closing every run, so neither index can move past
/// its final sentinel slot — and the loop stops as soon as *either*
/// side reaches a sentinel, because the remaining pivots of the other
/// side can no longer find a partner.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline]
fn join_linear(ap: &[VertexId], ad: &[Dist], bp: &[VertexId], bd: &[Dist]) -> u64 {
    debug_assert_eq!(ap.last(), Some(&SENTINEL));
    debug_assert_eq!(bp.last(), Some(&SENTINEL));
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = u64::MAX;
    // SAFETY: `i` advances only when `pa <= pb` and `j` only when
    // `pb <= pa`; SENTINEL is the maximum `u32` and closes both runs
    // (asserted above), so once an index reaches a sentinel slot the
    // loop condition fails before the index can advance past the run —
    // every access stays in bounds.
    unsafe {
        let (mut pa, mut pb) = (*ap.get_unchecked(0), *bp.get_unchecked(0));
        // Branch-lean merge body: the pointer stepping is a pair of
        // flag-based increments (conditional moves, not a three-way
        // branch that would mispredict nearly every step at ~15-20
        // cycles a miss). The only data-dependent branch left is the
        // pivot match, which is rare and overwhelmingly predicted
        // not-taken — and guarding the distance loads behind it keeps
        // cold queries from dragging both `dists` arrays through the
        // cache when no pivot is shared.
        while pa != SENTINEL && pb != SENTINEL {
            if pa == pb {
                let d = *ad.get_unchecked(i) as u64 + *bd.get_unchecked(j) as u64;
                best = best.min(d);
            }
            i += (pa <= pb) as usize;
            j += (pb <= pa) as usize;
            pa = *ap.get_unchecked(i);
            pb = *bp.get_unchecked(j);
        }
    }
    best
}

/// Galloping join: for each entry of the short side, exponential-probe
/// then binary-search the long side. `short` and `long` are
/// sentinel-padded; the gallop front only moves forward, so the whole
/// join costs `O(|short| · log |long|)`. Returns the best `u64` sum;
/// the caller clamps to [`INF_DIST`].
fn join_gallop(
    short_p: &[VertexId],
    short_d: &[Dist],
    long_p: &[VertexId],
    long_d: &[Dist],
) -> u64 {
    let mut best = u64::MAX;
    let mut lo = 0usize; // long side is consumed monotonically
    let long_len = long_p.len() - 1; // exclude the final sentinel
    for (i, &p) in short_p[..short_p.len() - 1].iter().enumerate() {
        if p == SENTINEL {
            break; // sentinel padding: the short side is exhausted
        }
        // Exponential probe for the window containing `p`.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long_len && long_p[hi] < p {
            lo = hi;
            hi = (hi + step).min(long_len);
            step <<= 1;
        }
        // Binary search in [lo, hi].
        let found = long_p[lo..hi.min(long_len)].partition_point(|&q| q < p) + lo;
        if found >= long_len {
            break; // every remaining short pivot exceeds the long side
        }
        lo = found;
        if long_p[found] == p {
            let d = short_d[i] as u64 + long_d[found] as u64;
            best = best.min(d);
            lo = found + 1;
        }
    }
    best
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
        assert_eq!(flat.entry_bytes(), idx.entry_bytes());
        assert!(flat.resident_bytes() > flat.entry_bytes());
    }

    #[test]
    fn gallop_matches_linear_on_skewed_labels() {
        // A long label (hub) against short ones: below and above the
        // gallop ratio, answers must agree with the nested join.
        let long: Vec<LabelEntry> = (0..400).map(|p| LabelEntry::new(3 * p, p + 1)).collect();
        for short_len in [1usize, 2, 5, 24] {
            let short: Vec<LabelEntry> =
                (0..short_len as u32).map(|p| LabelEntry::new(6 * p, 2 * p + 3)).collect();
            let mut idx = LabelIndex::new_undirected(2);
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
    fn gallop_handles_disjoint_and_past_the_end_pivots() {
        let mut idx = LabelIndex::new_undirected(2);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[0] =
                VertexLabels::from_entries((0..200).map(|p| LabelEntry::new(2 * p, 1)).collect());
            // Odd pivots only, one far past the long side's last pivot.
            u.labels[1] = VertexLabels::from_entries(vec![
                LabelEntry::new(1, 1),
                LabelEntry::new(7, 1),
                LabelEntry::new(1_000_001, 1),
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
            crafted.extend_from_slice(b"HOPIDX01");
            crafted.extend_from_slice(&[1, 0, 0, 0]);
            crafted.extend_from_slice(&bogus_n.to_le_bytes());
            crafted.extend_from_slice(&[0u8; 16]);
            assert!(FlatIndex::from_hopidx_bytes(&crafted).is_err(), "n = {bogus_n}");
        }
        let mut bytes = Vec::new();
        directed_example().write_hopidx(&mut bytes).unwrap();
        assert!(FlatIndex::from_hopidx_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
