//! `HOPIDX04` — the one index image: what `hopdb-cli build` writes,
//! what every reader opens, and (because [`crate::flat::FlatIndex`]
//! serves the file's bytes in place) what a daemon holds resident.
//!
//! ```text
//! magic "HOPIDX04" | directed u8 | hub u8 | records u8 | shift u8 | block u8 | n u64   21 bytes
//! out directory   per block of B vertices: base u32 LE, then B × offset u16 LE
//! in  directory   the same, directed images only
//! out labels | in labels           slot v = region[dir(v)..dir(v+1)]
//! CRC-32 u32 LE                    of every byte before it
//!
//! hub, shift, block := a width in bits 0–5, their parity in bit 7:
//!                      hub bits 0–32, tail shift 0–32, B = 2^block, block 0–6
//! dir(i) := base(⌊i / B⌋) + offset(i), i = 0 … n  (n + 1 offsets, ⌊n / B⌋ + 1 bases)
//! slot   := label
//!         | record                                  only when `records` is 1
//! label  := ""                                      no stored entry: zero bytes
//!         | hubs u64 LE                             bit p set ⇔ pivot p < 64 stored
//!           popcount(hubs) × (d − 1), `hub` bits each,
//!                                                   ascending pivot order, low bits
//!                                                   first, zero bits to a byte
//!           varint((pivot − previous − 1) << shift | d − 1)*
//!                                                   pivots ≥ 64, ascending,
//!                                                   "previous" starting at 63
//! record := (varint(parent) varint(offset)){1,2}   1–7 bytes, so never a label;
//!                                                   parents ascending
//! ```
//!
//! A label of `v` stores only pivots below `v` (the rank convention:
//! each label entry's pivot outranks its vertex), every distance as `d −
//! 1`, and stands for those entries plus the self entry `(v, 0)`, which
//! it implies. One label does not: an empty slot whose other side holds
//! a record, which is a derived vertex's side without arcs (see below).
//!
//! Vertices are rank-relabeled, so the pivots below 64 are the 64
//! top-ranked vertices of the graph — the handful that Table 7 of the
//! paper shows covering most label entries (54–74 % of all entries on
//! the three benchmark graphs). For them a label spends one bit on the
//! pivot and `hub` bits on the distance. A scale-free graph's hubs are a
//! few hops from everything (the largest hub distance is 4 / 6 / 4 on the
//! three graphs hopbench builds, so 2 / 3 / 2 bits), and the writer picks
//! the width from the data: the bit length of the largest stored hub
//! value. Each label pads its hub distances to a byte. Every other entry
//! is one LEB128 varint (7 bits per byte, low group first, high bit =
//! "more") holding the pivot gap above the distance's `shift` bits,
//! where `shift` is the bit length of the image's largest stored tail
//! value (3 on all three graphs, whose largest tail distances are 6 / 7
//! / 6), picked the same way. Rank order keeps the gaps small.
//!
//! The directory is two-level: a `u32` base every `B` vertices and a
//! `u16` offset per vertex from its block's base, 2.06 bytes a vertex a
//! side at `B` = 64 where a `u32` per vertex took 4. The writer picks
//! `B` from the data like the widths: the largest power of two up to 64
//! whose blocks all span at most 65 535 bytes (the largest 64-vertex
//! block spans 3 119 bytes on the benchmark graphs), down to one vertex
//! a block, whose one offset is always 0.
//!
//! Where the bytes go, per vertex, on those graphs (`HOPIDX03` in
//! brackets):
//!
//! ```text
//!                           und-mem-read     dir-ext-read     und-mem-writes
//!  directories               2.06  (4.00)     4.13  (8.00)     2.06  (4.00)
//!  hub words                 4.74  (4.74)     4.69  (4.95)     4.80  (4.80)
//!  hub distances             3.34  (6.37)     3.93  (5.04)     3.24  (6.18)
//!  tail entries             14.91 (16.35)     4.39  (5.77)    11.50 (12.87)
//!  records                   2.16  (2.16)     2.77  (2.77)     2.09  (2.09)
//!  whole image              27.22 (33.63)    19.90 (26.53)    23.69 (29.94)
//! ```
//!
//! The self entry was the largest varint of its label (its pivot gap is
//! the label's widest); implied, it is neither stored nor decoded, and a
//! label that held nothing else (391 on `dir-ext-read`) now takes no
//! hub word either.
//!
//! 64 is a constant, not a parameter. Measured with the format
//! generalised to `W` hub words, on the three graphs hopbench builds
//! (bytes per vertex for the whole image; ns per uniform / hub pair,
//! single thread, minimum of 15 passes of 65 536 pairs). The table
//! predates derivation and the packed formats: it was measured on
//! `HOPIDX02` images without records (byte-wide hub distances, two
//! varints a tail entry), so its ordering carries over and its figures
//! do not:
//!
//! ```text
//!        bytes per vertex                  uniform / hub ns
//!  W   und-mem-read dir-ext-read und-mem-writes   und-mem-read  dir-ext-read
//!  1       62.58        65.43        54.70          209 / 39      93 / 32
//!  2       66.42        78.77        59.64          188 / 47      87 / 35
//!  4       79.06       108.92        72.96          172 / 59      80 / 40
//!  8      108.29       171.76       102.55          165 / 72     147 / 58
//! ```
//!
//! One word is the smallest image on every workload. A second word
//! buys 7–10 % on uniform pairs for 4–13 bytes a vertex and *costs*
//! 10–20 % on hub pairs (every label pays for, and every join scans, a
//! word that is mostly zeros); past two the bytes grow faster than the
//! uniform pairs gain.
//!
//! ## Records: the periphery, derived
//!
//! The builders eliminate an independent set of the vertices with one
//! or two distinct neighbours (`sfgraph::reduce`: a leaf lies on no
//! shortest path between two other vertices, and the walks through a
//! vertex with two become shortcut arcs of the core), label the rest,
//! and store each derived vertex, on each side, as a [`Record`] in its
//! own slot: per neighbour `p` it has an arc to (source side) or from
//! (target side), `p` and that arc's weight; a side with no arc is the
//! empty slot, which reaches nothing and implies no self entry (the
//! other side, with an arc, is a record). Every reader resolves exactly
//! one level, `dist(s, t) = min over pairs of off(s) + join(p(s),
//! p(t)) + off(t)` — no join when `p(s) = p(t)`, at most four joins —
//! because a parent always holds a label. The `records` byte of the flags word
//! is 1 exactly when some slot is a record. A vertex whose record would
//! not fit in 7 bytes ([`record_fits`]) is simply labelled like any
//! other vertex.
//!
//! Whole image, bytes per vertex, on the three graphs hopbench builds,
//! in the `HOPIDX03` encoding:
//!
//! ```text
//!                          und-mem-read    dir-ext-read    und-mem-writes
//!  derived leaves               0         5 981 / 12 000         0
//!  derived with two        6 514 / 16 000      2 309        3 997 / 10 000
//!  no records                 44.72           50.49           39.56
//!  leaves and two derived     33.63           26.53           29.94
//!    of which records          2.16            2.77            2.09
//! ```
//!
//! The density-4 graphs have no leaf, but every vertex with two
//! neighbours there is already apart from the others, so all of them go;
//! their two-pair records average 5.3 bytes. On `dir-ext-read` the
//! 11 449 records (1 820 of two pairs) average 2.9 bytes. The rest of the
//! saving is the labels the derived vertices no longer carry and the
//! core's labels, which shrink too. Two measured alternatives are not
//! done: peeling leaves to a fixpoint (6 125 vertices instead of 5 981 on
//! `dir-ext-read`, one point of bytes, for a parent walk in every
//! reader), and three neighbours (see `sfgraph::reduce`: 9 joins a pair,
//! and three pairs rarely fit 7 bytes).
//!
//! ## Validation, and what each rule buys the in-place reader
//!
//! `FlatIndex::query` walks label bytes with unchecked reads, so this
//! module's `validate`, which every `FlatIndex` constructor runs, is
//! total: an image that passes can never make a query read outside the
//! image, and any failure is `InvalidData`.
//!
//! * **CRC first.** Every later rule then only has to hold against
//!   bytes the writer produced or an adversary crafted, not against
//!   random corruption — which would otherwise load and answer wrong.
//! * **Each directory opens every block at offset 0, starts at 0 and
//!   never steps back, and the regions it spans plus the trailer are
//!   exactly the file.** So `region[dir(v)..dir(v + 1)]` is in bounds
//!   for every `v < n`, no byte of the file is unaccounted for, and no
//!   offset decreases or passes its block's span.
//! * **The flags word holds a hub width and a tail shift of at most 32
//!   and a block shift of at most 6, each under its parity bit.** The
//!   in-place reader's distance loads and its split of a tail varint
//!   know no other values. No single-bit flip of one of these bytes is
//!   another valid byte, so the disk reader, which checks no CRC, still
//!   refuses every flipped flags bit at open.
//! * **A label is empty or at least 8 bytes, with `8 + ⌈hub ·
//!   popcount(hubs) / 8⌉ ≤ len`, and the pad bits after its last hub
//!   distance are zero.** The hub word and the distance of every set bit
//!   can be loaded without a length check, and a label has one encoding.
//!   A slot of 1–7 bytes is a record under the `records` flag and an
//!   error without it, and the flag is set only on an image that has a
//!   record.
//! * **Every unchecked load stays inside the validated image.** A hub
//!   distance is loaded as the 4 bytes from its first byte (5 at widths
//!   above 25 bits, where it may reach a fifth), and a tail varint's
//!   second byte is loaded before the first says whether there is one:
//!   each may read up to 3 bytes past the label's end, and the 4-byte
//!   CRC trailer is always there to read.
//! * **A record is one or two pairs of complete varints of at most 5
//!   bytes and 32 bits filling its slot; each parent a vertex `< n`
//!   other than its own, whose slot on the same side is not a record,
//!   each offset below `INF_DIST`, and a second parent above the
//!   first.** The in-place reader decodes it without checks, reads each
//!   parent's slot as a label, never resolves a second level, and meets
//!   each parent once.
//! * **Every stored pivot of the label of `v` is below `v`: no hub bit
//!   `≥ v`, tail pivots `< v`.** Every pivot an in-place walk reports is
//!   a vertex id (the shard cutter indexes a histogram with them), and
//!   of two labels' implied self entries only the lower vertex's can
//!   meet a stored pivot of the other — the one extra match the join
//!   looks for.
//! * **Every stored distance plus one fits 32 bits.** A decoded distance
//!   is a `Dist`.
//! * **Every varint is complete inside its label, at most 10 bytes,
//!   at most 64 bits.** A varint read needs no end-of-label check per
//!   byte and cannot overflow a `u64` shift.
//! * **The tail is whole varints ending exactly at the label's end.**
//!   The merge loop compares its cursor with the end once per entry,
//!   before the entry, and never inside one.
//! * **Tail pivots strictly increase from 64.** Guaranteed by the
//!   `gap − 1` encoding itself as long as the sum stays below `v`,
//!   which is checked in saturating 64-bit arithmetic (a gap reaches
//!   2⁶⁴ − 1 at shift 0) so a crafted gap cannot wrap back onto a hub
//!   or onto its predecessor.
//!
//! The writer refuses, as `InvalidInput`, an index no image can hold: a
//! stored pivot not below its vertex, a distance 0 at any pivot but the
//! vertex itself (weights are at least 1, so no build produces either),
//! and a record that breaks the record rule.
//!
//! ## Limits
//!
//! Bases are `u32`, so one side's labels may span at most 4 GiB − 1
//! bytes — at the 1.2 bytes a label entry costs on the benchmark
//! graphs, over three billion entries. Past that
//! [`LabelIndex::write_hopidx`] returns `InvalidInput` ("… exceed the
//! 4 GiB a HOPIDX04 directory addresses") before writing a label. Any
//! distance fits: the widths grow to 32 bits, and a tail word of a
//! 32-bit gap above a 32-bit distance is a 10-byte varint.
//! `n` is bounded by `u32::MAX`, vertex ids being `u32`.
//!
//! A record has at most 7 bytes. Past 16 384 vertices a parent id takes
//! three varint bytes, so a vertex with two neighbours both ranked past
//! 16 384 needs 8 and keeps its label: on larger graphs the derived
//! share falls as the ids of the parents grow. The next format change
//! (the section table the ROADMAP plans) is the place to lift the
//! limit, e.g. with a length byte instead of "shorter than a hub word".
//!
//! `HOPIDX01` (raw `(u32, u32)` pairs, `u64` entry-count offsets, no
//! checksum), `HOPIDX02` (byte-wide hub distances and a varint each for
//! a tail entry's gap and distance) and `HOPIDX03` (stored self entries,
//! distances as `d` at 4, 8, 16 or 32 hub bits, a `u32` offset per
//! vertex) have no reader: each is refused by name and must be rebuilt.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use std::io::{self, Write};
use std::ops::Range;

use extmem::wire::{self, put_varint, Crc32};
use sfgraph::{Dist, VertexId, INF_DIST};

use crate::entry::LabelEntry;
use crate::index::{LabelIndex, Record, VertexLabels};

const MAGIC: &[u8; 8] = b"HOPIDX04";
/// Earlier formats: no reader, each refused by name.
const OLD_MAGICS: [&[u8; 8]; 3] = [b"HOPIDX01", b"HOPIDX02", b"HOPIDX03"];
/// Pivots below this are a bit in the label's hub word.
pub(crate) const HUBS: VertexId = 64;
/// Magic, flags word, vertex count.
pub(crate) const PREFIX_LEN: usize = 21;
/// Under the records flag, a label of 1 to this many bytes — shorter
/// than any label's hub word — is a record.
pub(crate) const RECORD_MAX: usize = 7;
/// The largest directory block, as a shift: 64 vertices.
const BLOCK_SHIFT_MAX: u32 = 6;
const CRC_LEN: usize = 4;

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn unwritable(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Bits needed to write `v`: 0 for 0.
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// How an image packs its label distances, each stored as `d − 1`; the
/// writer picks both widths from the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Widths {
    /// Bits per hub distance: 0 to 32.
    pub(crate) hub_bits: u32,
    /// Low bits of a tail entry's varint that hold its distance: 0 to 32.
    pub(crate) tail_shift: u32,
}

impl Widths {
    /// The narrowest widths that hold every stored distance of the
    /// labels in `slots` (`(v, slot v)`), whose entries the writer has
    /// checked: every distance at least 1.
    fn of<'a>(slots: impl IntoIterator<Item = (usize, &'a VertexLabels)>) -> Widths {
        let (mut hub_max, mut tail_max) = (0, 0);
        for (v, l) in slots {
            let (hubs, tail) = hubs_and_tail(stored(l, v));
            hub_max = hubs.iter().fold(hub_max, |max, e| (e.dist - 1).max(max));
            tail_max = tail.fold(tail_max, |max, (_, dist)| (dist - 1).max(max));
        }
        Widths { hub_bits: bit_len(hub_max.into()), tail_shift: bit_len(tail_max.into()) }
    }

    /// Bytes the distances of `hubs` hub entries take, padded to a byte.
    #[inline(always)]
    pub(crate) fn hub_bytes(self, hubs: usize) -> usize {
        (hubs * self.hub_bits as usize).div_ceil(8)
    }

    /// A tail entry's varint from its `(pivot gap − 1, dist)`.
    fn tail_word(self, gap: u32, dist: Dist) -> u64 {
        (u64::from(gap) << self.tail_shift) | u64::from(dist - 1)
    }

    /// A tail entry's `(pivot gap − 1, dist)` from its varint.
    #[inline(always)]
    pub(crate) fn split(self, word: u64) -> (u64, u64) {
        (word >> self.tail_shift, (word & ((1u64 << self.tail_shift) - 1)) + 1)
    }
}

/// A flags byte holding `v` (0–63) in bits 0–5 and their parity in bit
/// 7, so that no single-bit flip of the byte is another valid one.
fn parity_byte(v: u8) -> u8 {
    v | ((v.count_ones() as u8 & 1) << 7)
}

/// The value of a [`parity_byte`] if it is one and at most `max`.
fn from_parity_byte(byte: u8, max: u8) -> Option<u32> {
    let v = byte & 0x3F;
    (v <= max && parity_byte(v) == byte).then_some(v.into())
}

/// The fixed 21-byte prefix of an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) directed: bool,
    pub(crate) widths: Widths,
    /// Whether some slots hold a record instead of a label.
    pub(crate) records: bool,
    /// A directory block is `1 << block_shift` vertices.
    pub(crate) block_shift: u32,
    pub(crate) n: usize,
}

impl Header {
    /// Parse the prefix at the front of `bytes`.
    pub(crate) fn parse(bytes: &[u8]) -> io::Result<Header> {
        match bytes.first_chunk::<8>() {
            Some(MAGIC) => {}
            Some(old) if OLD_MAGICS.contains(&old) => {
                let name = String::from_utf8_lossy(old);
                return Err(bad(&format!(
                    "{name} image: rebuild it with this version's hopdb-cli build"
                )));
            }
            _ => return Err(bad("not a HOPIDX04 image")),
        }
        let invalid = || bad("invalid HOPIDX04 flags word");
        let (Some([directed, hub, records, shift, block]), Some(n)) =
            (wire::array_at::<5>(bytes, 8), wire::u64_at(bytes, 13))
        else {
            return Err(invalid());
        };
        let (Some(hub_bits), Some(tail_shift), Some(block_shift)) = (
            from_parity_byte(hub, 32),
            from_parity_byte(shift, 32),
            from_parity_byte(block, BLOCK_SHIFT_MAX as u8),
        ) else {
            return Err(invalid());
        };
        if directed > 1 || records > 1 {
            return Err(invalid());
        }
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= VertexId::MAX as usize)
            .ok_or_else(|| bad("vertex count exceeds the u32 id space"))?;
        let widths = Widths { hub_bits, tail_shift };
        Ok(Header { directed: directed != 0, widths, records: records != 0, block_shift, n })
    }

    fn sides(&self) -> usize {
        1 + self.directed as usize
    }

    /// Bytes of one side's directory: a `u32` base per block and a `u16`
    /// offset per vertex, plus the one that ends the last label.
    fn dir_len(&self) -> Option<usize> {
        let bases = (self.n >> self.block_shift).checked_add(1)?.checked_mul(4)?;
        self.n.checked_add(1)?.checked_mul(2)?.checked_add(bases)
    }

    /// Where the labels start — the length of prefix plus directories —
    /// or `None` when a crafted `n` overflows it.
    pub(crate) fn labels_at(&self) -> Option<usize> {
        self.dir_len()?.checked_mul(self.sides())?.checked_add(PREFIX_LEN)
    }
}

/// Where everything is in one image. Sides are `0` = `Lout`/`L` and
/// `1` = `Lin`; an undirected image's side 1 aliases side 0, so a query
/// takes `s` from side 0 and `t` from side 1 without asking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Layout {
    pub(crate) header: Header,
    /// Byte position of each side's directory.
    pub(crate) dirs: [usize; 2],
    /// Byte position of each side's labels.
    pub(crate) bases: [usize; 2],
}

impl Layout {
    /// Check the prefix and directories at the front of `front` against
    /// an image `total_len` bytes long (`front` may be the whole image
    /// or just its first [`Header::labels_at`] bytes).
    pub(crate) fn parse(front: &[u8], total_len: u64) -> io::Result<Layout> {
        let header = Header::parse(front)?;
        let (Some(dir_len), Some(labels_at)) = (header.dir_len(), header.labels_at()) else {
            return Err(bad("truncated offset directory"));
        };
        if front.len() < labels_at {
            return Err(bad("truncated offset directory"));
        }
        let dirs = [PREFIX_LEN, PREFIX_LEN + dir_len * (header.sides() - 1)];
        let mut layout = Layout { header, dirs, bases: [labels_at; 2] };
        let mut spans = [0u64; 2];
        for (side, span) in spans.iter_mut().enumerate().take(header.sides()) {
            *span = layout.check_directory(front, side)?;
        }
        let [out_span, in_span] = spans;
        if (labels_at + CRC_LEN) as u64 + out_span + in_span != total_len {
            return Err(bad("image length does not match its offset directories"));
        }
        if header.directed {
            layout.bases[1] = labels_at + out_span as usize;
        }
        Ok(layout)
    }

    /// One side's directory must open every block at offset 0, start at
    /// 0 and never step back; returns its last entry, the byte length of
    /// the side's labels. `front` holds the directories (`parse` checked).
    fn check_directory(&self, front: &[u8], side: usize) -> io::Result<u64> {
        let truncated = || bad("truncated offset directory");
        let at = *self.dirs.get(side).ok_or_else(truncated)?;
        let dir = front.get(at..at + self.header.dir_len().ok_or_else(truncated)?);
        let mut prev = 0;
        // Every block but the last is full, and the last holds the entry
        // that ends the last label.
        let blocks = dir.ok_or_else(truncated)?.chunks(4 + (2 << self.header.block_shift));
        for (b, block) in blocks.enumerate() {
            let (base, offsets) = block.split_first_chunk::<4>().ok_or_else(truncated)?;
            let base = u32::from_le_bytes(*base);
            let offsets = offsets.chunks_exact(2).flat_map(<&[u8; 2]>::try_from);
            for (k, offset) in offsets.map(|o| u16::from_le_bytes(*o)).enumerate() {
                let at = u64::from(base) + u64::from(offset);
                if at < prev || (k == 0 && offset != 0) || (b == 0 && base != 0) {
                    return Err(bad("offset directory not monotone from zero, block by block"));
                }
                prev = at;
            }
        }
        Ok(prev)
    }

    /// Where label `v` of `side` lies in the image, read from the
    /// directories in `front` (the image, or at least its first
    /// [`Header::labels_at`] bytes); `None` when `v` is not a vertex.
    #[inline]
    pub(crate) fn span(&self, front: &[u8], side: usize, v: usize) -> Option<Range<usize>> {
        let shift = self.header.block_shift;
        let (mask, stride) = ((1 << shift) - 1, 4 + (2 << shift));
        let block = *self.dirs.get(side)? + ((v < self.header.n).then_some(v)? >> shift) * stride;
        let base = wire::u32_at(front, block)? as usize;
        let offset = |i: usize| wire::array_at(front, block + 4 + 2 * i).map(u16::from_le_bytes);
        let lo = base + usize::from(offset(v & mask)?);
        // A label that ends its block ends where the next one opens, at
        // that block's base.
        let hi = match (v + 1) & mask {
            0 => wire::u32_at(front, block + stride)? as usize,
            next => base + usize::from(offset(next)?),
        };
        let labels = *self.bases.get(side)?;
        Some(labels + lo..labels + hi)
    }

    /// The bytes of label `v` on `side`, by the checked route.
    pub(crate) fn label<'a>(&self, bytes: &'a [u8], side: usize, v: usize) -> Option<&'a [u8]> {
        bytes.get(self.span(bytes, side, v)?)
    }

    /// Whether slot `v` of `side`, read as a label, holds the implied
    /// entry `(v, 0)` beside its stored ones. Every label does but one:
    /// an empty slot whose other side holds a record, which is a derived
    /// vertex's side without arcs (an undirected slot is its own other
    /// side).
    pub(crate) fn implies_self(&self, front: &[u8], side: usize, v: usize) -> bool {
        let len = |side| self.span(front, side, v).map_or(0, |span| span.len());
        len(side) != 0 || !(self.header.records && is_record(len(1 - side)))
    }
}

/// One LEB128 `u64` at `label[*at..]`, advancing `at`.
fn varint(label: &[u8], at: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    for group in 0..10 {
        let b = wire::u8_at(label, *at).ok_or_else(|| bad("label ends inside a varint"))?;
        *at += 1;
        // The tenth byte holds bit 63: anything above it, the
        // continuation bit included, does not fit a u64.
        if group == 9 && b > 0x01 {
            return Err(bad("varint exceeds 64 bits"));
        }
        v |= u64::from(b & 0x7F) << (7 * group);
        if b < 0x80 {
            break;
        }
    }
    Ok(v)
}

/// One varint of a record: at most 5 bytes and 32 bits.
fn varint32(label: &[u8], at: &mut usize) -> io::Result<u32> {
    let start = *at;
    let v = varint(label, at)?;
    u32::try_from(v)
        .ok()
        .filter(|_| *at - start <= 5)
        .ok_or_else(|| bad("record varint exceeds 5 bytes or 32 bits"))
}

/// A stored distance back as a distance, if it is one.
fn distance(stored_plus_one: u64) -> io::Result<Dist> {
    Dist::try_from(stored_plus_one).map_err(|_| bad("a stored distance exceeds 32 bits"))
}

/// The checked decoder: call `f(pivot, dist)` for every stored entry of
/// the label of vertex `v`, in pivot order, enforcing every per-label
/// rule of the module docs against `widths`.
pub(crate) fn walk_label(
    label: &[u8],
    widths: Widths,
    v: usize,
    mut f: impl FnMut(VertexId, Dist),
) -> io::Result<()> {
    if label.is_empty() {
        return Ok(());
    }
    let hubs = wire::u64_at(label, 0).ok_or_else(|| bad("label shorter than its hub word"))?;
    if v < HUBS as usize && hubs >> v != 0 {
        return Err(bad("a stored pivot is not below its vertex"));
    }
    let count = hubs.count_ones() as usize;
    let tail_at = 8 + widths.hub_bytes(count);
    let dists = label.get(8..tail_at).ok_or_else(|| bad("hub distances run past the label"))?;
    // The packed values, low bits first, read through a bit buffer.
    let (mut buffer, mut buffered, mut bytes) = (0u64, 0, dists.iter());
    let mut rest = hubs;
    for _ in 0..count {
        while buffered < widths.hub_bits {
            let byte = bytes.next().ok_or_else(|| bad("hub distances run past the label"))?;
            buffer |= u64::from(*byte) << buffered;
            buffered += 8;
        }
        let stored = buffer & ((1u64 << widths.hub_bits) - 1);
        (buffer, buffered) = (buffer >> widths.hub_bits, buffered - widths.hub_bits);
        f(rest.trailing_zeros(), distance(stored + 1)?);
        rest &= rest - 1;
    }
    // What is left of the last byte is padding.
    if buffer != 0 {
        return Err(bad("non-zero pad bits after the hub distances"));
    }
    let (mut at, mut pivot) = (tail_at, u64::from(HUBS) - 1);
    while at < label.len() {
        let (gap, dist) = widths.split(varint(label, &mut at)?);
        pivot = pivot.saturating_add(gap).saturating_add(1);
        if pivot >= v as u64 {
            return Err(bad("a stored pivot is not below its vertex"));
        }
        f(pivot as VertexId, distance(dist)?);
    }
    Ok(())
}

/// Whether a slot of `len` bytes has a record's length: 1 to
/// [`RECORD_MAX`] bytes.
#[inline]
pub(crate) fn is_record(len: usize) -> bool {
    len.wrapping_sub(1) < RECORD_MAX
}

/// The checked decoder of the record in slot `v`: one or two pairs of
/// varints filling the label exactly, each parent another vertex, the
/// parents ascending, each offset below `INF_DIST`.
fn read_record(label: &[u8], v: usize, n: usize) -> io::Result<Record> {
    let mut at = 0;
    let first = read_pair(label, &mut at, v, n)?;
    if at == label.len() {
        return Ok(Record::new(&[first]));
    }
    let second = read_pair(label, &mut at, v, n)?;
    if at != label.len() {
        return Err(bad("bytes after a record"));
    }
    if second.0 <= first.0 {
        return Err(bad("record parents not ascending"));
    }
    Ok(Record::new(&[first, second]))
}

/// One pair of the record in slot `v`, at `label[*at..]`: a parent that
/// is another vertex, an offset below `INF_DIST`.
fn read_pair(label: &[u8], at: &mut usize, v: usize, n: usize) -> io::Result<(VertexId, Dist)> {
    let (parent, offset) = (varint32(label, at)?, varint32(label, at)?);
    if parent as usize >= n || parent as usize == v {
        return Err(bad("record parent is not another vertex"));
    }
    if offset == INF_DIST {
        return Err(bad("record offset is unreachable"));
    }
    Ok((parent, offset))
}

/// The checked decoder of slot `v` of a side: its record, if the image
/// has records and the slot is one, or else `None` once `f(pivot,
/// dist)` has seen every stored entry of its label.
pub(crate) fn walk_slot(
    label: &[u8],
    v: usize,
    header: &Header,
    f: impl FnMut(VertexId, Dist),
) -> io::Result<Option<Record>> {
    if header.records && is_record(label.len()) {
        return read_record(label, v, header.n).map(Some);
    }
    walk_label(label, header.widths, v, f).map(|()| None)
}

/// Whether `record` has an encoding: offsets below `INF_DIST`, and
/// varints that fit in 7 bytes. The builders derive only the vertices
/// whose records fit.
pub fn record_fits(record: &Record) -> bool {
    let pairs = record.pairs();
    pairs.iter().all(|&(_, offset)| offset < INF_DIST) && record_len(pairs) <= RECORD_MAX
}

/// Bytes the pairs of a record take.
fn record_len(pairs: &[(VertexId, Dist)]) -> usize {
    pairs
        .iter()
        .map(|&(parent, offset)| varint_len(parent.into()) + varint_len(offset.into()))
        .sum()
}

fn varint_len(v: u64) -> usize {
    // One byte per started group of 7 significant bits; zero takes one.
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// The entries the image stores for the label in slot `v`: all but the
/// self entry `(v, 0)`, which it implies.
fn stored(label: &VertexLabels, v: usize) -> &[LabelEntry] {
    let entries = label.entries();
    match entries.split_last() {
        Some((last, rest)) if last.pivot as usize == v && last.dist == 0 => rest,
        _ => entries,
    }
}

/// Split stored entries (sorted by pivot, pivots unique — the
/// [`VertexLabels`] invariant) into the hub entries and, per tail entry,
/// `(pivot gap − 1, dist)`.
fn hubs_and_tail(
    entries: &[LabelEntry],
) -> (&[LabelEntry], impl Iterator<Item = (u32, Dist)> + '_) {
    let (hubs, tail) = entries.split_at(entries.partition_point(|e| e.pivot < HUBS));
    let mut prev = HUBS - 1;
    (hubs, tail.iter().map(move |e| (e.pivot - std::mem::replace(&mut prev, e.pivot) - 1, e.dist)))
}

/// Bytes [`encode_label`] appends for slot `v`.
fn encoded_len(label: &VertexLabels, v: usize, widths: Widths) -> usize {
    if let Some(r) = label.record() {
        return record_len(r.pairs());
    }
    let entries = stored(label, v);
    if entries.is_empty() {
        return 0;
    }
    let (hubs, tail) = hubs_and_tail(entries);
    8 + widths.hub_bytes(hubs.len())
        + tail.map(|(gap, dist)| varint_len(widths.tail_word(gap, dist))).sum::<usize>()
}

/// The encoder: append slot `v` — a record or a label — to `out`.
pub(crate) fn encode_label(label: &VertexLabels, v: usize, widths: Widths, out: &mut Vec<u8>) {
    if let Some(r) = label.record() {
        for &(parent, offset) in r.pairs() {
            put_varint(parent.into(), out);
            put_varint(offset.into(), out);
        }
        return;
    }
    let entries = stored(label, v);
    if entries.is_empty() {
        return;
    }
    let (hubs, tail) = hubs_and_tail(entries);
    let word = hubs.iter().fold(0u64, |w, e| w | 1 << e.pivot);
    out.extend_from_slice(&word.to_le_bytes());
    // `d − 1` at `hub_bits` each, low bits first, the last byte padded
    // with zero bits.
    let (mut bits, mut filled) = (0u64, 0);
    for e in hubs {
        bits |= u64::from(e.dist - 1) << filled;
        filled += widths.hub_bits;
        while filled >= 8 {
            out.push(bits as u8);
            (bits, filled) = (bits >> 8, filled - 8);
        }
    }
    if filled > 0 {
        out.push(bits as u8);
    }
    for (gap, dist) in tail {
        put_varint(widths.tail_word(gap, dist), out);
    }
}

/// The writer's check of `label`, slot `v` of `side`: a label stores
/// pivots below `v` at distances of at least 1 (the self entry `(v, 0)`
/// is implied), and a record names other vertices' labels, ascending, in
/// 7 bytes.
fn check_slot(side: &[VertexLabels], v: usize, label: &VertexLabels) -> io::Result<()> {
    let Some(record) = label.record() else {
        let entries = stored(label, v);
        if entries.last().is_some_and(|e| e.pivot as usize >= v) {
            return Err(unwritable("a label stores a pivot that is not below its vertex"));
        }
        if entries.iter().any(|e| e.dist == 0) {
            return Err(unwritable("a label holds distance 0 at a pivot other than its vertex"));
        }
        return Ok(());
    };
    let pairs = record.pairs();
    let to_labels = pairs.iter().all(|&(parent, _)| {
        parent as usize != v && side.get(parent as usize).is_some_and(|p| p.record().is_none())
    });
    if !to_labels || !pairs.is_sorted_by(|a, b| a.0 < b.0) || !record_fits(&record) {
        return Err(unwritable("a record must name other vertices' labels, ascending, in 7 bytes"));
    }
    Ok(())
}

/// The largest directory block, as a shift, in which every block of
/// every side spans at most 65 535 bytes — so that each vertex's offset
/// from its block's base fits a `u16` — given each side's label offsets.
fn block_shift(dirs: &[Vec<u64>]) -> u32 {
    let fits = |block: &[u64]| match (block.first(), block.last()) {
        (Some(first), Some(last)) => last - first <= u16::MAX.into(),
        _ => true,
    };
    // One-vertex blocks always fit: their only offset is 0.
    let fit = |shift: &u32| dirs.iter().all(|dir| dir.chunks(1 << shift).all(fits));
    (0..=BLOCK_SHIFT_MAX).rev().find(fit).unwrap_or(0)
}

/// Bytes [`LabelIndex::write_hopidx`] buffers before handing them to
/// the writer: the image streams out, it is never assembled in memory.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// The image under construction: encoders append to `buf`, and `drain`
/// checksums, counts and hands on what has piled up.
struct ImageWriter<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
    crc: Crc32,
    len: u64,
}

impl<W: Write> ImageWriter<'_, W> {
    /// Pass `buf` on once it holds at least `min` bytes.
    fn drain(&mut self, min: usize) -> io::Result<()> {
        if self.buf.len() >= min {
            self.crc.update(&self.buf);
            self.len += self.buf.len() as u64;
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl LabelIndex {
    /// Serialize the index as a `HOPIDX04` image into `w` — the only
    /// serializer of the format. A check of every slot and a scan of the
    /// entries for the distance widths, then two passes over the labels:
    /// their lengths, kept as the directories' offsets (8 bytes a vertex
    /// a side, from which the directory block is picked), then their
    /// bytes through a fixed-size buffer, the CRC folded in as the bytes
    /// go: the external build bounds its memory, and writing its result
    /// must not double the index. Flushes `w` and returns the image
    /// length in bytes. An index no image can hold — a label pivot not
    /// below its vertex, a distance 0 at another vertex, a record that
    /// breaks the record rule, a side past the 4 GiB offset range — is
    /// `InvalidInput`, found before the first byte is written.
    pub fn write_hopidx(&self, w: &mut impl Write) -> io::Result<u64> {
        let sides = self.sides();
        for side in sides {
            side.iter().enumerate().try_for_each(|(v, l)| check_slot(side, v, l))?;
        }
        let widths = Widths::of(sides.iter().flat_map(|side| side.iter().enumerate()));
        // Each side's `n + 1` directory entries, as plain offsets.
        let dirs: Vec<Vec<u64>> = sides
            .iter()
            .map(|side| {
                let ends = side.iter().enumerate().scan(0, |at, (v, l)| {
                    *at += encoded_len(l, v, widths) as u64;
                    Some(*at)
                });
                std::iter::once(0).chain(ends).collect()
            })
            .collect();
        if dirs.iter().flat_map(|dir| dir.last()).any(|&end| end > u32::MAX.into()) {
            return Err(unwritable(
                "one side's labels exceed the 4 GiB a HOPIDX04 directory addresses",
            ));
        }
        let shift = block_shift(&dirs);
        let records = sides.iter().flat_map(|side| side.iter()).any(|l| l.record().is_some());
        let mut image = ImageWriter {
            w,
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES + 1024),
            crc: Crc32::default(),
            len: 0,
        };
        image.buf.extend_from_slice(MAGIC);
        let Widths { hub_bits, tail_shift } = widths;
        image.buf.extend_from_slice(&[
            self.is_directed() as u8,
            parity_byte(hub_bits as u8),
            records as u8,
            parity_byte(tail_shift as u8),
            parity_byte(shift as u8),
        ]);
        image.buf.extend_from_slice(&(self.num_vertices() as u64).to_le_bytes());
        for block in dirs.iter().flat_map(|dir| dir.chunks(1 << shift)) {
            // Checked above: every offset fits 32 bits, and `block_shift`
            // has fitted every block's span in 16.
            let base = block.first().copied().unwrap_or(0);
            image.buf.extend_from_slice(&(base as u32).to_le_bytes());
            for &at in block {
                image.buf.extend_from_slice(&((at - base) as u16).to_le_bytes());
            }
            image.drain(WRITE_BUFFER_BYTES)?;
        }
        for side in sides {
            for (v, l) in side.iter().enumerate() {
                encode_label(l, v, widths, &mut image.buf);
                image.drain(WRITE_BUFFER_BYTES)?;
            }
        }
        image.drain(0)?;
        let crc = image.crc.finish();
        image.w.write_all(&crc.to_le_bytes())?;
        image.w.flush()?;
        Ok(image.len + CRC_LEN as u64)
    }
}

/// The total validator of the module docs. Returns where things are and
/// how many entries the image holds, implied self entries included.
pub(crate) fn validate(bytes: &[u8]) -> io::Result<(Layout, usize)> {
    // Name the format before checksumming: an old image should be told
    // to rebuild, not that it is corrupt.
    Header::parse(bytes)?;
    let body_len = bytes.len().saturating_sub(CRC_LEN);
    let stored = wire::u32_at(bytes, body_len).ok_or_else(|| bad("truncated HOPIDX04 image"))?;
    if bytes.get(..body_len).map(wire::crc32) != Some(stored) {
        return Err(bad("HOPIDX04 checksum mismatch"));
    }
    let layout = Layout::parse(bytes, bytes.len() as u64)?;
    let header = layout.header;
    let (mut entries, mut records) = (0usize, false);
    for side in 0..header.sides() {
        for v in 0..header.n {
            let label = layout.label(bytes, side, v).ok_or_else(|| bad("label out of bounds"))?;
            if let Some(r) = walk_slot(label, v, &header, |_, _| entries += 1)? {
                for &(parent, _) in r.pairs() {
                    let parent = layout.label(bytes, side, parent as usize);
                    if parent.is_none_or(|p| is_record(p.len())) {
                        return Err(bad("a record's parent holds a record"));
                    }
                }
                records = true;
            } else {
                entries += (!label.is_empty() || layout.implies_self(bytes, side, v)) as usize;
            }
        }
    }
    if header.records && !records {
        return Err(bad("records flag set on an image without records"));
    }
    Ok((layout, entries))
}

/// Decode slot `v` of a side through the checked decoder, adding the
/// implied self entry when [`Layout::implies_self`] says the label has
/// one.
pub(crate) fn decode_slot(
    label: &[u8],
    v: usize,
    header: &Header,
    implies_self: bool,
) -> io::Result<VertexLabels> {
    let mut entries = Vec::new();
    let record =
        walk_slot(label, v, header, |pivot, dist| entries.push(LabelEntry::new(pivot, dist)))?;
    if implies_self {
        entries.push(LabelEntry::trivial(v as VertexId));
    }
    Ok(record.map_or_else(|| VertexLabels::from_entries(entries), VertexLabels::from_record))
}

/// Decode a whole image back into the nested index (the shard cutter's
/// input; serving never needs it).
pub(crate) fn read_index(bytes: &[u8]) -> io::Result<LabelIndex> {
    let (layout, _) = validate(bytes)?;
    let header = layout.header;
    let side = |side: usize| -> io::Result<Vec<VertexLabels>> {
        (0..header.n)
            .map(|v| {
                let label =
                    layout.label(bytes, side, v).ok_or_else(|| bad("label out of bounds"))?;
                decode_slot(label, v, &header, layout.implies_self(bytes, side, v))
            })
            .collect()
    };
    Ok(LabelIndex::from_sides((0..header.sides()).map(side).collect::<io::Result<_>>()?))
}

#[cfg(test)]
#[allow(unsafe_code)]
mod tests {
    use super::*;
    use crate::flat::{decode_in_place, FlatIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sfgraph::INF_DIST;

    fn label_of(entries: &[(VertexId, Dist)]) -> VertexLabels {
        VertexLabels::from_entries(entries.iter().map(|&(p, d)| LabelEntry::new(p, d)).collect())
    }

    /// `label` with the self entry of `v` that every built label holds.
    fn with_self(label: &VertexLabels, v: usize) -> VertexLabels {
        let mut label = label.clone();
        label.insert_min(LabelEntry::trivial(v as VertexId));
        label
    }

    /// Encode `label` as the label of `v` at the widths the writer would
    /// pick for it, then read it back both ways: the checked decoder,
    /// and — once that has accepted it — the in-place cursor queries
    /// use, over the label followed by 4 bytes of slack (an image's CRC
    /// trailer). Returns the widths.
    fn assert_roundtrip(label: &VertexLabels, v: usize) -> Widths {
        let widths = Widths::of([(v, label)]);
        let mut bytes = Vec::new();
        encode_label(label, v, widths, &mut bytes);
        assert_eq!(bytes.len(), encoded_len(label, v, widths));
        assert_eq!(bytes.is_empty(), stored(label, v).is_empty(), "an empty label is zero bytes");
        let mut decoded = Vec::new();
        walk_label(&bytes, widths, v, |p, d| decoded.push(LabelEntry::new(p, d))).unwrap();
        assert_eq!(decoded, stored(label, v), "checked decode, v = {v}");
        let len = bytes.len();
        bytes.extend_from_slice(&[0xFF; CRC_LEN]);
        // SAFETY: `walk_label` has just accepted `bytes[..len]` at
        // `widths`, and 4 bytes follow it.
        let in_place = unsafe { decode_in_place(&bytes, 0..len, v as VertexId, widths, true) };
        assert_eq!(in_place, with_self(label, v).entries(), "in place, v = {v}");
        widths
    }

    #[test]
    fn labels_round_trip_at_every_shape() {
        let all_hubs: Vec<_> = (0..64).map(|p| (p, p + 1)).collect();
        let all_tail: Vec<_> = (64..200).map(|p| (p, 3)).collect();
        // One hub, then tail entries at distance 3 (shift 2) whose
        // `gap − 1` makes a varint of 1, 2, 3, 4 and 5 bytes.
        let mut gaps = vec![(63, 1)];
        for (i, gap) in [1u32, 1 + (1 << 5), 1 + (1 << 12), 1 + (1 << 19), 1 + (1 << 26)]
            .into_iter()
            .enumerate()
        {
            gaps.push((gaps[i].0 + gap, 3));
        }
        let widths = Widths { hub_bits: 0, tail_shift: 2 };
        let mut bytes = Vec::new();
        encode_label(&label_of(&gaps), u32::MAX as usize - 1, widths, &mut bytes);
        assert_eq!(bytes.len(), 8 + (1 + 2 + 3 + 4 + 5), "a 0-bit hub distance takes no byte");
        for (entries, v) in [
            (vec![], 0),
            (vec![], 1),
            (vec![(0, 0)], 0),
            (vec![(0, 1), (1, 0)], 1),
            (all_hubs[..63].to_vec(), 63),
            (all_hubs.clone(), 64),
            (all_hubs.iter().copied().chain([(64, 9)]).collect(), 65),
            (all_tail, 70_000),
            (vec![(69_998, 1)], 69_999),
            // Ending in a two-byte varint (word 100 << 1 | 0).
            (vec![(63, 1), (164, 1), (165, 2)], 70_000),
            (vec![(u32::MAX - 2, 1), (u32::MAX - 1, 0)], u32::MAX as usize - 1),
        ] {
            assert_roundtrip(&label_of(&entries), v);
        }
        assert_eq!(assert_roundtrip(&label_of(&gaps), u32::MAX as usize - 1), widths);
    }

    #[test]
    fn distances_pick_the_hub_width_and_the_tail_shift() {
        // Every stored distance is `d − 1`, at the bit length of the
        // largest.
        for (dist, bits) in [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (16, 4),
            (17, 5),
            (256, 8),
            (257, 9),
            (65_536, 16),
            (65_537, 17),
            (INF_DIST - 1, 32),
            (INF_DIST, 32),
        ] {
            let hub = label_of(&[(0, 1), (7, dist), (63, 1), (64, 4)]);
            let widths = assert_roundtrip(&hub, 100);
            assert_eq!(widths, Widths { hub_bits: bits, tail_shift: 2 }, "hub distance {dist}");
        }
        for (dist, shift) in [(1, 0), (2, 1), (8, 3), (9, 4), (INF_DIST, 32)] {
            let tail = label_of(&[(5, 1), (64, dist), (90, dist)]);
            let widths = assert_roundtrip(&tail, 100);
            assert_eq!(widths, Widths { hub_bits: 0, tail_shift: shift }, "tail distance {dist}");
        }
        // At 2 bits, four to a byte, low bits first; the last byte is
        // padded with zero bits.
        let mut bytes = Vec::new();
        let three = label_of(&[(0, 1), (1, 2), (2, 3)]);
        encode_label(&three, 3, Widths { hub_bits: 2, tail_shift: 0 }, &mut bytes);
        assert_eq!(bytes, [&0b111u64.to_le_bytes()[..], &[0b10_01_00]].concat());
    }

    #[test]
    fn tail_varints_round_trip_at_every_length_step() {
        // At shifts 0, 3 and 32, a tail word on each side of every
        // varint-length step that a pivot below `u32::MAX` reaches:
        // 2^(7m) − 1 takes m bytes and 2^(7m) takes m + 1, up to the
        // 10-byte varint of 2^63.
        let v = u32::MAX - 1;
        for shift in [0u32, 3, 32] {
            // A last entry at gap 0 whose stored distance has `shift`
            // bits pins the shift.
            let pin = (1u64 << shift) >> 1;
            for m in 1..=9 {
                for (word, len) in [((1u64 << (7 * m)) - 1, m), (1 << (7 * m), m + 1)] {
                    let (gap, dist) = Widths { hub_bits: 0, tail_shift: shift }.split(word);
                    let (Some(pivot), Ok(dist)) =
                        (u32::try_from(gap + 64).ok().filter(|&p| p < v - 1), Dist::try_from(dist))
                    else {
                        continue;
                    };
                    let label = label_of(&[(0, 1), (pivot, dist), (pivot + 1, pin as Dist + 1)]);
                    let widths = assert_roundtrip(&label, v as usize);
                    assert_eq!(widths.tail_shift, shift, "word {word:#x}");
                    assert_eq!(
                        encoded_len(&label, v as usize, widths),
                        8 + len + varint_len(pin),
                        "word {word:#x} at shift {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_single_bit_flip_of_a_width_byte_is_another_valid_one() {
        // The disk reader reads no CRC: bytes 9 (the hub width), 11 (the
        // tail shift) and 12 (the directory block) must refuse every flip
        // of every value the writer can produce.
        for (byte, max) in [(9, 32), (11, 32), (12, BLOCK_SHIFT_MAX as u8)] {
            for value in 0..=max {
                let mut prefix = MAGIC.to_vec();
                prefix.extend_from_slice(&[0, parity_byte(0), 0, parity_byte(0), parity_byte(0)]);
                prefix.extend_from_slice(&1u64.to_le_bytes());
                prefix[byte] = parity_byte(value);
                let header = Header::parse(&prefix).unwrap();
                let got = [header.widths.hub_bits, header.widths.tail_shift, header.block_shift];
                assert_eq!(got[byte - 9 - (byte > 9) as usize], u32::from(value), "byte {byte}");
                for bit in 0..8 {
                    let mut flipped = prefix.clone();
                    flipped[byte] ^= 1 << bit;
                    assert!(Header::parse(&flipped).is_err(), "{value}: byte {byte} bit {bit}");
                }
            }
            let mut prefix = MAGIC.to_vec();
            prefix.extend_from_slice(&[0, parity_byte(0), 0, parity_byte(0), parity_byte(0)]);
            prefix.extend_from_slice(&1u64.to_le_bytes());
            prefix[byte] = parity_byte(max + 1);
            assert!(Header::parse(&prefix).is_err(), "byte {byte} at {}", max + 1);
        }
    }

    fn whole_image(index: &LabelIndex) -> Vec<u8> {
        let mut image = Vec::new();
        let len = index.write_hopidx(&mut image).unwrap();
        assert_eq!(len, image.len() as u64);
        assert_eq!(&read_index(&image).unwrap(), index);
        let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
        assert_eq!(
            (flat.resident_bytes(), flat.total_entries()),
            (image.len(), index.total_entries())
        );
        image
    }

    /// Writable labels only: pivots below their vertex, distances of at
    /// least 1, the self entry optional.
    #[test]
    fn random_sorted_labels_round_trip() {
        const SEED: u64 = 0x1ab3;
        let mut rng = StdRng::seed_from_u64(SEED);
        for case in 0..48 {
            // Under Miri a 70 000-slot image per case would take minutes.
            let v = [1usize, 63, 64, 65, if cfg!(miri) { 700 } else { 70_000 }]
                [rng.gen_range(0usize..5)];
            let len = rng.gen_range(0usize..300);
            let raw: Vec<(u32, u32)> = (0..len)
                .map(|_| (rng.gen_range(0..u32::MAX), rng.gen_range(0..u32::MAX)))
                .collect();
            // Pivots anywhere below v with a bias to the front, where the
            // hub word and the short gaps are; distances across all widths.
            let entries: Vec<_> = raw
                .iter()
                .map(|&(p, d)| {
                    let pivot = if d % 3 == 0 { p % v as u32 } else { p % (v as u32).min(200) };
                    (pivot, (d >> (d % 32)).max(1))
                })
                .chain(raw.len().is_multiple_of(2).then_some((v as u32, 0)))
                .collect();
            let label = label_of(&entries);
            let checked = std::panic::catch_unwind(|| {
                assert_roundtrip(&label, v);
                // And inside a whole image, as `L(v)` and as `Lin(v)`,
                // where the decoder restores the self entry.
                let n = v + 1;
                let mut labels: Vec<_> =
                    (0..n as VertexId).map(VertexLabels::with_trivial).collect();
                labels[v] = with_self(&label, v);
                whole_image(&LabelIndex::from_sides(vec![labels.clone()]));
                let out_labels = (0..n as VertexId).map(VertexLabels::with_trivial).collect();
                whole_image(&LabelIndex::from_sides(vec![out_labels, labels]));
            });
            assert!(checked.is_ok(), "seed {SEED:#x} case {case} failed");
        }
    }

    #[test]
    fn every_hub_width_reads_in_place_at_the_last_label_byte() {
        // The last label of the image is all hubs, so its last distance
        // ends at the image's last label byte and the in-place loads of
        // its distances reach into the CRC trailer: an image whose
        // `Vec` ends there lets Miri see any load past it.
        for bits in [0u32, 1, 2, 3, 7, 8, 16, 25, 32] {
            // The largest distance whose `d − 1` has `bits` bits.
            let top = (1u64 << bits).min(INF_DIST.into()) as Dist;
            for hubs in [1u32, 2, 3, 5, 8, 63] {
                let n = hubs as usize + 1;
                let mut labels: Vec<_> =
                    (0..n as VertexId).map(VertexLabels::with_trivial).collect();
                for p in 0..hubs {
                    let dist = if p + 1 == hubs { top } else { (1 + p % 3).min(top) };
                    labels[n - 1].insert_min(LabelEntry::new(p, dist));
                }
                let index = LabelIndex::from_sides(vec![labels]);
                let image = whole_image(&index);
                let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
                let layout = Layout::parse(&image, image.len() as u64).unwrap();
                assert_eq!(layout.header.widths.hub_bits, bits, "{hubs} hubs");
                let last = n as VertexId - 1;
                for p in 0..=last {
                    assert_eq!(flat.query(p, last), index.query(p, last), "bits {bits}: {p}");
                    assert_eq!(flat.query(last, p), index.query(last, p), "bits {bits}: {p}");
                }
                let span = layout.span(&image, 0, n - 1).unwrap();
                assert_eq!(span.end, image.len() - CRC_LEN, "the last label ends the labels");
                // SAFETY: validation accepted the image, and its CRC
                // follows the span.
                let entries =
                    unsafe { decode_in_place(&image, span, last, layout.header.widths, true) };
                assert_eq!(entries, index.source_labels(last).entries(), "bits {bits}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 70 000-entry label is minutes under Miri")]
    fn the_writer_picks_the_largest_block_whose_offsets_fit() {
        // Small labels: one 64-vertex block spans a few hundred bytes.
        let small = LabelIndex::new(200, false);
        let image = whole_image(&small);
        assert_eq!(image[12], parity_byte(6), "blocks of 64");
        let header = Header::parse(&image).unwrap();
        assert_eq!(header.dir_len(), Some(4 * (200 / 64 + 1) + 2 * 201));
        // A label of 69 944 bytes at vertex 70 000: no block of two
        // vertices that holds it fits its second offset in 16 bits, so
        // every vertex opens its own block. Directed, on both sides.
        let v = 70_000;
        let mut labels: Vec<_> = (0..v as VertexId + 2).map(VertexLabels::with_trivial).collect();
        for p in 64..v as VertexId {
            labels[v].insert_min(LabelEntry::new(p, 1));
        }
        let undirected = LabelIndex::from_sides(vec![labels.clone()]);
        let directed = LabelIndex::from_sides(vec![labels.clone(), labels]);
        for index in [undirected, directed] {
            let image = whole_image(&index);
            assert_eq!(image[12], parity_byte(0), "blocks of 1");
            let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
            for (s, t) in [(v as VertexId, 5_000), (69_999, v as VertexId), (v as VertexId + 1, 70)]
            {
                assert_eq!(flat.query(s, t), index.query(s, t), "{s}->{t}");
            }
            assert_eq!(flat.out_label_len(v as VertexId), v - 64 + 1);
        }
    }

    #[test]
    fn the_writer_refuses_what_no_image_can_hold() {
        // Labels of vertex 1: a pivot that is not a vertex, one above 1,
        // 1 itself at a distance other than 0, and distance 0 at 0.
        for entry in [(2, 1), (5, 1), (1, 3), (0, 0)] {
            let mut idx = LabelIndex::new(3, false);
            idx.sides_mut()[0][1] = label_of(&[entry]);
            let err = idx.write_hopidx(&mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{entry:?}: {err}");
        }

        // Records in slot 2: a parent that is not a vertex, the vertex
        // itself, a record; an unreachable offset; two parents out of
        // order, equal, or with the second a record or the vertex.
        let record = |pairs: &[_]| VertexLabels::from_record(Record::new(pairs));
        let label = VertexLabels::with_trivial;
        for (slot, slot_1) in [
            (record(&[(9, 1)]), label(1)),
            (record(&[(2, 1)]), label(1)),
            (record(&[(1, 1)]), record(&[(0, 1)])),
            (record(&[(1, INF_DIST)]), label(1)),
            (record(&[(1, 1), (0, 1)]), label(1)),
            (record(&[(1, 1), (1, 2)]), label(1)),
            (record(&[(0, 1), (1, 1)]), record(&[(0, 1)])),
            (record(&[(0, 1), (2, 1)]), label(1)),
            (record(&[(0, 1), (1, INF_DIST)]), label(1)),
        ] {
            let labels = vec![label(0), slot_1, slot];
            let idx = LabelIndex::from_sides(vec![labels]);
            let err = idx.write_hopidx(&mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{idx:?}: {err}");
        }
        // What fits in 7 bytes: past 16 384 vertices a parent id takes
        // three varint bytes, and two of them do not fit.
        let fits = |pairs: &[_]| record_fits(&Record::new(pairs));
        assert!(fits(&[(1 << 14, 1 << 21)]), "3 + 4 bytes");
        assert!(!fits(&[(1 << 21, 1 << 21)]), "4 + 4 bytes");
        assert!(fits(&[(16_383, 1), (16_384, 1)]), "2 + 1 + 3 + 1 bytes");
        assert!(!fits(&[(16_384, 1), (16_385, 1)]), "3 + 1 + 3 + 1 bytes");
        let n = 16_387;
        let mut labels: Vec<_> = (0..n).map(label).collect();
        labels[n as usize - 1] = record(&[(16_384, 1), (16_385, 1)]);
        let idx = LabelIndex::from_sides(vec![labels]);
        let err = idx.write_hopidx(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn records_round_trip_and_set_the_flag_only_when_present() {
        // 0 – 1 with leaves 2 (on 0) and 3 (on 1), offsets needing one
        // and three varint bytes, and 4 on both (offsets 3 and 200, two
        // bytes); directed, the in side of 3 is empty and 4 has one arc
        // in, from 1.
        let mut labels: Vec<_> = (0..5).map(VertexLabels::with_trivial).collect();
        labels[1].insert_min(LabelEntry::new(0, 1));
        let without = LabelIndex::from_sides(vec![labels.clone()]);
        labels[2] = VertexLabels::from_record(Record::new(&[(0, 5)]));
        labels[3] = VertexLabels::from_record(Record::new(&[(1, 70_000)]));
        labels[4] = VertexLabels::from_record(Record::new(&[(0, 3), (1, 200)]));
        let with = LabelIndex::from_sides(vec![labels.clone()]);
        let mut out_labels = labels;
        let mut in_labels = out_labels.clone();
        in_labels[3] = VertexLabels::new();
        in_labels[4] = VertexLabels::from_record(Record::new(&[(1, 2)]));
        out_labels[2] = VertexLabels::new();
        let directed = LabelIndex::from_sides(vec![out_labels, in_labels]);
        for (idx, records) in [(&without, 0), (&with, 1), (&directed, 1)] {
            assert_eq!(whole_image(idx)[10], records, "the flags word's records bit");
        }
        let flat = FlatIndex::from_index(&with);
        assert_eq!(flat.query(2, 3), 5 + 1 + 70_000);
        assert_eq!(flat.query(3, 1), 70_000);
        assert_eq!(flat.out_label_len(2), 0, "a record has no entries");
        assert_eq!((flat.query(4, 2), flat.query(2, 4)), (3 + 5, 3 + 5), "shared parent 0");
        assert_eq!(flat.query(4, 3), 3 + 1 + 70_000);
        assert_eq!(flat.query(4, 1), 3 + 1);
        let flat = FlatIndex::from_index(&directed);
        assert_eq!((flat.query(4, 1), flat.query(1, 4), flat.query(0, 4)), (4, 2, 3));
        // The empty side of a derived vertex implies no self entry.
        assert_eq!((flat.in_label_len(3), flat.out_label_len(2)), (0, 0));
        assert_eq!((flat.query(0, 3), flat.query(2, 0)), (INF_DIST, INF_DIST));
    }

    #[test]
    fn the_old_format_is_refused_by_name() {
        // A complete, well-formed HOPIDX01 image of one isolated vertex.
        let mut v01 = Vec::new();
        v01.extend_from_slice(b"HOPIDX01");
        v01.extend_from_slice(&[0, 0, 0, 0]);
        v01.extend_from_slice(&1u64.to_le_bytes());
        v01.extend_from_slice(&0u64.to_le_bytes());
        v01.extend_from_slice(&1u64.to_le_bytes());
        v01.extend_from_slice(&[0u8; 8]);
        // A HOPIDX02 one: byte-wide hub distances, a zero reserved
        // byte, a two-slot directory, its CRC.
        let mut v02 = b"HOPIDX02".to_vec();
        v02.extend_from_slice(&[0, 1, 0, 0]);
        v02.extend_from_slice(&1u64.to_le_bytes());
        v02.extend_from_slice(&[0u8; 8]);
        v02.extend_from_slice(&wire::crc32(&v02).to_le_bytes());
        // And a HOPIDX03 one: 4-bit hub distances, tail shift 0.
        let mut v03 = b"HOPIDX03".to_vec();
        v03.extend_from_slice(&[0, 4, 0, 0]);
        v03.extend_from_slice(&1u64.to_le_bytes());
        v03.extend_from_slice(&[0u8; 8]);
        v03.extend_from_slice(&wire::crc32(&v03).to_le_bytes());
        for (old, name) in [(&v01, "HOPIDX01"), (&v02, "HOPIDX02"), (&v03, "HOPIDX03")] {
            for err in [
                Header::parse(old).unwrap_err(),
                validate(old).unwrap_err(),
                FlatIndex::from_hopidx_bytes(old).unwrap_err(),
                crate::shard::shard_image(old, 2).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let msg = err.to_string();
                assert!(msg.starts_with(name) && msg.contains("rebuild"), "{msg}");
            }
        }
        for junk in [&b"HOPIDX04........."[..], b"HOPIDX05........."] {
            assert!(!validate(junk).unwrap_err().to_string().contains("rebuild"));
        }
    }
}
