//! `HOPIDX03` — the one index image: what `hopdb-cli build` writes,
//! what every reader opens, and (because [`crate::flat::FlatIndex`]
//! serves the file's bytes in place) what a daemon holds resident.
//!
//! ```text
//! magic "HOPIDX03" | directed u8 | bits u8 | records u8 | shift u8 | n u64   20 bytes
//! out directory   (n+1) × u32 LE   byte offsets into the out labels
//! in  directory   (n+1) × u32 LE   directed images only
//! out labels | in labels           slot v = region[dir[v]..dir[v+1]]
//! CRC-32 u32 LE                    of every byte before it
//!
//! shift := tail shift (0–32) in bits 0–5, their parity in bit 7
//! slot  := label
//!        | record                                  only when `records` is 1
//! label := ""                                      no entries: zero bytes
//!        | hubs u64 LE                             bit p set ⇔ pivot p < 64 present
//!          popcount(hubs) × dist, `bits` each      4, 8, 16 or 32, ascending pivot
//!                                                  order, LE; at 4 two to a byte,
//!                                                  low nibble first, an odd count
//!                                                  padded with a zero nibble
//!          varint((pivot − previous − 1) << shift | dist)*
//!                                                  pivots ≥ 64, ascending,
//!                                                  "previous" starting at 63
//! record := (varint(parent) varint(offset)){1,2}  1–7 bytes, so never a label;
//!                                                  parents ascending
//! ```
//!
//! Vertices are rank-relabeled, so the pivots below 64 are the 64
//! top-ranked vertices of the graph — the handful that Table 7 of the
//! paper shows covering most label entries (54–74 % of all entries on
//! the three benchmark graphs). For them a label spends one bit on the
//! pivot and `bits` on the distance. A scale-free graph's hubs are a few
//! hops from everything (the largest hub distance is 4 / 6 / 4 on the
//! three graphs hopbench builds), so `bits` is 4 unless the image's
//! largest hub distance needs 8, 16 or 32; the writer picks it from the
//! data. Every other entry is one LEB128 varint (7 bits per byte, low
//! group first, high bit = "more") holding the pivot gap above the
//! distance's `shift` bits, where `shift` is the bit length of the
//! image's largest tail distance (3 on all three graphs, whose largest
//! are 6 / 7 / 6), picked the same way. Rank order keeps the gaps
//! small: 1.57–1.68 bytes an entry on those graphs, where a varint for
//! the gap and another for the distance took 2.2–2.3.
//!
//! Where the bytes go, per vertex, on those graphs:
//!
//! ```text
//!                           und-mem-read   dir-ext-read   und-mem-writes
//!  directories (4 a side)       4.00           8.00           4.00
//!  hub words                    4.74           4.95           4.80
//!  hub distances                6.37           5.04           6.18
//!  tail entries                16.35           5.77          12.87
//!  records                      2.16           2.77           2.09
//!  whole image                 33.63          26.53          29.94
//! ```
//!
//! 64 is a constant, not a parameter. Measured with the format
//! generalised to `W` hub words, on the three graphs hopbench builds
//! (bytes per vertex for the whole image; ns per uniform / hub pair,
//! single thread, minimum of 15 passes of 65 536 pairs). The table
//! predates derivation and this format: it was measured on the previous
//! format's images without records (byte-wide hub distances, two
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
//! empty label, which reaches nothing. Every reader resolves exactly one
//! level, `dist(s, t) = min over pairs of off(s) + join(p(s), p(t)) +
//! off(t)` — no join when `p(s) = p(t)`, at most four joins — because a
//! parent always holds a label. The `records` byte of the flags word is
//! 1 exactly when some slot is a record, so an image of a graph with
//! nothing derived is byte for byte what it was before records existed.
//! A vertex whose record would not fit in 7 bytes ([`record_fits`]) is
//! simply labelled like any other vertex.
//!
//! Whole image, bytes per vertex, on the three graphs hopbench builds:
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
//! label it was asked about, and any failure is `InvalidData`.
//!
//! * **CRC first.** Every later rule then only has to hold against
//!   bytes the writer produced or an adversary crafted, not against
//!   random corruption — which would otherwise load and answer wrong.
//! * **Each directory is `n + 1` offsets, first 0, monotone, and the
//!   regions they span plus the trailer are exactly the file.** So
//!   `region[dir[v]..dir[v + 1]]` is in bounds for every `v < n`, and
//!   no byte of the file is unaccounted for.
//! * **The flags word holds a hub width of 4, 8, 16 or 32 bits and a
//!   tail shift of at most 32 under its parity bit.** The in-place
//!   reader's distance loads and its split of a tail varint know no
//!   other values. No single-bit flip of the width (a power of two) or
//!   of the shift byte is another valid byte, so the disk reader, which
//!   checks no CRC, still refuses every flipped flags bit at open.
//! * **A label is empty or at least 8 bytes, with `8 + ⌈bits ·
//!   popcount(hubs) / 8⌉ ≤ len`, and at 4 bits an odd count's pad
//!   nibble is zero.** The hub word and the distance of every set bit
//!   can be loaded without a length check, and a label has one
//!   encoding. A slot of 1–7 bytes is a record under the `records` flag
//!   and an error without it, and the flag is set only on an image that
//!   has a record.
//! * **A record is one or two pairs of complete varints of at most 5
//!   bytes and 32 bits filling its slot; each parent a vertex `< n`
//!   other than its own, whose slot on the same side is not a record, each offset below `INF_DIST`, and a
//!   second parent above the first.** The in-place reader decodes it
//!   without checks, reads each parent's slot as a label, never resolves
//!   a second level, and meets each parent once.
//! * **No hub bit `≥ n`, tail pivots `< n`.** Every pivot an
//!   in-place walk reports is a vertex id (the shard cutter indexes a
//!   histogram with them).
//! * **Every varint is complete inside its label, at most 10 bytes,
//!   at most 64 bits.** A varint read needs no end-of-label check per
//!   byte and cannot overflow a `u64` shift.
//! * **The tail is whole varints ending exactly at the label's end.**
//!   The merge loop compares its cursor with the end once per entry,
//!   before the entry, and never inside one.
//! * **Tail pivots strictly increase from 64.** Guaranteed by the
//!   `gap − 1` encoding itself as long as the sum stays below `n`,
//!   which is checked in saturating 64-bit arithmetic (a gap reaches
//!   2⁶⁴ − 1 at shift 0) so a crafted gap cannot wrap back onto a hub
//!   or onto its predecessor.
//!
//! ## Limits
//!
//! Offsets are `u32`, so one side's labels may span at most 4 GiB − 1
//! bytes — at the 1.2 bytes a label entry costs on the benchmark
//! graphs, over three billion entries. Past that
//! [`LabelIndex::write_hopidx`] returns `InvalidInput` ("… exceed the
//! 4 GiB a HOPIDX03 directory addresses") before writing a label. Any
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
//! checksum) and `HOPIDX02` (this layout with byte-wide hub distances
//! and a varint each for a tail entry's gap and distance) have no
//! reader: each is refused by name and must be rebuilt.

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

use extmem::wire::{self, Crc32};
use sfgraph::{Dist, VertexId, INF_DIST};

use crate::entry::LabelEntry;
use crate::index::{LabelIndex, Record, VertexLabels};

const MAGIC: &[u8; 8] = b"HOPIDX03";
/// Earlier formats: no reader, each refused by name.
const OLD_MAGICS: [&[u8; 8]; 2] = [b"HOPIDX01", b"HOPIDX02"];
/// Pivots below this are a bit in the label's hub word.
pub(crate) const HUBS: VertexId = 64;
/// Magic, flags word, vertex count.
pub(crate) const PREFIX_LEN: usize = 20;
/// Under the records flag, a label of 1 to this many bytes — shorter
/// than any label's hub word — is a record.
pub(crate) const RECORD_MAX: usize = 7;
const CRC_LEN: usize = 4;

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn unwritable(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// How an image packs its label distances; the writer picks both from
/// the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Widths {
    /// Bits per hub distance: 4, 8, 16 or 32.
    pub(crate) hub_bits: u32,
    /// Low bits of a tail entry's varint that hold its distance: 0 to 32.
    pub(crate) tail_shift: u32,
}

impl Widths {
    /// The narrowest widths that hold every distance of `sides`.
    fn of(sides: &[&[VertexLabels]]) -> Widths {
        let (mut hub_max, mut tail_max) = (0, 0);
        for l in sides.iter().flat_map(|side| side.iter()) {
            let (hubs, tail) = hubs_and_tail(l.entries());
            hub_max = hubs.iter().fold(hub_max, |max, e| e.dist.max(max));
            tail_max = tail.fold(tail_max, |max, (_, dist)| dist.max(max));
        }
        let hub_bits = match hub_max {
            0..=0xF => 4,
            0x10..=0xFF => 8,
            0x100..=0xFFFF => 16,
            _ => 32,
        };
        Widths { hub_bits, tail_shift: Dist::BITS - tail_max.leading_zeros() }
    }

    /// Bytes the distances of `hubs` hub entries take.
    #[inline(always)]
    pub(crate) fn hub_bytes(self, hubs: usize) -> usize {
        (hubs * self.hub_bits as usize).div_ceil(8)
    }

    /// A tail entry's varint from its `(pivot gap − 1, dist)`.
    fn tail_word(self, gap: u32, dist: Dist) -> u64 {
        (u64::from(gap) << self.tail_shift) | u64::from(dist)
    }

    /// A tail entry's `(pivot gap − 1, dist)` from its varint.
    #[inline(always)]
    pub(crate) fn split(self, word: u64) -> (u64, Dist) {
        (word >> self.tail_shift, (word & ((1u64 << self.tail_shift) - 1)) as Dist)
    }
}

/// Flags byte 11: the tail shift in bits 0–5, their parity in bit 7, so
/// that no single-bit flip of the byte is another valid one.
fn shift_byte(tail_shift: u8) -> u8 {
    tail_shift | ((tail_shift.count_ones() as u8 & 1) << 7)
}

/// The fixed 20-byte prefix of an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) directed: bool,
    pub(crate) widths: Widths,
    /// Whether some slots hold a record instead of a label.
    pub(crate) records: bool,
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
            _ => return Err(bad("not a HOPIDX03 image")),
        }
        let (Some([directed, hub_bits, records, shift]), Some(n)) =
            (wire::array_at::<4>(bytes, 8), wire::u64_at(bytes, 12))
        else {
            return Err(bad("invalid HOPIDX03 flags word"));
        };
        let tail_shift = shift & 0x3F;
        if directed > 1
            || records > 1
            || !matches!(hub_bits, 4 | 8 | 16 | 32)
            || tail_shift > 32
            || shift_byte(tail_shift) != shift
        {
            return Err(bad("invalid HOPIDX03 flags word"));
        }
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= VertexId::MAX as usize)
            .ok_or_else(|| bad("vertex count exceeds the u32 id space"))?;
        let widths = Widths { hub_bits: hub_bits.into(), tail_shift: tail_shift.into() };
        Ok(Header { directed: directed != 0, widths, records: records != 0, n })
    }

    fn sides(&self) -> usize {
        1 + self.directed as usize
    }

    /// Where the labels start — the length of prefix plus directories —
    /// or `None` when a crafted `n` overflows it.
    pub(crate) fn labels_at(&self) -> Option<usize> {
        self.n.checked_add(1)?.checked_mul(4 * self.sides())?.checked_add(PREFIX_LEN)
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
        let all_dirs = header
            .labels_at()
            .and_then(|labels_at| front.get(PREFIX_LEN..labels_at))
            .ok_or_else(|| bad("truncated offset directory"))?;
        let dir_len = all_dirs.len() / header.sides();
        let mut spans = [0usize; 2];
        for (span, dir) in spans.iter_mut().zip(all_dirs.chunks_exact(dir_len)) {
            *span = check_directory(dir)? as usize;
        }
        let labels_at = PREFIX_LEN + all_dirs.len();
        let [out_span, in_span] = spans;
        if (labels_at + CRC_LEN) as u64 + out_span as u64 + in_span as u64 != total_len {
            return Err(bad("image length does not match its offset directories"));
        }
        Ok(if header.directed {
            Layout {
                header,
                dirs: [PREFIX_LEN, PREFIX_LEN + dir_len],
                bases: [labels_at, labels_at + out_span],
            }
        } else {
            Layout { header, dirs: [PREFIX_LEN; 2], bases: [labels_at; 2] }
        })
    }

    /// Where label `v` of `side` lies in the image, read from the
    /// directories in `front` (the image, or at least its first
    /// [`Header::labels_at`] bytes); `None` when `v` is not a vertex.
    pub(crate) fn span(&self, front: &[u8], side: usize, v: usize) -> Option<Range<usize>> {
        let (dir, base) = (*self.dirs.get(side)?, *self.bases.get(side)?);
        let at = (v < self.header.n).then_some(dir + 4 * v)?;
        let (lo, hi) = (wire::u32_at(front, at)?, wire::u32_at(front, at + 4)?);
        Some(base + lo as usize..base + hi as usize)
    }

    /// The bytes of label `v` on `side`, by the checked route.
    pub(crate) fn label<'a>(&self, bytes: &'a [u8], side: usize, v: usize) -> Option<&'a [u8]> {
        bytes.get(self.span(bytes, side, v)?)
    }
}

/// One side's directory must start at 0 and never step back; returns
/// its last offset, the byte length of the side's labels.
fn check_directory(dir: &[u8]) -> io::Result<u32> {
    let mut prev = 0u32;
    for (v, off) in wire::u32s(dir).enumerate() {
        if off < prev || (v == 0 && off != 0) {
            return Err(bad("offset directory not monotone from zero"));
        }
        prev = off;
    }
    Ok(prev)
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

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Hub distance `rank` of the packed distances `dists`, or `None` past
/// their end.
fn hub_dist(dists: &[u8], rank: usize, bits: u32) -> Option<Dist> {
    match bits {
        4 => wire::u8_at(dists, rank / 2).map(|b| Dist::from((b >> (4 * (rank % 2))) & 0xF)),
        8 => wire::u8_at(dists, rank).map(Dist::from),
        16 => wire::array_at(dists, 2 * rank).map(|b| Dist::from(u16::from_le_bytes(b))),
        _ => wire::u32_at(dists, 4 * rank),
    }
}

/// The checked decoder: call `f(pivot, dist)` for every entry of one
/// encoded label, in pivot order, enforcing every per-label rule of the
/// module docs against `widths` and `n`.
pub(crate) fn walk_label(
    label: &[u8],
    widths: Widths,
    n: usize,
    mut f: impl FnMut(VertexId, Dist),
) -> io::Result<()> {
    if label.is_empty() {
        return Ok(());
    }
    let hubs = wire::u64_at(label, 0).ok_or_else(|| bad("label shorter than its hub word"))?;
    if n < HUBS as usize && hubs >> n != 0 {
        return Err(bad("hub pivot out of range"));
    }
    let count = hubs.count_ones() as usize;
    let tail_at = 8 + widths.hub_bytes(count);
    let dists = label.get(8..tail_at).ok_or_else(|| bad("hub distances run past the label"))?;
    if widths.hub_bits == 4 && count % 2 == 1 && dists.last().is_some_and(|&b| b >> 4 != 0) {
        return Err(bad("non-zero pad nibble after the hub distances"));
    }
    let mut rest = hubs;
    for rank in 0..count {
        let dist = hub_dist(dists, rank, widths.hub_bits)
            .ok_or_else(|| bad("hub distances run past the label"))?;
        f(rest.trailing_zeros(), dist);
        rest &= rest - 1;
    }
    let (mut at, mut pivot) = (tail_at, u64::from(HUBS) - 1);
    while at < label.len() {
        let (gap, dist) = widths.split(varint(label, &mut at)?);
        pivot = pivot.saturating_add(gap).saturating_add(1);
        if pivot >= n as u64 {
            return Err(bad("label pivot out of range"));
        }
        f(pivot as VertexId, dist);
    }
    Ok(())
}

/// Whether `label` has a record's length: 1 to [`RECORD_MAX`] bytes.
#[inline]
pub(crate) fn is_record(label: &[u8]) -> bool {
    label.len().wrapping_sub(1) < RECORD_MAX
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
/// dist)` has seen every entry of its label.
pub(crate) fn walk_slot(
    label: &[u8],
    v: usize,
    header: &Header,
    f: impl FnMut(VertexId, Dist),
) -> io::Result<Option<Record>> {
    if header.records && is_record(label) {
        return read_record(label, v, header.n).map(Some);
    }
    walk_label(label, header.widths, header.n, f).map(|()| None)
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

/// Split a label (sorted by pivot, pivots unique — the [`VertexLabels`]
/// invariant) into its hub entries and, per tail entry, `(pivot gap −
/// 1, dist)`.
fn hubs_and_tail(
    entries: &[LabelEntry],
) -> (&[LabelEntry], impl Iterator<Item = (u32, Dist)> + '_) {
    let (hubs, tail) = entries.split_at(entries.partition_point(|e| e.pivot < HUBS));
    let mut prev = HUBS - 1;
    (hubs, tail.iter().map(move |e| (e.pivot - std::mem::replace(&mut prev, e.pivot) - 1, e.dist)))
}

/// Bytes [`encode_label`] appends for this slot.
fn encoded_len(label: &VertexLabels, widths: Widths) -> usize {
    if let Some(r) = label.record() {
        return record_len(r.pairs());
    }
    if label.is_empty() {
        return 0;
    }
    let (hubs, tail) = hubs_and_tail(label.entries());
    8 + widths.hub_bytes(hubs.len())
        + tail.map(|(gap, dist)| varint_len(widths.tail_word(gap, dist))).sum::<usize>()
}

/// The encoder: append one slot — a record or a label — to `out`.
pub(crate) fn encode_label(label: &VertexLabels, widths: Widths, out: &mut Vec<u8>) {
    if let Some(r) = label.record() {
        for &(parent, offset) in r.pairs() {
            put_varint(parent.into(), out);
            put_varint(offset.into(), out);
        }
        return;
    }
    if label.is_empty() {
        return;
    }
    let (hubs, tail) = hubs_and_tail(label.entries());
    let word = hubs.iter().fold(0u64, |w, e| w | 1 << e.pivot);
    out.extend_from_slice(&word.to_le_bytes());
    match widths.hub_bits {
        // Two to a byte, low nibble first; an odd count pads with zero.
        4 => out.extend(
            hubs.chunks(2)
                .map(|pair| pair.iter().rev().fold(0u8, |byte, e| (byte << 4) | e.dist as u8)),
        ),
        8 => out.extend(hubs.iter().map(|e| e.dist as u8)),
        16 => out.extend(hubs.iter().flat_map(|e| (e.dist as u16).to_le_bytes())),
        _ => out.extend(hubs.iter().flat_map(|e| e.dist.to_le_bytes())),
    }
    for (gap, dist) in tail {
        put_varint(widths.tail_word(gap, dist), out);
    }
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
    /// Serialize the index as a `HOPIDX03` image into `w` — the only
    /// serializer of the format. A scan of the entries for the distance
    /// widths, then two passes over the labels (sizes for the
    /// directories, then bytes) through a fixed-size buffer, the CRC
    /// folded in as the bytes go: the external build bounds its
    /// memory, and writing its result must not double the index.
    /// Flushes `w` and returns the image length in bytes. An index no
    /// image can hold — a pivot that is not a vertex id, a side past
    /// the 4 GiB offset range — is `InvalidInput`, found in the first
    /// pass.
    pub fn write_hopidx(&self, w: &mut impl Write) -> io::Result<u64> {
        let sides = self.sides();
        let (n, widths) = (self.num_vertices(), Widths::of(&sides));
        let records = sides.iter().flat_map(|side| side.iter()).any(|l| l.record().is_some());
        let mut image = ImageWriter {
            w,
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES + 1024),
            crc: Crc32::default(),
            len: 0,
        };
        image.buf.extend_from_slice(MAGIC);
        let Widths { hub_bits, tail_shift } = widths;
        let flags =
            [self.is_directed() as u8, hub_bits as u8, records as u8, shift_byte(tail_shift as u8)];
        image.buf.extend_from_slice(&flags);
        image.buf.extend_from_slice(&(n as u64).to_le_bytes());
        for side in &sides {
            let mut at = 0u32;
            image.buf.extend_from_slice(&at.to_le_bytes());
            for (v, l) in side.iter().enumerate() {
                if l.entries().last().is_some_and(|e| e.pivot as usize >= n) {
                    return Err(unwritable("a label cites a pivot that is not a vertex id"));
                }
                if let Some(record) = l.record() {
                    let pairs = record.pairs();
                    let to_labels = pairs.iter().all(|&(parent, _)| {
                        parent as usize != v
                            && side.get(parent as usize).is_some_and(|p| p.record().is_none())
                    });
                    let ascending = pairs.is_sorted_by(|a, b| a.0 < b.0);
                    if !to_labels || !ascending || !record_fits(&record) {
                        return Err(unwritable(
                            "a record must name other vertices' labels, ascending, in 7 bytes",
                        ));
                    }
                }
                at = u32::try_from(encoded_len(l, widths))
                    .ok()
                    .and_then(|len| at.checked_add(len))
                    .ok_or_else(|| {
                        unwritable(
                            "one side's labels exceed the 4 GiB a HOPIDX03 directory addresses",
                        )
                    })?;
                image.buf.extend_from_slice(&at.to_le_bytes());
                image.drain(WRITE_BUFFER_BYTES)?;
            }
        }
        for l in sides.iter().flat_map(|side| side.iter()) {
            encode_label(l, widths, &mut image.buf);
            image.drain(WRITE_BUFFER_BYTES)?;
        }
        image.drain(0)?;
        let crc = image.crc.finish();
        image.w.write_all(&crc.to_le_bytes())?;
        image.w.flush()?;
        Ok(image.len + CRC_LEN as u64)
    }
}

/// The total validator of the module docs. Returns where things are and
/// how many entries the image holds.
pub(crate) fn validate(bytes: &[u8]) -> io::Result<(Layout, usize)> {
    // Name the format before checksumming: an old image should be told
    // to rebuild, not that it is corrupt.
    Header::parse(bytes)?;
    let body_len = bytes.len().saturating_sub(CRC_LEN);
    let stored = wire::u32_at(bytes, body_len).ok_or_else(|| bad("truncated HOPIDX03 image"))?;
    if bytes.get(..body_len).map(wire::crc32) != Some(stored) {
        return Err(bad("HOPIDX03 checksum mismatch"));
    }
    let layout = Layout::parse(bytes, bytes.len() as u64)?;
    let header = layout.header;
    let (mut entries, mut records) = (0usize, false);
    for side in 0..header.sides() {
        for v in 0..header.n {
            let label = layout.label(bytes, side, v).ok_or_else(|| bad("label out of bounds"))?;
            if let Some(r) = walk_slot(label, v, &header, |_, _| entries += 1)? {
                for &(parent, _) in r.pairs() {
                    if layout.label(bytes, side, parent as usize).is_none_or(is_record) {
                        return Err(bad("a record's parent holds a record"));
                    }
                }
                records = true;
            }
        }
    }
    if header.records && !records {
        return Err(bad("records flag set on an image without records"));
    }
    Ok((layout, entries))
}

/// Decode slot `v` of a side through the checked decoder.
pub(crate) fn decode_slot(label: &[u8], v: usize, header: &Header) -> io::Result<VertexLabels> {
    let mut entries = Vec::new();
    let record =
        walk_slot(label, v, header, |pivot, dist| entries.push(LabelEntry::new(pivot, dist)))?;
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
                decode_slot(label, v, &header)
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
    use crate::index::{DirectedLabels, UndirectedLabels};
    use proptest::prelude::*;
    use sfgraph::INF_DIST;

    fn label_of(entries: &[(VertexId, Dist)]) -> VertexLabels {
        VertexLabels::from_entries(entries.iter().map(|&(p, d)| LabelEntry::new(p, d)).collect())
    }

    /// Encode `label` at the widths the writer would pick for it, then
    /// read it back both ways: the checked decoder, and — once that has
    /// accepted it — the in-place cursor queries use. Returns the widths.
    fn assert_roundtrip(label: &VertexLabels, n: usize) -> Widths {
        let widths = Widths::of(&[std::slice::from_ref(label)]);
        let mut bytes = Vec::new();
        encode_label(label, widths, &mut bytes);
        assert_eq!(bytes.len(), encoded_len(label, widths));
        assert_eq!(bytes.is_empty(), label.is_empty(), "an empty label is zero bytes");
        let mut decoded = Vec::new();
        walk_label(&bytes, widths, n, |p, d| decoded.push(LabelEntry::new(p, d))).unwrap();
        assert_eq!(decoded, label.entries(), "checked decode, n = {n}");
        // SAFETY: `walk_label` has just accepted `bytes` at `widths`.
        let in_place = unsafe { decode_in_place(&bytes, widths) };
        assert_eq!(in_place, label.entries(), "in place, n = {n}");
        widths
    }

    #[test]
    fn labels_round_trip_at_every_shape() {
        let all_hubs: Vec<_> = (0..64).map(|p| (p, p + 1)).collect();
        let all_tail: Vec<_> = (64..200).map(|p| (p, 3)).collect();
        // One hub, then tail entries at distance 2 (shift 2) whose
        // `gap − 1` makes a varint of 1, 2, 3, 4 and 5 bytes.
        let mut gaps = vec![(63, 1)];
        for (i, gap) in [1u32, 1 + (1 << 5), 1 + (1 << 12), 1 + (1 << 19), 1 + (1 << 26)]
            .into_iter()
            .enumerate()
        {
            gaps.push((gaps[i].0 + gap, 2));
        }
        let widths = Widths { hub_bits: 4, tail_shift: 2 };
        let mut bytes = Vec::new();
        encode_label(&label_of(&gaps), widths, &mut bytes);
        assert_eq!(bytes.len(), 8 + 1 + (1 + 2 + 3 + 4 + 5));
        for (entries, n) in [
            (vec![], 0),
            (vec![], 1),
            (vec![(0, 0)], 1),
            (all_hubs[..63].to_vec(), 63),
            (all_hubs.clone(), 64),
            (all_hubs.iter().copied().chain([(64, 9)]).collect(), 65),
            (all_tail, 70_000),
            (vec![(69_999, 1)], 70_000),
            // Ending in a two-byte varint (word 100 << 1 | 1).
            (vec![(63, 1), (164, 1)], 70_000),
            (vec![(u32::MAX - 1, 1)], u32::MAX as usize),
        ] {
            assert_roundtrip(&label_of(&entries), n);
        }
        assert_eq!(assert_roundtrip(&label_of(&gaps), u32::MAX as usize), widths);
    }

    #[test]
    fn distances_pick_the_hub_width_and_the_tail_shift() {
        for (dist, bits) in [
            (0, 4),
            (15, 4),
            (16, 8),
            (255, 8),
            (256, 16),
            (65_535, 16),
            (65_536, 32),
            (INF_DIST - 1, 32),
        ] {
            let hub = label_of(&[(0, 1), (7, dist), (63, 0), (64, 2)]);
            let widths = assert_roundtrip(&hub, 100);
            assert_eq!(widths, Widths { hub_bits: bits, tail_shift: 2 }, "hub distance {dist}");
        }
        for (dist, shift) in [(0, 0), (1, 1), (7, 3), (8, 4), (INF_DIST - 1, 32)] {
            let tail = label_of(&[(5, 1), (64, dist), (90, dist)]);
            let widths = assert_roundtrip(&tail, 100);
            assert_eq!(widths, Widths { hub_bits: 4, tail_shift: shift }, "tail distance {dist}");
        }
        // Two 4-bit distances to a byte, low nibble first; an odd count
        // pads the last byte's high nibble with zero.
        let mut bytes = Vec::new();
        encode_label(&label_of(&[(0, 1), (1, 2), (2, 3)]), Widths::of(&[]), &mut bytes);
        assert_eq!(bytes, [&0b111u64.to_le_bytes()[..], &[0x21, 0x03]].concat());
    }

    #[test]
    fn tail_varints_round_trip_at_every_length_step() {
        // At shifts 0, 3 and 32, a tail word on each side of every
        // varint-length step that a pivot below `u32::MAX` reaches:
        // 2^(7m) − 1 takes m bytes and 2^(7m) takes m + 1, up to the
        // 10-byte varint of 2^63.
        for shift in [0u32, 3, 32] {
            // A last entry at gap 0 whose distance has `shift` bits pins
            // the shift.
            let pin = (1u64 << shift) >> 1;
            for m in 1..=9 {
                for (word, len) in [((1u64 << (7 * m)) - 1, m), (1 << (7 * m), m + 1)] {
                    let (gap, dist) = Widths { hub_bits: 4, tail_shift: shift }.split(word);
                    let Some(pivot) = u32::try_from(gap + 64).ok().filter(|&p| p < u32::MAX - 1)
                    else {
                        continue;
                    };
                    let label = label_of(&[(0, 1), (pivot, dist), (pivot + 1, pin as Dist)]);
                    let widths = assert_roundtrip(&label, u32::MAX as usize);
                    assert_eq!(widths.tail_shift, shift, "word {word:#x}");
                    assert_eq!(
                        encoded_len(&label, widths),
                        8 + 1 + len + varint_len(pin),
                        "word {word:#x} at shift {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_single_bit_flip_of_a_width_byte_is_another_valid_one() {
        // The disk reader reads no CRC: byte 9 (the hub width) and byte
        // 11 (the tail shift) must refuse every flip of every value the
        // writer can produce.
        for (bits, shift) in
            [4u8, 8, 16, 32].into_iter().flat_map(|b| (0..=32).map(move |s| (b, s)))
        {
            let mut prefix = MAGIC.to_vec();
            prefix.extend_from_slice(&[0, bits, 0, shift_byte(shift)]);
            prefix.extend_from_slice(&1u64.to_le_bytes());
            let header = Header::parse(&prefix).unwrap();
            assert_eq!(header.widths, Widths { hub_bits: bits.into(), tail_shift: shift.into() });
            for (byte, bit) in
                [9, 11].into_iter().flat_map(|byte| (0..8).map(move |bit| (byte, bit)))
            {
                let mut flipped = prefix.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    Header::parse(&flipped).is_err(),
                    "bits {bits} shift {shift}: byte {byte} bit {bit}"
                );
            }
        }
    }

    fn whole_image_round_trips(index: &LabelIndex) {
        let mut image = Vec::new();
        let len = index.write_hopidx(&mut image).unwrap();
        assert_eq!(len, image.len() as u64);
        assert_eq!(&read_index(&image).unwrap(), index);
        let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
        assert_eq!(
            (flat.resident_bytes(), flat.total_entries()),
            (image.len(), index.total_entries())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_sorted_labels_round_trip(
            (pick, raw) in (0usize..5, proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..300))
        ) {
            let n = [1usize, 63, 64, 65, 70_000][pick];
            // Pivots anywhere in 0..n with a bias to the front, where
            // the hub word and the short gaps are; distances across all
            // three widths.
            let entries: Vec<_> = raw
                .iter()
                .map(|&(p, d)| {
                    let pivot = if d % 3 == 0 { p % n as u32 } else { p % (n as u32).min(200) };
                    (pivot, d >> (d % 32))
                })
                .collect();
            let label = label_of(&entries);
            assert_roundtrip(&label, n);
            // And inside a whole image, as `L(0)` and as `Lin(n - 1)`.
            let mut labels = vec![VertexLabels::new(); n];
            labels[0] = label.clone();
            whole_image_round_trips(&LabelIndex::Undirected(UndirectedLabels {
                labels: labels.clone(),
            }));
            labels.swap(0, n - 1);
            whole_image_round_trips(&LabelIndex::Directed(DirectedLabels {
                out_labels: vec![VertexLabels::new(); n],
                in_labels: labels,
            }));
        }
    }

    #[test]
    fn the_writer_refuses_what_no_image_can_hold() {
        let mut idx = LabelIndex::new_undirected(2);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[1].insert_min(LabelEntry::new(2, 1)); // not a vertex
        }
        let err = idx.write_hopidx(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");

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
            let idx = LabelIndex::Undirected(UndirectedLabels { labels });
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
        let idx = LabelIndex::Undirected(UndirectedLabels { labels });
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
        let without = LabelIndex::Undirected(UndirectedLabels { labels: labels.clone() });
        labels[2] = VertexLabels::from_record(Record::new(&[(0, 5)]));
        labels[3] = VertexLabels::from_record(Record::new(&[(1, 70_000)]));
        labels[4] = VertexLabels::from_record(Record::new(&[(0, 3), (1, 200)]));
        let with = LabelIndex::Undirected(UndirectedLabels { labels: labels.clone() });
        let mut out_labels = labels;
        let mut in_labels = out_labels.clone();
        in_labels[3] = VertexLabels::new();
        in_labels[4] = VertexLabels::from_record(Record::new(&[(1, 2)]));
        out_labels[2] = VertexLabels::new();
        let directed = LabelIndex::Directed(DirectedLabels { out_labels, in_labels });
        for (idx, records) in [(&without, 0), (&with, 1), (&directed, 1)] {
            let mut image = Vec::new();
            idx.write_hopidx(&mut image).unwrap();
            assert_eq!(image[10], records, "the flags word's records bit");
            whole_image_round_trips(idx);
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
        // And a HOPIDX02 one: byte-wide hub distances, a zero reserved
        // byte, a two-slot directory, its CRC.
        let mut v02 = b"HOPIDX02".to_vec();
        v02.extend_from_slice(&[0, 1, 0, 0]);
        v02.extend_from_slice(&1u64.to_le_bytes());
        v02.extend_from_slice(&[0u8; 8]);
        v02.extend_from_slice(&wire::crc32(&v02).to_le_bytes());
        for (old, name) in [(&v01, "HOPIDX01"), (&v02, "HOPIDX02")] {
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
        for junk in [&b"HOPIDX03........"[..], b"HOPIDX04........"] {
            assert!(!validate(junk).unwrap_err().to_string().contains("rebuild"));
        }
    }
}
