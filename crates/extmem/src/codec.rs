//! Chunk-local delta coding of label records.
//!
//! A run (see [`crate::run`]) is a sequence of *chunks* of whole
//! records, each at most one block. A chunk's first record is three
//! varints — key, pivot, distance — so a reader can start at any chunk.
//! Each later record opens with one varint whose low bit says whether
//! the key changed from the record before. Clear, the key repeats: the
//! rest of that varint is the pivot's zigzag delta, and the distance
//! follows plainly. Set, the rest is the key's zigzag delta, and the
//! pivot and the distance follow plainly. A key-sorted label run holds
//! a dozen or more records a key, so most records take two bytes where
//! a fixed layout would take twelve (the paper stores a 32-bit id and
//! an 8-bit distance; 32-bit distances stay for weighted graphs, at no
//! cost to unweighted ones). Zigzag keeps any record sequence, sorted
//! or not, codable.
//!
//! Decoding is total: bytes that do not decode are a `Malformed`,
//! never a panic or a wrong record.

use std::fmt;

use crate::wire::put_varint;

/// The most bytes one record takes: three five-byte varints.
pub(crate) const MAX_RECORD_BYTES: usize = 15;

/// One label entry on disk: label set owner `key`, entry pivot, distance.
///
/// Sorting `LabelRecord`s by `(key, pivot)` groups each vertex's label
/// contiguously with pivots in rank order — exactly the layout the
/// generation and pruning joins of §4 need.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelRecord {
    /// The vertex whose label this entry belongs to.
    pub key: u32,
    /// The pivot vertex of the entry.
    pub pivot: u32,
    /// Path length covered by the entry.
    pub dist: u32,
}

impl LabelRecord {
    /// Construct a record.
    pub fn new(key: u32, pivot: u32, dist: u32) -> LabelRecord {
        LabelRecord { key, pivot, dist }
    }

    /// The record with key and pivot swapped — reindexes a label file
    /// from "sorted by owner" to "sorted by pivot" (the inverted label
    /// files of §4.1).
    pub fn inverted(self) -> LabelRecord {
        LabelRecord { key: self.pivot, pivot: self.key, dist: self.dist }
    }
}

/// Why bytes do not decode as records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Malformed {
    /// A varint runs past five bytes.
    LongVarint,
    /// A varint holds more than the 32 bits of its field.
    WideVarint,
    /// A key or pivot delta takes its field outside `u32`.
    DeltaOutOfRange,
    /// The chunk ends inside a record.
    Truncated,
    /// The chunk holds another number of records than its directory
    /// entry says.
    CountMismatch,
}

impl fmt::Display for Malformed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Malformed::LongVarint => "a varint runs past 5 bytes",
            Malformed::WideVarint => "a varint holds more than 32 bits",
            Malformed::DeltaOutOfRange => "a key or pivot delta leaves u32",
            Malformed::Truncated => "a chunk ends mid-record",
            Malformed::CountMismatch => "a chunk's record count disagrees with the directory",
        })
    }
}

impl Malformed {
    /// The `InvalidData` error a reader of the run `run` returns.
    pub(crate) fn in_run(self, run: &std::path::Path) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {self}", run.display()))
    }
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Append `record` to `out`: coded absolutely when it opens a chunk
/// (`prev` is `None`), against `prev`, the record before it in its
/// chunk, otherwise. Appends at most [`MAX_RECORD_BYTES`].
pub(crate) fn encode(record: LabelRecord, prev: Option<LabelRecord>, out: &mut Vec<u8>) {
    let delta = |to: u32, from: u32| zigzag(i64::from(to) - i64::from(from));
    let dist = u64::from(record.dist);
    match prev {
        Some(p) if p.key == record.key => {
            let a = delta(record.pivot, p.pivot) << 1;
            if (a | dist) < 0x80 {
                out.extend_from_slice(&[a as u8, dist as u8]);
                return;
            }
            put_varint(a, out);
        }
        _ => {
            let key = prev.map_or(u64::from(record.key), |p| delta(record.key, p.key) << 1 | 1);
            put_varint(key, out);
            put_varint(u64::from(record.pivot), out);
        }
    }
    put_varint(dist, out);
}

/// The varint at `bytes[*at..]`, at most five bytes; `None` when the
/// bytes end inside it.
#[inline(always)]
fn varint(bytes: &[u8], at: &mut usize) -> Result<Option<u64>, Malformed> {
    let mut value = 0u64;
    for i in 0..5 {
        let Some(&byte) = bytes.get(*at + i) else { return Ok(None) };
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            *at += i + 1;
            return Ok(Some(value));
        }
    }
    Err(Malformed::LongVarint)
}

#[inline(always)]
fn word(value: u64) -> Result<u32, Malformed> {
    u32::try_from(value).map_err(|_| Malformed::WideVarint)
}

#[inline(always)]
fn shift(base: u32, zigzagged: u64) -> Result<u32, Malformed> {
    // A five-byte varint holds 35 bits: the delta fits an i64 either way.
    let delta = (zigzagged >> 1) as i64 ^ -((zigzagged & 1) as i64);
    u32::try_from(i64::from(base) + delta).map_err(|_| Malformed::DeltaOutOfRange)
}

/// Decode the record at the head of `bytes`, coded against `prev` (see
/// [`encode`]): the record and the bytes it took, or `None` when `bytes`
/// end inside it.
#[inline(always)]
fn decode(
    bytes: &[u8],
    prev: Option<LabelRecord>,
) -> Result<Option<(LabelRecord, usize)>, Malformed> {
    if let (Some(p), &[a, c, ..]) = (prev, bytes) {
        // Most records of a sorted run: the key repeats, and the pivot
        // delta and the distance take a byte each.
        if (a | c) < 0x80 && a & 1 == 0 {
            let pivot = shift(p.pivot, u64::from(a >> 1))?;
            return Ok(Some((LabelRecord::new(p.key, pivot, u32::from(c)), 2)));
        }
    }
    let mut at = 0;
    let Some(a) = varint(bytes, &mut at)? else { return Ok(None) };
    let same_key = prev.is_some() && a & 1 == 0;
    let b = if same_key {
        0
    } else {
        let Some(pivot) = varint(bytes, &mut at)? else { return Ok(None) };
        pivot
    };
    let Some(c) = varint(bytes, &mut at)? else { return Ok(None) };
    let (key, pivot) = match prev {
        None => (word(a)?, word(b)?),
        Some(p) if same_key => (p.key, shift(p.pivot, a >> 1)?),
        Some(p) => (shift(p.key, a >> 1)?, word(b)?),
    };
    Ok(Some((LabelRecord::new(key, pivot, word(c)?), at)))
}

/// Where a decoder stands in a chunk: the record before, and the records
/// and bytes of the chunk its directory entry says are still to come.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkCursor {
    prev: Option<LabelRecord>,
    records: u64,
    bytes: u64,
}

impl ChunkCursor {
    /// At the start of a chunk of `records` records in `bytes` bytes.
    pub(crate) fn new(records: u64, bytes: u64) -> ChunkCursor {
        ChunkCursor { prev: None, records, bytes }
    }

    /// Whether every record of the chunk has been decoded.
    pub(crate) fn is_done(&self) -> bool {
        self.records == 0
    }

    /// Decode the chunk's next record from `input`, the bytes that follow
    /// the last one decoded — all that is left of the chunk, or a prefix
    /// of it. Returns the record and the bytes it took, or `None` when
    /// `input` is a prefix that ends inside the record: the caller
    /// brings more bytes. Once [`ChunkCursor::is_done`], returns `None`.
    #[inline(always)]
    pub(crate) fn next(&mut self, input: &[u8]) -> Result<Option<(LabelRecord, usize)>, Malformed> {
        if self.records == 0 {
            return Ok(None);
        }
        let (chunk_ends, input) = match usize::try_from(self.bytes) {
            Ok(left) if left <= input.len() => (true, &input[..left]),
            _ => (false, input),
        };
        let Some((record, used)) = decode(input, self.prev)? else {
            return if chunk_ends { Err(Malformed::Truncated) } else { Ok(None) };
        };
        self.prev = Some(record);
        self.records -= 1;
        self.bytes -= used as u64;
        if (self.records == 0) != (self.bytes == 0) {
            return Err(Malformed::CountMismatch);
        }
        Ok(Some((record, used)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: u32 = u32::MAX;

    /// Decode a whole chunk that its directory entry says holds `count`
    /// records, as a run reader does with the chunk in its buffer.
    fn decode_chunk(bytes: &[u8], count: u64) -> Result<Vec<LabelRecord>, Malformed> {
        if count == 0 && !bytes.is_empty() {
            return Err(Malformed::CountMismatch);
        }
        let mut cursor = ChunkCursor::new(count, bytes.len() as u64);
        let (mut out, mut at) = (Vec::new(), 0);
        while let Some((record, used)) = cursor.next(&bytes[at..])? {
            out.push(record);
            at += used;
        }
        Ok(out)
    }

    /// Encode `records` as one chunk, as a run writer does.
    fn encode_chunk(records: &[LabelRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = None;
        for &record in records {
            encode(record, prev, &mut out);
            prev = Some(record);
        }
        out
    }

    #[test]
    fn roundtrip() {
        let r = LabelRecord::new(7, 42, 123_456);
        for prev in [None, Some(LabelRecord::new(7, 40, 1)), Some(LabelRecord::new(9, 0, 0))] {
            let mut buf = Vec::new();
            encode(r, prev, &mut buf);
            assert!(buf.len() <= MAX_RECORD_BYTES);
            assert_eq!(decode(&buf, prev), Ok(Some((r, buf.len()))));
            assert_eq!(decode(&buf[..buf.len() - 1], prev), Ok(None));
        }
    }

    #[test]
    fn ordering_groups_by_key_then_pivot() {
        let mut v =
            [LabelRecord::new(2, 1, 0), LabelRecord::new(1, 9, 0), LabelRecord::new(1, 3, 5)];
        v.sort();
        assert_eq!(v[0], LabelRecord::new(1, 3, 5));
        assert_eq!(v[1], LabelRecord::new(1, 9, 0));
        assert_eq!(v[2], LabelRecord::new(2, 1, 0));
    }

    #[test]
    fn inverted_swaps() {
        let r = LabelRecord::new(3, 8, 2).inverted();
        assert_eq!(r, LabelRecord::new(8, 3, 2));
    }

    /// In a sorted label run, a record whose key repeats takes two bytes
    /// (flag and pivot delta, distance) and one that opens a key three
    /// (flag and key delta, pivot, distance).
    #[test]
    fn a_sorted_label_group_codes_small() {
        let mut run: Vec<LabelRecord> = (0..10).map(|p| LabelRecord::new(500, 2 * p, 3)).collect();
        let bytes = encode_chunk(&run);
        assert_eq!(bytes.len(), 4 + 9 * 2);
        assert_eq!(bytes[4..6], [8, 3], "pivot delta +2 zigzags to 4, shifted past the flag");
        run.push(LabelRecord::new(501, 7, 3));
        let bytes = encode_chunk(&run);
        assert_eq!(bytes.len(), 4 + 9 * 2 + 3);
        assert_eq!(bytes[22..], [5, 7, 3], "key delta +1 zigzags to 2, shifted, flag set");
        assert_eq!(decode_chunk(&bytes, 11).unwrap(), run);
    }

    /// Small deterministic draws, so the round trips below need no crate.
    fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut x = seed;
        move |n| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        }
    }

    /// Record sequences every coding rule meets: unsorted keys, long
    /// equal-key groups, descending pivots, and `u32::MAX` in every
    /// field, the distance `saturating_add` produces included.
    fn sequences() -> Vec<Vec<LabelRecord>> {
        let r = LabelRecord::new;
        let mut draw = draws(0xc0de);
        let mut field = move |pick: u64| match pick {
            0 => 0,
            1 => MAX,
            2 => MAX - 1,
            3 => 1 << 31,
            4 => MAX.saturating_add(5),
            _ => draw(1 << 20) as u32,
        };
        let mut shapes = vec![
            vec![],
            vec![r(MAX, MAX, MAX)],
            vec![r(0, 0, 0), r(MAX, MAX, MAX), r(0, 0, 0), r(MAX, 0, MAX), r(MAX, MAX, 0)],
            vec![r(7, MAX, 1), r(7, 0, 2), r(7, MAX, 3), r(6, 5, 4), r(MAX, 5, 5)],
            // One key, pivots falling.
            (0..120).map(|i| r(42, 1000 - 3 * i, i % 7)).collect(),
            // Keys falling, each a short group of rising pivots.
            (0..80).map(|i| r(10_000 - i / 4, i % 4, MAX.saturating_add(i))).collect(),
        ];
        let mut picks = draws(0xfeed);
        for _ in 0..20 {
            let len = picks(40) as usize;
            shapes.push(
                (0..len).map(|_| r(field(picks(8)), field(picks(8)), field(picks(8)))).collect(),
            );
        }
        shapes
    }

    #[test]
    fn every_record_sequence_round_trips_as_one_chunk() {
        for records in sequences() {
            let bytes = encode_chunk(&records);
            assert!(bytes.len() <= records.len() * MAX_RECORD_BYTES);
            assert_eq!(decode_chunk(&bytes, records.len() as u64).unwrap(), records);
        }
    }

    /// Cut at every record position into chunks: each decodes on its
    /// own, so a reader can start at any of them.
    #[test]
    fn a_chunk_can_start_at_every_record() {
        for records in sequences() {
            for cut in 0..records.len() {
                let (head, tail) = records.split_at(cut);
                for part in [head, tail] {
                    let bytes = encode_chunk(part);
                    assert_eq!(decode_chunk(&bytes, part.len() as u64).unwrap(), part);
                }
            }
        }
    }

    /// A chunk decoded from prefixes of every length — the bytes a
    /// reader's buffer holds when a record straddles its end — gives the
    /// records the whole chunk gives.
    #[test]
    fn prefixes_ask_for_more_bytes_and_never_misdecode() {
        for records in sequences().into_iter().filter(|s| !s.is_empty()) {
            let bytes = encode_chunk(&records);
            let mut cursor = ChunkCursor::new(records.len() as u64, bytes.len() as u64);
            let (mut got, mut at, mut window) = (Vec::new(), 0, 1);
            while !cursor.is_done() {
                let end = (at + window).min(bytes.len());
                match cursor.next(&bytes[at..end]).unwrap() {
                    Some((record, used)) => {
                        got.push(record);
                        at += used;
                        window = 1;
                    }
                    None => window += 1,
                }
            }
            assert_eq!((got, at), (records, bytes.len()));
        }
    }

    fn malformed(bytes: &[u8], count: u64) -> Malformed {
        decode_chunk(bytes, count).expect_err("must not decode")
    }

    #[test]
    fn each_malformation_is_named() {
        let chunk = encode_chunk(&[LabelRecord::new(5, 6, 7), LabelRecord::new(9, 1, 2)]);
        assert_eq!(
            malformed(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0, 0], 1),
            Malformed::LongVarint
        );
        // 2^32 in five bytes: one bit too wide for a key.
        assert_eq!(malformed(&[0x80, 0x80, 0x80, 0x80, 0x10, 0, 0], 1), Malformed::WideVarint);
        // Pivot 0, then the same key with a pivot delta of −1.
        assert_eq!(malformed(&[5, 0, 0, 2, 0], 2), Malformed::DeltaOutOfRange);
        // Pivot MAX, then the same key with a pivot delta of +1, in the
        // long form the fast path leaves to the varints.
        let mut top = encode_chunk(&[LabelRecord::new(5, MAX, 0)]);
        top.extend([4, 0x80, 1]);
        assert_eq!(malformed(&top, 2), Malformed::DeltaOutOfRange);
        // Key 0, then a new key at a key delta of −1.
        assert_eq!(malformed(&[0, 0, 0, 3, 0, 0], 2), Malformed::DeltaOutOfRange);
        // Key MAX, then a new key at a key delta of +1.
        let mut top = encode_chunk(&[LabelRecord::new(MAX, 0, 0)]);
        top.extend([5, 0, 0]);
        assert_eq!(malformed(&top, 2), Malformed::DeltaOutOfRange);
        // A new key's record cut after its flagged delta.
        assert_eq!(chunk[3] & 1, 1, "the second record opens a key");
        assert_eq!(malformed(&chunk[..4], 2), Malformed::Truncated);
        assert_eq!(malformed(&chunk[..chunk.len() - 1], 2), Malformed::Truncated);
        assert_eq!(malformed(&chunk, 1), Malformed::CountMismatch);
        assert_eq!(malformed(&chunk, 3), Malformed::CountMismatch);
        assert_eq!(malformed(&chunk, 0), Malformed::CountMismatch);
        let error = Malformed::Truncated.in_run(std::path::Path::new("sort-run-3.bin"));
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(error.to_string(), "sort-run-3.bin: a chunk ends mid-record");
    }

    /// Every truncation of a small chunk, and every single-bit flip of
    /// it, under every record count, decodes to valid records or errors:
    /// never a panic, and never a record count the directory did not ask
    /// for.
    #[test]
    fn truncated_and_flipped_chunks_decode_or_error() {
        let records = [
            LabelRecord::new(3, 3, 0),
            LabelRecord::new(3, 9, 1),
            LabelRecord::new(3, 4, 2),
            LabelRecord::new(700, 1, MAX),
            LabelRecord::new(2, MAX, 5),
        ];
        let chunk = encode_chunk(&records);
        let count = records.len() as u64;
        let check = |bytes: &[u8], count: u64| {
            if let Ok(got) = decode_chunk(bytes, count) {
                assert_eq!(got.len() as u64, count, "{bytes:?}");
            }
        };
        for cut in 0..chunk.len() {
            assert!(decode_chunk(&chunk[..cut], count).is_err(), "cut at {cut}");
            for n in 0..=count {
                check(&chunk[..cut], n);
            }
        }
        for bit in 0..8 * chunk.len() {
            let mut flipped = chunk.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            for n in 0..=count + 1 {
                check(&flipped, n);
            }
        }
    }
}
