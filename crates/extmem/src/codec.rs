//! Fixed-size binary record encoding.
//!
//! All external files hold streams of fixed-size records so offsets are
//! computable and scans need no framing. The paper stores a 32-bit vertex
//! id and an 8-bit distance per entry; we keep 32-bit distances for
//! weighted-graph generality and accept the 12-byte record.

use crate::wire;

/// A fixed-size, plain-data record.
pub trait Record: Copy + Send + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Append the encoded record to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode one record from the first `SIZE` bytes of `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than `SIZE`.
    fn decode(buf: &[u8]) -> Self;

    /// The key a sorted run of these records is grouped by: what a run's
    /// sparse directory stores per block (see [`crate::run`]).
    fn key(&self) -> u32;
}

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

impl Record for LabelRecord {
    const SIZE: usize = 12;

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        for word in [self.key, self.pivot, self.dist] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let word = |off| wire::u32_at(buf, off).expect("a record buffer holds SIZE bytes");
        LabelRecord { key: word(0), pivot: word(4), dist: word(8) }
    }

    #[inline]
    fn key(&self) -> u32 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let r = LabelRecord::new(7, 42, 123_456);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), LabelRecord::SIZE);
        assert_eq!(LabelRecord::decode(&buf), r);
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
}
