//! Total (panic-free) little-endian reads over untrusted byte slices.
//!
//! Every decoder in the workspace — the HOPQ framing in `server`, the
//! WAL replay, the `HOPIDX04` image and `HOPSHRD1` sidecar parsers — consumes
//! bytes that arrived off a socket or a disk and must never panic, no
//! matter what those bytes say. These helpers make that property
//! local: each read returns `None` past the end of the slice instead
//! of relying on a length check somewhere earlier in the function, so
//! a refactor that drops the check turns into a handled decode error,
//! not a slice-index panic. The clippy panic lints denied below (and
//! in every other wire-facing module) keep the call sites honest.
//!
//! [`crc32`] lives here for the same reason: the WAL's record frames
//! and the index image's trailer are both "bytes from disk that must
//! prove themselves", and they share one table. So does [`put_varint`],
//! the one LEB128 writer of the run codec and the index image; each
//! reads varints back with its own decoder and its own cap.

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

/// The `N` bytes at `bytes[off..off + N]`, if fully in bounds.
#[inline]
pub fn array_at<const N: usize>(bytes: &[u8], off: usize) -> Option<[u8; N]> {
    bytes.get(off..)?.first_chunk::<N>().copied()
}

/// The byte at `off`, if in bounds.
#[inline]
pub fn u8_at(bytes: &[u8], off: usize) -> Option<u8> {
    bytes.get(off).copied()
}

/// The little-endian `u32` at `off`, if fully in bounds.
#[inline]
pub fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    array_at(bytes, off).map(u32::from_le_bytes)
}

/// The little-endian `u64` at `off`, if fully in bounds.
#[inline]
pub fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    array_at(bytes, off).map(u64::from_le_bytes)
}

/// Iterate `bytes` as consecutive little-endian `u32`s, ignoring any
/// trailing partial word (callers validate exact lengths up front and
/// use this only to walk a slice already known to be a whole number of
/// words — but nothing breaks if it is not).
pub fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).filter_map(|c| c.first_chunk::<4>()).map(|c| u32::from_le_bytes(*c))
}

/// Append `value` as a LEB128 varint: seven bits a byte, low bits
/// first, the top bit set on every byte but the last.
#[inline]
pub fn put_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320 — zlib's and
/// ethernet's) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(data);
    crc.finish()
}

/// [`crc32`] over bytes that arrive in pieces: a writer folds each
/// buffer in as it goes instead of assembling what it checksums.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32(!0)
    }
}

impl Crc32 {
    /// Fold `data` into the running checksum, eight bytes a step
    /// ("slicing-by-8": table `k` advances a byte by `k` further
    /// positions, so eight lookups retire eight bytes at once — an
    /// index image is checksummed on every write, load and boot).
    pub fn update(&mut self, data: &[u8]) {
        static TABLES: [[u32; 256]; 8] = crc32_tables();
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let Some(word) = u64_at(word, 0) else { continue };
            let (lo, hi) = (word as u32 ^ crc, (word >> 32) as u32);
            crc = look(t7, lo)
                ^ look(t6, lo >> 8)
                ^ look(t5, lo >> 16)
                ^ look(t4, lo >> 24)
                ^ look(t3, hi)
                ^ look(t2, hi >> 8)
                ^ look(t1, hi >> 16)
                ^ look(t0, hi >> 24);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ look(t0, crc ^ b as u32);
        }
        self.0 = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

#[inline(always)]
#[expect(clippy::indexing_slicing, reason = "the index is masked below 256")]
fn look(table: &[u32; 256], byte: u32) -> u32 {
    table[(byte & 0xFF) as usize]
}

#[expect(clippy::indexing_slicing, reason = "const-evaluated: out of bounds fails the build")]
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
        // Folding in pieces is the same checksum.
        let mut pieces = Crc32::default();
        pieces.update(b"1234");
        pieces.update(b"");
        pieces.update(b"56789");
        assert_eq!(pieces.finish(), 0xCBF4_3926);
        // Long enough for the eight-byte steps, at every alignment of
        // the split, against a bit-at-a-time reference.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let bitwise = |data: &[u8]| {
            !data.iter().fold(!0u32, |crc, &b| {
                (0..8)
                    .fold(crc ^ b as u32, |c, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg()))
            })
        };
        for cut in 0..data.len() {
            let mut split = Crc32::default();
            split.update(&data[..cut]);
            split.update(&data[cut..]);
            assert_eq!(split.finish(), bitwise(&data), "cut {cut}");
        }
    }

    #[test]
    fn reads_inside_bounds() {
        let b = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 7];
        assert_eq!(u32_at(&b, 0), Some(1));
        assert_eq!(u32_at(&b, 4), Some(2));
        assert_eq!(u64_at(&b, 4), Some(2 | (7 << 56)));
        assert_eq!(u8_at(&b, 11), Some(7));
        assert_eq!(array_at::<2>(&b, 10), Some([0, 7]));
    }

    #[test]
    fn reads_past_the_end_are_none_not_panics() {
        let b = [0u8; 7];
        assert_eq!(u32_at(&b, 4), None);
        assert_eq!(u32_at(&b, usize::MAX), None);
        assert_eq!(u64_at(&b, 0), None);
        assert_eq!(u8_at(&b, 7), None);
        assert_eq!(array_at::<8>(&b, 0), None);
    }

    #[test]
    fn u32s_walks_whole_words_only() {
        let b = [1u8, 0, 0, 0, 2, 0, 0, 0, 99];
        assert_eq!(u32s(&b).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(u32s(&[]).count(), 0);
    }
}
