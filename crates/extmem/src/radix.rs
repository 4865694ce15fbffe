//! Stable least-significant-digit radix sort of packed words.
//!
//! The external sorter packs each record's `(key, pivot, dist)` into one
//! integer, the fields in the bit widths its buffer actually uses, so
//! integer order is record order; the §4.2 prune packs `(pivot, index)`.
//! Both sort those words here: one counting pass builds every digit's
//! histogram, then each digit scatters the words stably into a scratch
//! buffer of the same length, least significant first, skipping a digit
//! that every word shares. A digit is at most [`MAX_DIGIT_BITS`] wide,
//! and a key of `b` bits takes `⌈b / 11⌉` passes of equal width — three
//! for the 32-bit record keys of a 12 000-vertex graph, where a
//! comparison sort of 16 Ki records makes about fourteen.

use std::ops::{BitOr, Shl, Shr};

/// The widest digit one pass sorts on: 2 048 counters a pass.
const MAX_DIGIT_BITS: u32 = 11;

/// An unsigned word the radix sort orders: `u64`, or `u128` for the
/// keys that do not fit one.
pub trait Word:
    Copy
    + Default
    + From<u32>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOr<Output = Self>
{
    /// The word's low 64 bits.
    fn low64(self) -> u64;
}

impl Word for u64 {
    #[inline(always)]
    fn low64(self) -> u64 {
        self
    }
}

impl Word for u128 {
    #[inline(always)]
    fn low64(self) -> u64 {
        self as u64
    }
}

/// The bits a value of `v` takes: 0 for 0, 32 for `u32::MAX`.
pub fn bit_width(v: u32) -> u32 {
    u32::BITS - v.leading_zeros()
}

/// Order `words` stably by `w >> lo`, every word being below `2^hi`;
/// `scratch` is resized to `words.len()` and left holding garbage.
pub fn sort_from<W: Word>(words: &mut Vec<W>, scratch: &mut Vec<W>, lo: u32, hi: u32) {
    let n = words.len();
    if n < 2 || hi <= lo {
        return;
    }
    let passes = (hi - lo).div_ceil(MAX_DIGIT_BITS);
    let digit_bits = (hi - lo).div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let mask = buckets as u64 - 1;
    let digit =
        |w: W, pass: usize| ((w >> (lo + pass as u32 * digit_bits)).low64() & mask) as usize;
    let mut counts = vec![0usize; passes as usize * buckets];
    for &w in words.iter() {
        for (pass, count) in counts.chunks_exact_mut(buckets).enumerate() {
            count[digit(w, pass)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(n, W::default());
    for (pass, count) in counts.chunks_exact_mut(buckets).enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut at = 0;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &w in words.iter() {
            let slot = &mut count[digit(w, pass)];
            scratch[*slot] = w;
            *slot += 1;
        }
        std::mem::swap(words, scratch);
    }
}
