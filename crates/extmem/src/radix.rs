//! Stable least-significant-digit radix sort of packed words.
//!
//! A [`Packing`] puts three `u32` fields into one integer, each in the
//! bits its values use, so integer order is the fields' tuple order: the
//! external sorter packs each record's `(key, pivot, dist)` in the widths
//! its buffer uses, and the §4.2 prune packs each candidate as `(pivot,
//! group, dist)`. Both sort those words here: one counting pass builds every digit's
//! histogram, then each digit scatters the words stably into a scratch
//! buffer of the same length, least significant first, skipping a digit
//! that every word shares. A digit is at most `MAX_DIGIT_BITS` wide,
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

/// Where three `u32` fields sit in one sort word: each in its own width,
/// the first highest, so the words order as the fields' tuples do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packing {
    mid_shift: u32,
    top_shift: u32,
    mid_mask: u32,
    low_mask: u32,
    bits: u32,
}

impl Packing {
    /// The packing whose fields are as wide as the values of `covers`,
    /// each the OR of the values its field will hold.
    pub fn covering(covers: [u32; 3]) -> Packing {
        let [top, mid, low] = covers.map(bit_width);
        let mask = |bits: u32| ((1u64 << bits) - 1) as u32;
        Packing {
            mid_shift: low,
            top_shift: low + mid,
            mid_mask: mask(mid),
            low_mask: mask(low),
            bits: low + mid + top,
        }
    }

    /// The word of `fields`, each within its width.
    #[inline(always)]
    pub fn pack<W: Word>(self, [top, mid, low]: [u32; 3]) -> W {
        debug_assert!(
            bit_width(top) <= self.bits - self.top_shift
                && mid & !self.mid_mask == 0
                && low & !self.low_mask == 0,
            "fields {:?} overflow {self:?}",
            [top, mid, low]
        );
        W::from(top) << self.top_shift | W::from(mid) << self.mid_shift | W::from(low)
    }

    /// The fields of a word [`Packing::pack`] made.
    #[inline(always)]
    pub fn unpack<W: Word>(self, w: W) -> [u32; 3] {
        let field = |shift: u32| (w >> shift).low64() as u32;
        [field(self.top_shift), field(self.mid_shift) & self.mid_mask, field(0) & self.low_mask]
    }

    /// The bits a word takes: every word is below `2^bits`.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Where the first field starts: [`sort_from`] from here orders the
    /// words on that field alone.
    pub fn top_shift(self) -> u32 {
        self.top_shift
    }

    /// Whether the words fit a `u64`, the first field's shift below its
    /// width.
    pub fn fits_u64(self) -> bool {
        self.top_shift < u64::BITS && self.bits <= u64::BITS
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Field widths on both sides of the `u64` edge, each with whether
    /// its words fit one: a full first field over 32 more bits, 64 bits
    /// with the first field empty (its shift would be the word's width),
    /// one bit past 64, and nothing at all.
    const WIDTHS: [([u32; 3], bool); 9] = [
        ([0, 0, 0], true),
        ([32, 32, 0], true),
        ([32, 0, 32], true),
        ([32, 20, 12], true),
        ([12, 20, 32], true),
        ([0, 32, 32], false),
        ([32, 20, 13], false),
        ([13, 20, 32], false),
        ([32, 32, 32], false),
    ];

    fn draws(seed: u64) -> impl FnMut(u32) -> u32 {
        let mut x = seed;
        move |bits| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 32) as u32 & ((1u64 << bits) - 1) as u32
        }
    }

    /// Field tuples within `widths`: random ones, and each field at 0
    /// and at its top.
    fn tuples(widths: [u32; 3], draw: &mut impl FnMut(u32) -> u32) -> Vec<[u32; 3]> {
        let top = widths.map(|w| ((1u64 << w) - 1) as u32);
        let mut out = vec![[0; 3], top, [top[0], 0, top[2]], [0, top[1], 0]];
        out.extend((0..if cfg!(miri) { 24 } else { 400 }).map(|_| widths.map(&mut *draw)));
        // Few distinct values too, so equal fields meet.
        out.extend((0..40).map(|_| widths.map(|w| draw(w.min(2)))));
        out
    }

    /// The packing of fields `widths` bits wide.
    fn of_widths(widths: [u32; 3]) -> Packing {
        Packing::covering(widths.map(|w| ((1u64 << w) - 1) as u32))
    }

    fn round_trip_and_order<W: Word + Ord + std::fmt::Debug>(widths: [u32; 3], seed: u64) {
        let packing = of_widths(widths);
        let fields = tuples(widths, &mut draws(seed));
        let words: Vec<W> = fields.iter().map(|&f| packing.pack(f)).collect();
        for (&f, &w) in fields.iter().zip(&words) {
            assert_eq!(packing.unpack(w), f, "{widths:?}");
        }
        let mut by_tuple = fields.clone();
        by_tuple.sort_unstable();
        let mut sorted = words.clone();
        sort_from(&mut sorted, &mut Vec::new(), 0, packing.bits());
        let unpacked: Vec<[u32; 3]> = sorted.iter().map(|&w| packing.unpack(w)).collect();
        assert_eq!(unpacked, by_tuple, "{widths:?}: the words order as the tuples");
        // On the first field alone the sort is stable: ties keep the
        // order they came in.
        let mut by_top = fields.clone();
        by_top.sort_by_key(|f| f[0]);
        let mut sorted = words;
        sort_from(&mut sorted, &mut Vec::new(), packing.top_shift(), packing.bits());
        let unpacked: Vec<[u32; 3]> = sorted.iter().map(|&w| packing.unpack(w)).collect();
        assert_eq!(unpacked, by_top, "{widths:?}: stable on the first field");
    }

    /// A packing round-trips every tuple its widths hold and its words
    /// order as the tuples do, in a `u64` where [`Packing::fits_u64`]
    /// says they fit and in a `u128` always.
    #[test]
    fn packing_round_trips_and_orders_at_the_u64_edge() {
        for (i, (widths, fits)) in WIDTHS.into_iter().enumerate() {
            let packing = of_widths(widths);
            assert_eq!(packing.fits_u64(), fits, "{widths:?}");
            assert_eq!(packing.bits(), widths.iter().sum::<u32>(), "{widths:?}");
            round_trip_and_order::<u128>(widths, i as u64);
            if fits {
                round_trip_and_order::<u64>(widths, i as u64);
            }
        }
    }
}
