//! Pivot-range sharding of index images.
//!
//! A 2-hop query is `min` over the *common pivots* of `Lout(s)` and
//! `Lin(t)`. Partitioning the pivot universe `[0, n)` into `k`
//! contiguous ranges therefore partitions every label entry into
//! exactly one shard, and
//!
//! ```text
//! dist(s, t) = min over shards j of dist_j(s, t)
//! ```
//!
//! because each candidate pivot contributes to exactly one shard-local
//! join and `INF_DIST` (`u32::MAX`) is the identity of `min`. Each
//! shard produced by [`shard_image`] is itself a complete, valid
//! `HOPIDX04` image over the *same* vertex set (same `n`, same
//! direction flag) — it loads with `FlatIndex::load` and serves with an
//! unmodified `hopdb-server` daemon; only the label entries whose pivot
//! falls in the shard's range are retained. The cutter reads the source
//! through [`crate::image`]'s checked decoder and writes every shard
//! with the one writer, so a shard past the 64 hub pivots is all tail
//! and picks its own hub-distance width and tail shift like any other
//! image.
//!
//! Range boundaries are chosen by entry count, not vertex count: the
//! rank convention front-loads label mass onto the few top-ranked
//! pivots (Table 7's coverage skew), so an even vertex split would put
//! nearly all entries in shard 0. [`shard_image`] counts the entries
//! per pivot and cuts that histogram at its quantiles with the
//! workspace's one weighted cut, [`crate::parallel::split_by_weight`].
//!
//! Each shard image is paired with a [`ShardSpec`] describing its slot
//! in the partition; [`ShardSpec::encode`] serializes it as a 24-byte
//! `HOPSHRD2` sidecar (stored as `<image>.shard` next to the image, the
//! way rankings are stored as `.rank` sidecars) so a daemon can report
//! its range to the router through the `info` reply. A `HOPSHRD1`
//! sidecar, which also carried a rank-space pruning flag, is refused by
//! name: re-shard the image.
//!
//! A derived vertex's record is copied into every shard unchanged. The
//! merge stays exact: per pair of parents a record adds the same two
//! offsets in every shard, `min_(i,j) off_i(s) + min_k join_k(p_i(s),
//! p_j(t)) + off_j(t)` is the unsharded least, and where two ends meet
//! at one parent every shard answers the same `off_i(s) + off_j(t)`.
//! Every label of every shard implies its self entry `(v, 0)`, as in
//! any image; that stays exact too, because an implied `(v, 0)` matches
//! only a label that holds pivot `v`, and only `v`'s own shard holds it.
//!
//! Clients speak original vertex ids, translated by the `.rank` sidecar
//! every served image carries, so the winning pivot of a pair says
//! nothing about the ids on the wire: every shard answers every pair,
//! and [`min_merge`] folds the answers.

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

use std::io;

use extmem::wire;
use sfgraph::{Dist, VertexId};

use crate::index::{LabelIndex, VertexLabels};
use crate::parallel::split_by_weight;

/// Magic tag opening a serialized [`ShardSpec`] sidecar.
pub const SHARD_MAGIC: &[u8; 8] = b"HOPSHRD2";

/// Sidecar magics of earlier layouts, refused by name.
const OLD_MAGICS: [&[u8; 8]; 1] = [b"HOPSHRD1"];

/// Serialized [`ShardSpec`] length: magic + 4×u32.
pub const SHARD_SIDECAR_LEN: usize = 24;

/// One shard's slot in a pivot-range partition of an index image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// First pivot id owned by this shard (inclusive).
    pub lo: VertexId,
    /// One past the last pivot id owned by this shard.
    pub hi: VertexId,
    /// This shard's position in the partition (0-based).
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
}

impl ShardSpec {
    /// Serialize as a `HOPSHRD2` sidecar blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SHARD_SIDECAR_LEN);
        out.extend_from_slice(SHARD_MAGIC);
        for word in [self.lo, self.hi, self.index, self.count] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parse the `HOPSHRD2` sidecar of an `n`-vertex image, validating
    /// every field against the partition and the image, so a corrupt or
    /// misplaced sidecar is refused rather than routed on.
    pub fn decode(bytes: &[u8], n: usize) -> io::Result<ShardSpec> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        match bytes.first_chunk::<8>() {
            Some(magic) if magic == SHARD_MAGIC && bytes.len() == SHARD_SIDECAR_LEN => {}
            Some(old) if OLD_MAGICS.contains(&old) => {
                let name = String::from_utf8_lossy(old);
                return Err(bad(format!("{name} shard sidecar: re-shard the image")));
            }
            _ => return Err(bad("not a HOPSHRD2 shard sidecar".to_string())),
        }
        let word = |at: usize| wire::u32_at(bytes, at).unwrap_or(0);
        let spec = ShardSpec { lo: word(8), hi: word(12), index: word(16), count: word(20) };
        let ShardSpec { lo, hi, index, count } = spec;
        if lo > hi {
            return Err(bad("shard range is inverted".to_string()));
        }
        if count == 0 || index >= count {
            return Err(bad("shard index outside the partition".to_string()));
        }
        let (first, last) = (index == 0, index + 1 == count);
        if hi as usize > n || (first && lo != 0) || (last && hi as usize != n) {
            return Err(bad(format!(
                "shard {index} of {count} owns pivots [{lo}, {hi}), \
                 which is not its slot in a partition of [0, {n})"
            )));
        }
        Ok(spec)
    }
}

/// Fold `other` into `acc` pointwise by `min` — the cross-shard answer
/// merge. `INF_DIST` is the identity, so a shard with no common pivot
/// for a pair never disturbs another shard's answer.
///
/// # Panics
/// If the slices disagree in length (shards answer the same batch).
#[expect(
    clippy::disallowed_macros,
    reason = "documented contract: the client session already rejects a reply whose length \
              disagrees with its request, so a mismatch here is a caller bug"
)]
pub fn min_merge(acc: &mut [Dist], other: &[Dist]) {
    assert_eq!(acc.len(), other.len(), "shard answers must align");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = (*a).min(b);
    }
}

/// Split a serialized index image into `k` shard images by pivot
/// range, balanced by entry count. Returns the shards in partition
/// order; ranges tile `[0, n)` exactly (empty ranges are possible when
/// `k` exceeds the number of populated pivots). The source must pass
/// the same validation a serving load applies.
pub fn shard_image(bytes: &[u8], k: usize) -> io::Result<Vec<(Vec<u8>, ShardSpec)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if k == 0 {
        return Err(bad("shard count must be at least 1"));
    }
    if k > u32::MAX as usize {
        return Err(bad("shard count exceeds u32"));
    }
    let index = crate::image::read_index(bytes)?;
    let n = index.num_vertices();

    // One pass over every entry: the pivot histogram the cuts balance.
    let mut hist = vec![0u64; n];
    for side in index.sides() {
        for label in side {
            for e in label.entries() {
                // The decoder has checked `pivot < n`.
                if let Some(slot) = hist.get_mut(e.pivot as usize) {
                    *slot += 1;
                }
            }
        }
    }

    let bounds = split_by_weight(&hist, k);
    let mut shards = Vec::with_capacity(k);
    for (i, (&lo, &hi)) in bounds.iter().zip(bounds.iter().skip(1)).enumerate() {
        let (lo, hi) = (lo as u32, hi as u32);
        let cut = |label: &VertexLabels| {
            if label.record().is_some() {
                return label.clone();
            }
            let kept = label.entries().iter().filter(|e| (lo..hi).contains(&e.pivot));
            VertexLabels::from_entries(kept.copied().collect())
        };
        let shard = LabelIndex::from_sides(
            index.sides().iter().map(|side| side.iter().map(cut).collect()).collect(),
        );
        let mut image = Vec::new();
        shard.write_hopidx(&mut image)?;
        let spec = ShardSpec { lo, hi, index: i as u32, count: k as u32 };
        shards.push((image, spec));
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::{LabelIndex, VertexLabels};
    use crate::LabelEntry;
    use sfgraph::INF_DIST;

    fn image_of(index: &LabelIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        index.write_hopidx(&mut bytes).unwrap();
        bytes
    }

    fn small_directed() -> LabelIndex {
        // Path 3 -> 2 -> 1 -> 0 under rank ids (0 highest-ranked).
        let mut d = LabelIndex::new(4, true);
        d.sides_mut()[0][1].insert_min(LabelEntry::new(0, 1));
        d.sides_mut()[0][2].insert_min(LabelEntry::new(0, 2));
        d.sides_mut()[0][2].insert_min(LabelEntry::new(1, 1));
        d.sides_mut()[0][3].insert_min(LabelEntry::new(0, 3));
        d.sides_mut()[0][3].insert_min(LabelEntry::new(2, 1));
        d.sides_mut()[1][0].insert_min(LabelEntry::new(0, 0));
        d
    }

    #[test]
    fn spec_roundtrip_and_rejection() {
        let spec = ShardSpec { lo: 3, hi: 17, index: 1, count: 4 };
        let blob = spec.encode();
        assert_eq!(blob.len(), SHARD_SIDECAR_LEN);
        assert_eq!(ShardSpec::decode(&blob, 20).unwrap(), spec);
        let refused = |bytes: &[u8], n: usize| ShardSpec::decode(bytes, n).unwrap_err().to_string();

        assert_eq!(refused(b"nonsense", 20), "not a HOPSHRD2 shard sidecar");
        assert_eq!(refused(&blob[..SHARD_SIDECAR_LEN - 1], 20), "not a HOPSHRD2 shard sidecar");
        // The 28-byte layout before this one, flag and padding included.
        let mut old = blob.clone();
        old[..8].copy_from_slice(b"HOPSHRD1");
        old.extend_from_slice(&[1, 0, 0, 0]);
        assert_eq!(refused(&old, 20), "HOPSHRD1 shard sidecar: re-shard the image");
        let mut inverted = ShardSpec { lo: 9, hi: 9, index: 0, count: 1 }.encode();
        inverted[8..12].copy_from_slice(&10u32.to_le_bytes()); // lo = 10 > hi = 9
        assert_eq!(refused(&inverted, 9), "shard range is inverted");
        let mut out_of_partition = spec.encode();
        out_of_partition[16..20].copy_from_slice(&4u32.to_le_bytes()); // index == count
        assert_eq!(refused(&out_of_partition, 20), "shard index outside the partition");
    }

    #[test]
    fn spec_must_fit_its_image() {
        let decode = |lo, hi, index, count, n| {
            ShardSpec::decode(&ShardSpec { lo, hi, index, count }.encode(), n)
        };
        assert!(decode(0, 9, 0, 1, 9).is_ok());
        assert!(decode(0, 4, 0, 2, 9).is_ok() && decode(4, 9, 1, 2, 9).is_ok());
        assert!(decode(2, 5, 1, 3, 9).is_ok(), "a middle shard's ends are its peers' to check");
        for (lo, hi, index, count, n) in [
            (3, 17, 1, 4, 16), // past the image
            (0, 8, 0, 1, 9),   // a 1-of-1 shard short of n
            (1, 9, 0, 1, 9),   // ... or not from 0
            (0, 9, 0, 1, 8),   // ... or past n
            (2, 4, 0, 2, 9),   // the first shard not from 0
            (4, 8, 1, 2, 9),   // the last shard short of n
        ] {
            let err = decode(lo, hi, index, count, n).unwrap_err().to_string();
            let want = format!(
                "shard {index} of {count} owns pivots [{lo}, {hi}), \
                 which is not its slot in a partition of [0, {n})"
            );
            assert_eq!(err, want);
        }
    }

    #[test]
    fn shards_tile_and_min_merge_matches_unsharded() {
        let index = small_directed();
        let bytes = image_of(&index);
        let whole = FlatIndex::from_hopidx_bytes(&bytes).unwrap();
        let pairs: Vec<(u32, u32)> = (0..4).flat_map(|s| (0..4).map(move |t| (s, t))).collect();
        let expect = whole.query_many(&pairs, 1);

        for k in 1..=6 {
            let shards = shard_image(&bytes, k).unwrap();
            assert_eq!(shards.len(), k);
            assert_eq!(shards[0].1.lo, 0);
            assert_eq!(shards[k - 1].1.hi, 4);
            for w in shards.windows(2) {
                assert_eq!(w[0].1.hi, w[1].1.lo, "ranges must tile");
            }
            let mut merged = vec![INF_DIST; pairs.len()];
            for (image, _) in &shards {
                let flat = FlatIndex::from_hopidx_bytes(image).unwrap();
                assert_eq!(flat.num_vertices(), 4);
                assert!(flat.is_directed());
                min_merge(&mut merged, &flat.query_many(&pairs, 1));
            }
            assert_eq!(merged, expect, "k = {k}");
        }
    }

    #[test]
    fn records_go_to_every_shard() {
        // A star 1 – {0, 2, 3} with 0 – 4 – 1: 2 and 3 are derived from
        // 1 and 4 from 0 and 1. In the second index so is 0 — a leaf
        // ranked above its parent, as a degree tie can leave it — and in
        // the third 4's parents are 1 and 5, above it. The merge is exact
        // whichever way a record's parents rank.
        let record = |pairs: &[_]| VertexLabels::from_record(crate::Record::new(pairs));
        let mut labels: Vec<_> = (0..6).map(VertexLabels::with_trivial).collect();
        labels[1].insert_min(LabelEntry::new(0, 3));
        labels[5].insert_min(LabelEntry::new(1, 1));
        labels[2] = record(&[(1, 3)]);
        labels[3] = record(&[(1, 3)]);
        labels[4] = record(&[(0, 2), (1, 2)]);
        let below = LabelIndex::from_sides(vec![labels.clone()]);
        let mut above = labels.clone();
        above[4] = record(&[(1, 2), (5, 2)]);
        let above = LabelIndex::from_sides(vec![above]);
        labels[0] = record(&[(1, 3)]);
        labels[4] = record(&[(1, 2)]);
        let leaf_above = LabelIndex::from_sides(vec![labels]);
        let pairs: Vec<(u32, u32)> = (0..6).flat_map(|s| (0..6).map(move |t| (s, t))).collect();
        for index in [below, leaf_above, above] {
            let bytes = image_of(&index);
            let expect: Vec<_> = pairs.iter().map(|&(s, t)| index.query(s, t)).collect();
            for k in 1..=3 {
                let mut merged = vec![INF_DIST; pairs.len()];
                for (image, _) in shard_image(&bytes, k).unwrap() {
                    let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
                    assert_eq!(flat.query(2, 3), 6, "every shard answers a shared parent");
                    min_merge(&mut merged, &flat.query_many(&pairs, 1));
                }
                assert_eq!(merged, expect, "k = {k}");
            }
        }
    }

    #[test]
    fn garbage_and_zero_shards_are_refused() {
        assert!(shard_image(b"not an index", 2).is_err());
        let bytes = image_of(&small_directed());
        assert!(shard_image(&bytes, 0).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() - 8);
        assert!(shard_image(&truncated, 2).is_err());
    }
}
