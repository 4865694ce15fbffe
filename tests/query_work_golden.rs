//! Query work as an exact number. `FlatIndex::query_many_work` answers
//! a batch on the serving path with its counters on; this pins the sums
//! over fixed uniform and hub pair sets on a fixed undirected GLP and a
//! fixed directed one: joins made, label bytes handed to joins, entries
//! decoded and record ends resolved.
//!
//! Bytes are gated exactly and query time is not, so a format change or
//! a change to the record rule could buy bytes with query work and no
//! gate would notice. This golden notices. The sums must not depend on
//! the thread count of the batch, nor on which engine built the image
//! (the two write the same bytes). When a change moves them on purpose,
//! a failing case prints its row in the table's own syntax: re-pin it in
//! the same change and say why.

mod labelkit;

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, rank, HopDbConfig};
use hop_doubling::hoplabels::{FlatIndex, QueryWork};
use hop_doubling::sfgraph::{Graph, VertexId};
use labelkit::image;

/// Pairs in each set.
const PAIRS: usize = 4_000;
/// Hub pairs start at one of this many top-ranked vertices.
const HUBS: u32 = 8;

/// `(pair set, joins, join_bytes, entries, record_ends)`.
type Row = (&'static str, u64, u64, u64, u64);

/// `count` pairs from an xorshift stream: uniform, or with the source
/// among the [`HUBS`] top-ranked vertices (rank ids `0..HUBS`).
fn pairs(n: usize, seed: u64, hub: bool) -> Vec<(VertexId, VertexId)> {
    let mut x = seed;
    let mut next = move |bound: u32| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % u64::from(bound)) as VertexId
    };
    let n = n as u32;
    (0..PAIRS).map(|_| (next(if hub { HUBS } else { n }), next(n))).collect()
}

/// Both engines' images of `g` (rank-relabeled here), which must be one
/// image, and the work of each pair set on it at 1, 2 and 3 threads,
/// against `golden`.
fn assert_golden(graph: &str, g: &Graph, golden: &[Row]) {
    let (_, g) = rank(g, &HopDbConfig::default());
    let (mem, _) = build_prelabeled(&g, &HopDbConfig::default());
    let ext = ExtMemConfig { memory_records: 512, block_bytes: 1024 };
    let external = build_external(&g, &HopDbConfig::default(), &ext).expect("external build");
    let bytes = image(&mem);
    assert_eq!(image(&external.index), bytes, "{graph}: the engines' images differ");
    let flat = FlatIndex::from_hopidx_bytes(&bytes).expect("load");
    let n = g.num_vertices();
    let mut failures = String::new();
    for (set, pairs) in
        [("uniform", pairs(n, 0x9E37_79B9, false)), ("hub", pairs(n, 0x00C0_FFEE, true))]
    {
        let (answers, work) = flat.query_many_work(&pairs, 1);
        assert_eq!(answers, flat.query_many(&pairs, 1), "{graph} / {set}: answers moved");
        for threads in [2, 3] {
            assert_eq!(
                flat.query_many_work(&pairs, threads),
                (answers.clone(), work),
                "{graph} / {set}: the work depends on the thread count ({threads})"
            );
        }
        let one_by_one = pairs
            .iter()
            .fold(QueryWork::default(), |sum, &pair| sum + flat.query_many_work(&[pair], 1).1);
        assert_eq!(one_by_one, work, "{graph} / {set}: the batch and the pairs disagree");
        let QueryWork { joins, join_bytes, entries, record_ends } = work;
        let got = (set, joins, join_bytes, entries, record_ends);
        if !golden.contains(&got) {
            failures.push_str(&format!("{graph}: {got:?},\n"));
        }
    }
    assert!(failures.is_empty(), "query work moved off its golden values:\n{failures}");
}

#[test]
fn undirected_glp() {
    assert_golden("glp 2000", &glp(&GlpParams::with_density(2_000, 3.0, 36)), UNDIRECTED);
}

#[test]
fn directed_glp() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(2_000, 2.5, 37)), 0.25, 37);
    assert_golden("directed glp 2000", &g, DIRECTED);
}

// Pinned on HOPIDX03 at (6 627, 245 965, 58 925) / (5 034, 147 240,
// 17 993) undirected and (4 603, 114 198, 17 883) / (4 224, 96 326,
// 11 114) directed: joins, join bytes, entries, uniform / hub.
// Ordering a record's ends by offset and skipping a pair whose offsets
// already meet the best answer took 28 / 40 and 9 / 16 joins off.
// HOPIDX04 then moved no join: its labels imply their self entry, so
// the varint that held it is neither stored nor decoded, and its hub
// distances take 2 bits, not 4 (entries −11 % / 0 % undirected, −14 % /
// 0 % directed; bytes −27 % / −25 % and −18 % / −18 %).
// The canonical filter at the end of every pruned build then moved no
// join and no record end: it drops only entries another pivot already
// covers, so a join decodes fewer of them before it settles. Entries
// decoded fell from 52 264 / 17 832 undirected and 15 269 / 11 065
// directed (−8.1 % / −1.5 %, −6.4 % / −7.9 %), join bytes from
// 179 975 / 110 164 and 93 075 / 78 928 (−3.1 % / −1.9 %, −1.6 % /
// −0.9 %).
const UNDIRECTED: &[Row] =
    &[("uniform", 6599, 174377, 48040, 4662), ("hub", 4994, 108026, 17565, 2268)];

const DIRECTED: &[Row] =
    &[("uniform", 4594, 91609, 14286, 3808), ("hub", 4208, 78252, 10191, 1847)];
