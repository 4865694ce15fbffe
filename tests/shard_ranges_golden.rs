//! Where `shard_image` cuts, as exact numbers. The cutter balances
//! label entries over contiguous pivot ranges; this pins every shard's
//! `(lo, hi)` at k ∈ {2, 3, 5} on a fixed undirected GLP and a fixed
//! directed one, so a change to the weighted cut, the entry count it
//! balances or the image it reads shows here as moved ranges.
//!
//! The ranges decide which daemon of a sharded fleet holds which pivots,
//! not any answer: `flat_equivalence` holds the min-merged answers. When
//! a change moves them on purpose, the failure prints the ranges in the
//! table's own syntax: re-pin them in the same change and say why.

mod labelkit;

use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, rank, HopDbConfig};
use hop_doubling::hoplabels::shard_image;
use hop_doubling::sfgraph::Graph;
use labelkit::image;

/// `(k, [(lo, hi); k])`, flattened.
type Row = (usize, &'static [(u32, u32)]);

fn assert_golden(graph: &str, g: &Graph, golden: &[Row]) {
    let (_, g) = rank(g, &HopDbConfig::default());
    let (index, _) = build_prelabeled(&g, &HopDbConfig::default());
    let bytes = image(&index);
    let mut failures = String::new();
    for &(k, want) in golden {
        let shards = shard_image(&bytes, k).expect("shard");
        let got: Vec<(u32, u32)> = shards.iter().map(|(_, spec)| (spec.lo, spec.hi)).collect();
        if got != want {
            failures.push_str(&format!("{graph}: ({k}, &{got:?}),\n"));
        }
    }
    assert!(failures.is_empty(), "shard ranges moved off their golden values:\n{failures}");
}

#[test]
fn undirected_glp() {
    assert_golden("glp 1500", &glp(&GlpParams::with_density(1_500, 3.0, 58)), UNDIRECTED);
}

#[test]
fn directed_glp() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 59)), 0.25, 59);
    assert_golden("directed glp 1500", &g, DIRECTED);
}

const UNDIRECTED: &[Row] = &[
    (2, &[(0, 14), (14, 1500)]),
    (3, &[(0, 7), (7, 26), (26, 1500)]),
    (5, &[(0, 4), (4, 9), (9, 20), (20, 56), (56, 1500)]),
];

const DIRECTED: &[Row] = &[
    (2, &[(0, 11), (11, 1500)]),
    (3, &[(0, 6), (6, 19), (19, 1500)]),
    (5, &[(0, 3), (3, 8), (8, 15), (15, 34), (34, 1500)]),
];
