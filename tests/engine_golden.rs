//! Golden outputs of the in-memory engine, recorded from the push/hash
//! round kernel (PR 18's `engine.rs`) before the owner-at-a-time kernel
//! replaced it: the replacement must reproduce the old kernel's bytes and
//! counters, not merely agree with itself across thread counts.
//!
//! Each case pins the FNV-1a of the *labels* — `n`, directedness, then
//! per side per vertex the label's length and every `(pivot, dist)`,
//! all little-endian — and the per-iteration `(candidates, pruned,
//! inserted, total_entries)` rows, and is asserted at 1, 2 and 4
//! threads. The hash reads the labels, not the serialized image, so it
//! keeps proving the engines' output did not move when the image format
//! does (the constants below predate the last two format changes and
//! held through both). When the algorithm's output legitimately
//! changes, a failing case prints its row in the table's own syntax:
//! re-measure and replace the constants.
//!
//! The kernel is pinned as `engine::build_index` on the rank-relabeled
//! graph — the graph these constants always hashed. The builders run it
//! on the graph's core since vertex elimination; [`REDUCED`] pins that build
//! too: its derived-vertex count, and its finished index (records
//! hashed in their slots) and rows.

use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::engine::build_index;
use hop_doubling::hopdb::{build, BuildStats, HopDbConfig, Strategy};
use hop_doubling::hoplabels::LabelIndex;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::Graph;

/// `(candidates, pruned, inserted, total_entries)` of one iteration.
type Row = (u64, u64, u64, u64);

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn label_hash(index: &LabelIndex) -> u64 {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &(index.num_vertices() as u64).to_le_bytes());
    h = fnv1a(h, &[index.is_directed() as u8]);
    for label in index.sides().iter().flat_map(|side| side.iter()) {
        if let Some(r) = label.record() {
            h = fnv1a(h, &u32::MAX.to_le_bytes());
            for &(parent, offset) in r.pairs() {
                h = fnv1a(fnv1a(h, &parent.to_le_bytes()), &offset.to_le_bytes());
            }
            continue;
        }
        h = fnv1a(h, &(label.len() as u32).to_le_bytes());
        for e in label.entries() {
            h = fnv1a(fnv1a(h, &e.pivot.to_le_bytes()), &e.dist.to_le_bytes());
        }
    }
    h
}

fn rows(stats: &BuildStats) -> Vec<Row> {
    stats
        .iterations
        .iter()
        .map(|it| (it.candidates, it.pruned, it.inserted, it.total_entries))
        .collect()
}

/// The kernel on the whole rank-relabeled graph, as `build` ranks it.
fn measure(g: &Graph, cfg: &HopDbConfig) -> (u64, Vec<Row>) {
    let relabeled = relabel_by_rank(g, &rank_vertices(g, &RankBy::paper_default(g)));
    let (index, stats) = build_index(&relabeled, cfg);
    (label_hash(&index), rows(&stats))
}

fn configs() -> [(&'static str, HopDbConfig); 6] {
    [
        ("stepping", HopDbConfig::with_strategy(Strategy::Stepping)),
        ("doubling", HopDbConfig::with_strategy(Strategy::Doubling)),
        ("hybrid3", HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 3 })),
        ("stepping-unpruned", HopDbConfig::unpruned(Strategy::Stepping)),
        ("doubling-unpruned", HopDbConfig::unpruned(Strategy::Doubling)),
        ("hybrid3-unpruned", HopDbConfig::unpruned(Strategy::Hybrid { switch_at: 3 })),
    ]
}

/// Build `g` under every config at 1, 2 and 4 threads and compare with
/// `golden`, one `(config name, label hash, rows)` per config.
fn assert_golden(graph: &str, g: &Graph, golden: &[(&str, u64, &[Row])]) {
    let mut failures = String::new();
    for (name, cfg) in configs() {
        let expect =
            golden.iter().find(|(n, ..)| *n == name).map(|&(_, h, rows)| (h, rows.to_vec()));
        for threads in [1usize, 2, 4] {
            let got = measure(g, &cfg.clone().with_parallelism(threads));
            if expect.as_ref() != Some(&got) {
                failures.push_str(&format!(
                    "{graph} / {name} at {threads} threads:\n    (\"{name}\", {:#018x}, &{:?}),\n",
                    got.0, got.1
                ));
                break;
            }
        }
    }
    assert!(failures.is_empty(), "engine output moved off its golden values:\n{failures}");
}

#[test]
fn undirected_glp() {
    assert_golden("glp 1500", &glp(&GlpParams::with_density(1_500, 3.0, 42)), UNDIRECTED);
}

#[test]
fn directed_glp() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 7)), 0.25, 7);
    assert_golden("directed glp 1500", &g, DIRECTED);
}

#[test]
fn weighted_glp() {
    let g = with_random_weights(&glp(&GlpParams::with_density(1_500, 3.0, 23)), 1, 9, 23);
    assert_golden("weighted glp 1500", &g, WEIGHTED);
}

/// `build` of the directed GLP under the default config at 1, 2 and 4
/// threads against [`REDUCED`].
#[test]
fn reduced_build() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 7)), 0.25, 7);
    for threads in [1usize, 2, 4] {
        let db = build(&g, &HopDbConfig::default().with_parallelism(threads));
        let got = (db.stats().derived_vertices, label_hash(db.index()), rows(db.stats()));
        assert_eq!(db.stats().derived_leaves, 749, "leaves go first, so all of them still go");
        let (derived, hash, golden) = REDUCED;
        assert!(
            got == (derived, hash, golden.to_vec()),
            "reduced build moved off its golden values at {threads} threads:\n    ({}, {:#018x}, &{:?})",
            got.0,
            got.1,
            got.2
        );
    }
}

/// `(derived vertices, label hash, rows)` of [`reduced_build`]: the
/// kernel's rows on the core (its entries count the derived vertices'
/// self-entries the records replace), the finished index's hash. 1 025
/// of the 1 500 vertices are derived — 749 leaves, as when only leaves
/// were, and 276 with two neighbours — and the core is weighted.
#[rustfmt::skip]
const REDUCED: (u64, u64, &[Row]) = (1025, 0xf9486e223c16e715, &[
    (3152, 0, 3152, 6152), (10602, 4606, 5996, 12148), (4609, 3952, 657, 12805),
    (290, 253, 37, 12842), (4, 4, 0, 12842),
]);

#[rustfmt::skip]
const UNDIRECTED: &[(&str, u64, &[Row])] = &[
    ("stepping", 0x87b9385e04411ffd, &[
        (4635, 0, 4635, 6135), (23482, 9815, 13667, 19802), (8703, 7365, 1338, 21140),
        (163, 136, 27, 21167), (0, 0, 0, 21167),
    ]),
    ("doubling", 0x374fb1856ed2b7ff, &[
        (4635, 0, 4635, 6135), (23482, 9815, 13667, 19802), (12628, 11080, 1548, 21350),
        (3170, 3170, 0, 21350),
    ]),
    ("hybrid3", 0x87b9385e04411ffd, &[
        (4635, 0, 4635, 6135), (23482, 9815, 13667, 19802), (8703, 7365, 1338, 21140),
        (2159, 2132, 27, 21167), (65, 65, 0, 21167),
    ]),
    ("stepping-unpruned", 0xe89ddd8611fe6f3d, &[
        (4635, 0, 4635, 6135), (23482, 0, 23482, 29617), (26105, 0, 26105, 55722),
        (16652, 0, 16652, 72374), (12042, 0, 12042, 84416), (9086, 0, 9086, 93502),
        (6466, 0, 6466, 99968), (4506, 0, 4506, 104474), (3024, 0, 3024, 107498),
        (2014, 0, 2014, 109512), (1353, 0, 1353, 110865), (919, 0, 919, 111784),
        (617, 0, 617, 112401), (425, 0, 425, 112826), (253, 0, 253, 113079),
        (146, 0, 146, 113225), (96, 0, 96, 113321), (62, 0, 62, 113383), (38, 0, 38, 113421),
        (11, 0, 11, 113432), (13, 0, 13, 113445), (3, 0, 3, 113448), (2, 0, 2, 113450),
        (4, 0, 4, 113454), (1, 0, 1, 113455), (4, 0, 4, 113459), (0, 0, 0, 113459),
    ]),
    ("doubling-unpruned", 0xe89ddd8611fe6f3d, &[
        (4635, 0, 4635, 6135), (23482, 0, 23482, 29617), (38409, 0, 38409, 68026),
        (28882, 0, 28882, 96908), (15031, 0, 15031, 111188), (2646, 0, 2646, 113392),
        (77, 0, 77, 113459), (0, 0, 0, 113459),
    ]),
    ("hybrid3-unpruned", 0xe89ddd8611fe6f3d, &[
        (4635, 0, 4635, 6135), (23482, 0, 23482, 29617), (26105, 0, 26105, 55722),
        (30192, 0, 30192, 85914), (23616, 0, 23616, 108186), (5679, 0, 5679, 113297),
        (284, 0, 284, 113459), (0, 0, 0, 113459),
    ]),
];

#[rustfmt::skip]
const DIRECTED: &[(&str, u64, &[Row])] = &[
    ("stepping", 0x3998ea23d870d41e, &[
        (4600, 0, 4600, 7600), (17622, 4625, 12997, 20597), (8833, 4530, 4303, 24900),
        (804, 493, 311, 25211), (70, 47, 23, 25234), (0, 0, 0, 25234),
    ]),
    ("doubling", 0x1ae697bafe277b58, &[
        (4600, 0, 4600, 7600), (17622, 4625, 12997, 20597), (12240, 7395, 4845, 25442),
        (2079, 2018, 61, 25503), (35, 35, 0, 25503),
    ]),
    ("hybrid3", 0x3998ea23d870d41e, &[
        (4600, 0, 4600, 7600), (17622, 4625, 12997, 20597), (8833, 4530, 4303, 24900),
        (2045, 1714, 331, 25231), (196, 193, 3, 25234), (0, 0, 0, 25234),
    ]),
    ("stepping-unpruned", 0x156a27b15c6588f7, &[
        (4600, 0, 4600, 7600), (17622, 0, 17622, 25222), (23758, 0, 23758, 48980),
        (13419, 0, 13419, 62399), (7500, 0, 7500, 69899), (4422, 0, 4422, 74321),
        (2693, 0, 2693, 77014), (1596, 0, 1596, 78610), (890, 0, 890, 79500),
        (520, 0, 520, 80020), (295, 0, 295, 80315), (220, 0, 220, 80535), (123, 0, 123, 80658),
        (75, 0, 75, 80733), (55, 0, 55, 80788), (50, 0, 50, 80838), (39, 0, 39, 80877),
        (37, 0, 37, 80914), (37, 0, 37, 80951), (41, 0, 41, 80992), (21, 0, 21, 81013),
        (8, 0, 8, 81021), (13, 0, 13, 81034), (3, 0, 3, 81037), (0, 0, 0, 81037),
    ]),
    ("doubling-unpruned", 0x156a27b15c6588f7, &[
        (4600, 0, 4600, 7600), (17622, 0, 17622, 25222), (34417, 0, 34417, 59639),
        (15597, 0, 15597, 75236), (5205, 0, 5205, 80240), (695, 0, 695, 80892),
        (155, 0, 155, 81037), (0, 0, 0, 81037),
    ]),
    ("hybrid3-unpruned", 0x156a27b15c6588f7, &[
        (4600, 0, 4600, 7600), (17622, 0, 17622, 25222), (23758, 0, 23758, 48980),
        (21340, 0, 21340, 70320), (9731, 0, 9731, 79395), (1602, 0, 1602, 80839),
        (224, 0, 224, 81037), (0, 0, 0, 81037),
    ]),
];

#[rustfmt::skip]
const WEIGHTED: &[(&str, u64, &[Row])] = &[
    ("stepping", 0xed4873bedd3cfa8e, &[
        (4543, 0, 4543, 6043), (25251, 5608, 19643, 25192), (26848, 15598, 11250, 31289),
        (7488, 3947, 3541, 32399), (1555, 892, 663, 32579), (168, 107, 61, 32591),
        (3, 0, 3, 32591), (0, 0, 0, 32591),
    ]),
    ("doubling", 0x89eb9202f6cd00f0, &[
        (4543, 0, 4543, 6043), (25251, 5608, 19643, 25192), (41036, 27504, 13532, 32890),
        (13646, 11913, 1733, 33397), (1176, 1176, 0, 33397),
    ]),
    ("hybrid3", 0xa32b05ec8b20d813, &[
        (4543, 0, 4543, 6043), (25251, 5608, 19643, 25192), (26848, 15598, 11250, 31289),
        (14445, 10505, 3940, 32534), (2605, 2422, 183, 32596), (158, 158, 0, 32596),
    ]),
    ("stepping-unpruned", 0x9727a5a4d353f64b, &[
        (4543, 0, 4543, 6043), (25251, 0, 25251, 30650), (40853, 0, 40853, 59958),
        (34538, 0, 34538, 77958), (23115, 0, 23115, 89747), (14984, 0, 14984, 97959),
        (9596, 0, 9596, 103402), (6101, 0, 6101, 106876), (3945, 0, 3945, 109159),
        (2669, 0, 2669, 110820), (1802, 0, 1802, 112046), (1310, 0, 1310, 113042),
        (986, 0, 986, 113858), (814, 0, 814, 114552), (676, 0, 676, 115140),
        (545, 0, 545, 115627), (461, 0, 461, 116042), (363, 0, 363, 116366),
        (298, 0, 298, 116616), (235, 0, 235, 116802), (169, 0, 169, 116926),
        (141, 0, 141, 117022), (95, 0, 95, 117088), (73, 0, 73, 117135), (46, 0, 46, 117165),
        (24, 0, 24, 117184), (9, 0, 9, 117190), (0, 0, 0, 117190),
    ]),
    ("doubling-unpruned", 0x9727a5a4d353f64b, &[
        (4543, 0, 4543, 6043), (25251, 0, 25251, 30650), (55557, 0, 55557, 73412),
        (45233, 0, 45233, 101201), (17301, 0, 17301, 112132), (4875, 0, 4875, 116104),
        (1196, 0, 1196, 117190), (0, 0, 0, 117190),
    ]),
    ("hybrid3-unpruned", 0x9727a5a4d353f64b, &[
        (4543, 0, 4543, 6043), (25251, 0, 25251, 30650), (40853, 0, 40853, 59958),
        (50749, 0, 50749, 91954), (27907, 0, 27907, 109179), (8333, 0, 8333, 115426),
        (2153, 0, 2153, 117175), (16, 0, 16, 117190), (0, 0, 0, 117190),
    ]),
];
