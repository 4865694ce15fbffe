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
//! graph — the graph these constants always hashed — followed by the
//! canonical filter every build ends in (`hopdb::postprune`), and as
//! `engine::build_unpruned`, the unpruned fixpoint, on the same graph. The filter leaves PLL's canonical labels, so
//! the three pruned strategies of a graph pin one label hash (asserted),
//! while each keeps its own rows: the filter runs after the last round
//! and moves none of them. The builders run the kernel on the graph's
//! core since vertex elimination; [`REDUCED`] pins that build too: its
//! derived-vertex count, and its finished index (records hashed in their
//! slots) and rows.
//!
//! Both engines run one round with one candidate count, so the external
//! engine, spilling, must build every pruned case's labels and rows
//! exactly as `build_prelabeled` does on the same graph
//! ([`assert_external_matches`]).
//!
//! The pruned undirected and weighted rows moved, and no label hash,
//! when both engines started killing a candidate that the hub table
//! (`hopdb::hubs`) dominates before counting it: `candidates` and
//! `pruned` fall by the kills on every such row. On the unweighted
//! graph's stepping rounds the table kills only what the label prune
//! would, so `inserted` and `total_entries` stay; where the labels of
//! a round hold upper bounds the table's exact distances beat — the
//! weighted graph, and doubling rounds — the table also kills entries
//! the label prune let in and the canonical filter dropped at the end,
//! so those rows insert fewer entries, and the doubling build of the
//! unweighted graph needs one round fewer. The directed rows and
//! [`REDUCED`] (a directed graph) moved, and no label hash, when a
//! directed build got a table per side: `Lout`'s distances to the hubs
//! and `Lin`'s from them. On the directed graph's stepping rounds only
//! `candidates` and `pruned` fall; its doubling build inserts fewer
//! entries and ends one round sooner, and [`REDUCED`]'s weighted core
//! inserts fewer entries from round 2 on — there the tables kill entries
//! the round's labels let through and the canonical filter dropped at
//! the end. Every build here is also held to the tables: the index
//! answers each vertex's distance to and from each hub they hold
//! ([`assert_hub_rows`]).

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::engine::{build_index, build_unpruned};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::hubs::{HubTable, HUBS};
use hop_doubling::hopdb::postprune::post_prune;
use hop_doubling::hopdb::{build, build_prelabeled, BuildStats, HopDbConfig, Strategy};
use hop_doubling::hoplabels::LabelIndex;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::{Graph, VertexId};

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

/// The kernel on the whole rank-relabeled graph, as `build` ranks it:
/// pruned and, as the builders do, filtered, or the unpruned fixpoint.
fn measure(g: &Graph, cfg: &HopDbConfig, pruned: bool) -> (u64, Vec<Row>) {
    let g = ranked(g);
    let (index, stats) = if pruned {
        let (mut index, stats) = build_index(&g, cfg);
        post_prune(&mut index, cfg.parallelism);
        (index, stats)
    } else {
        build_unpruned(&g, cfg)
    };
    assert_hub_rows(&g, &index);
    (label_hash(&index), rows(&stats))
}

/// The hub tables as an oracle: on a rank-relabeled `g`, `index`
/// answers every entry of every side's table that is not saturated —
/// `T[Lout][x][h] = dist(x → h)` and `T[Lin][x][h] = dist(h → x)` on a
/// directed graph, `T[L][x][h] = dist(x, h)` on an undirected one — an
/// exact audit of `sides × n × K` joins.
fn assert_hub_rows(g: &Graph, index: &LabelIndex) {
    let table = HubTable::new(g, HUBS);
    assert_eq!(table.hubs(), HUBS);
    for x in g.vertices() {
        for h in 0..table.hubs() {
            let hub = h as VertexId;
            if let Some(d) = table.distance(0, x, h) {
                assert_eq!(index.query(x, hub), d, "dist({x} → hub {h})");
            }
            if let Some(d) = g.is_directed().then(|| table.distance(1, x, h)).flatten() {
                assert_eq!(index.query(hub, x), d, "dist(hub {h} → {x})");
            }
        }
    }
}

fn ranked(g: &Graph) -> Graph {
    relabel_by_rank(g, &rank_vertices(g, &RankBy::paper_default(g)))
}

/// `(name, config, pruned)`: each strategy pruned, then through the
/// unpruned fixpoint.
fn configs() -> [(&'static str, HopDbConfig, bool); 6] {
    let cfg = HopDbConfig::with_strategy;
    [
        ("stepping", cfg(Strategy::Stepping), true),
        ("doubling", cfg(Strategy::Doubling), true),
        ("hybrid3", cfg(Strategy::Hybrid { switch_at: 3 }), true),
        ("stepping-unpruned", cfg(Strategy::Stepping), false),
        ("doubling-unpruned", cfg(Strategy::Doubling), false),
        ("hybrid3-unpruned", cfg(Strategy::Hybrid { switch_at: 3 }), false),
    ]
}

/// Build `g` under every config at 1, 2 and 4 threads and compare with
/// `golden`, one `(config name, label hash, rows)` per config. The
/// pruned configs must share one label hash: the filter leaves the
/// canonical labels, whatever the strategy.
fn assert_golden(graph: &str, g: &Graph, golden: &[(&str, u64, &[Row])]) {
    let mut failures = String::new();
    for (name, cfg, pruned) in configs() {
        let expect =
            golden.iter().find(|(n, ..)| *n == name).map(|&(_, h, rows)| (h, rows.to_vec()));
        for threads in [1usize, 2, 4] {
            let got = measure(g, &cfg.clone().with_parallelism(threads), pruned);
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
    let pruned: Vec<u64> = configs()
        .iter()
        .filter(|&&(.., pruned)| pruned)
        .filter_map(|(name, ..)| golden.iter().find(|(n, ..)| n == name).map(|&(_, h, _)| h))
        .collect();
    assert!(
        pruned.len() == 3 && pruned.windows(2).all(|w| w[0] == w[1]),
        "{graph}: the pruned strategies' label hashes differ: {pruned:#018x?}"
    );
}

/// Every pruned config of `g` built by the external engine at a budget
/// that spills: the same label hash and the same `(candidates, pruned,
/// inserted, total_entries)` rows as the in-memory build of the same
/// ranked graph.
fn assert_external_matches(graph: &str, g: &Graph) {
    let g = ranked(g);
    let ext = ExtMemConfig { memory_records: 1 << 10, block_bytes: 512 };
    for (name, cfg, _) in configs().into_iter().filter(|&(.., pruned)| pruned) {
        let (mem, mem_stats) = build_prelabeled(&g, &cfg);
        let built = build_external(&g, &cfg, &ext).expect("external build");
        assert_hub_rows(&g, &built.index);
        assert_eq!(
            (label_hash(&built.index), rows(&built.stats)),
            (label_hash(&mem), rows(&mem_stats)),
            "{graph} / {name}: the external engine left the in-memory engine's labels or rows"
        );
    }
}

#[test]
fn undirected_glp() {
    let g = glp(&GlpParams::with_density(1_500, 3.0, 42));
    assert_golden("glp 1500", &g, UNDIRECTED);
    assert_external_matches("glp 1500", &g);
}

#[test]
fn directed_glp() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 7)), 0.25, 7);
    assert_golden("directed glp 1500", &g, DIRECTED);
    assert_external_matches("directed glp 1500", &g);
}

#[test]
fn weighted_glp() {
    let g = with_random_weights(&glp(&GlpParams::with_density(1_500, 3.0, 23)), 1, 9, 23);
    assert_golden("weighted glp 1500", &g, WEIGHTED);
    assert_external_matches("weighted glp 1500", &g);
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
const REDUCED: (u64, u64, &[Row]) = (1025, 0xf58ccbc6b38d9557, &[
    (3152, 0, 3152, 6152), (5789, 105, 5684, 11836), (647, 10, 637, 12473),
    (36, 0, 36, 12509), (0, 0, 0, 12509),
]);

#[rustfmt::skip]
const UNDIRECTED: &[(&str, u64, &[Row])] = &[
    ("stepping", 0x87b9385e04411ffd, &[
        (4635, 0, 4635, 6135), (14095, 428, 13667, 19802), (1389, 51, 1338, 21140),
        (27, 0, 27, 21167), (0, 0, 0, 21167),
    ]),
    ("doubling", 0x87b9385e04411ffd, &[
        (4635, 0, 4635, 6135), (14095, 428, 13667, 19802), (1422, 51, 1371, 21173),
        (0, 0, 0, 21173),
    ]),
    ("hybrid3", 0x87b9385e04411ffd, &[
        (4635, 0, 4635, 6135), (14095, 428, 13667, 19802), (1389, 51, 1338, 21140),
        (27, 0, 27, 21167), (0, 0, 0, 21167),
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
        (4600, 0, 4600, 7600), (13111, 114, 12997, 20597), (4320, 17, 4303, 24900),
        (311, 0, 311, 25211), (23, 0, 23, 25234), (0, 0, 0, 25234),
    ]),
    ("doubling", 0x3998ea23d870d41e, &[
        (4600, 0, 4600, 7600), (13111, 114, 12997, 20597), (4597, 18, 4579, 25176),
        (61, 0, 61, 25237), (0, 0, 0, 25237),
    ]),
    ("hybrid3", 0x3998ea23d870d41e, &[
        (4600, 0, 4600, 7600), (13111, 114, 12997, 20597), (4320, 17, 4303, 24900),
        (331, 0, 331, 25231), (3, 0, 3, 25234), (0, 0, 0, 25234),
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
    ("stepping", 0x0492b86de4ac51bb, &[
        (4543, 0, 4543, 6043), (7078, 17, 7061, 12768), (7561, 45, 7516, 18896),
        (3227, 19, 3208, 21261), (635, 2, 633, 21720), (60, 0, 60, 21762), (3, 0, 3, 21764),
        (0, 0, 0, 21764),
    ]),
    ("doubling", 0x0492b86de4ac51bb, &[
        (4543, 0, 4543, 6043), (7078, 17, 7061, 12768), (9366, 55, 9311, 20568),
        (1655, 27, 1628, 21789), (0, 0, 0, 21789),
    ]),
    ("hybrid3", 0x0492b86de4ac51bb, &[
        (4543, 0, 4543, 6043), (7078, 17, 7061, 12768), (7561, 45, 7516, 18896),
        (3662, 28, 3634, 21626), (179, 3, 176, 21764), (0, 0, 0, 21764),
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
