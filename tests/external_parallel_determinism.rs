//! Threaded external-build determinism: the §4 disk-based engine must
//! produce an index that serializes to byte-identical files at every
//! thread count, equals the in-memory engine's index entry for entry,
//! reports thread-count-independent I/O totals — which, on two fixed
//! graphs, are pinned to their exact recorded values (the §4 cost model
//! as a test) — and answers every query exactly like the BFS ground
//! truth.

mod labelkit;

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::HopDbConfig;
use hop_doubling::sfgraph::ranking::RankBy;
use hop_doubling::sfgraph::Graph;
use labelkit::{assert_readers_on, assert_thread_counts_agree, image, pairs_from, ranked};

/// Budget small enough that the sorters spill and the background spill
/// worker actually runs on these test-sized graphs.
fn spilling_ext() -> ExtMemConfig {
    ExtMemConfig { memory_records: 512, block_bytes: 1024 }
}

#[test]
fn undirected_glp_external_builds_identically_across_thread_counts() {
    let g = ranked(&glp(&GlpParams::with_density(450, 3.0, 31)), &RankBy::Degree);
    let index = assert_thread_counts_agree(&g, Some(&spilling_ext()));
    assert_readers_on(&g, &index, &pairs_from(&g, 41), "undirected");
}

#[test]
fn directed_glp_external_builds_identically_across_thread_counts() {
    let raw = orient_scale_free(&glp(&GlpParams::with_density(400, 2.5, 47)), 0.25, 47);
    let g = ranked(&raw, &RankBy::DegreeProduct);
    let index = assert_thread_counts_agree(&g, Some(&spilling_ext()));
    assert_readers_on(&g, &index, &pairs_from(&g, 37), "directed");
}

/// A budget under which the prune's resident head of `across` fills:
/// 256 records leave it 1 536 bytes, three 512-byte blocks, and the label
/// files here are 4–10 KB, so a prune of several candidate blocks reads
/// more than that from their start in most rounds. Every side's head is
/// its own, so the threaded build must still move the sequential build's
/// bytes and seeks.
#[test]
fn a_full_across_head_keeps_io_identical_across_thread_counts() {
    let tight = ExtMemConfig { memory_records: 256, block_bytes: 512 };
    let und = glp(&GlpParams::with_density(600, 3.0, 19));
    assert_thread_counts_agree(&ranked(&und, &RankBy::Degree), Some(&tight));
    let dir = orient_scale_free(&glp(&GlpParams::with_density(600, 2.5, 23)), 0.25, 23);
    assert_thread_counts_agree(&ranked(&dir, &RankBy::DegreeProduct), Some(&tight));
}

#[test]
fn zero_parallelism_resolves_to_all_cores_externally() {
    // `--threads 0` means "all cores"; whatever that resolves to, the
    // index must still be the sequential one.
    let g = ranked(&glp(&GlpParams::with_density(250, 3.0, 5)), &RankBy::Degree);
    let seq = build_external(&g, &HopDbConfig::default(), &spilling_ext()).unwrap();
    let auto =
        build_external(&g, &HopDbConfig::default().with_parallelism(0), &spilling_ext()).unwrap();
    assert_eq!(auto.index, seq.index);
    assert_eq!(image(&auto.index), image(&seq.index));
}

#[test]
fn external_io_counters_equal_their_recorded_values() {
    // The §4 cost model is `O(Σ scan + sort)` per iteration, and on a
    // fixed graph, ranking and budget the engine's counters repeat bit
    // for bit at every thread count — so they are compared for
    // equality, not against a ceiling: one extra pass over a label
    // file, or one spared, fails here with both numbers in the message.
    //
    // If the algorithm legitimately changes its I/O, re-measure: run
    // this test, check that the new numbers are what the change
    // predicts, and replace the constants in the same PR. Recorded when
    // the external build stopped reading blocks no join asks for (every
    // side prunes owner-major, so no side sorts its survivors back; the
    // label and edge readers jump through their run's key directory —
    // the `seeks` column; the round that finds the fixpoint merges
    // nothing), then again when the builders started labelling only the
    // core: both graphs lose their peeled leaves' rounds, and the
    // directed graph's candidate sorters no longer spill; again when the
    // core lost the vertices with two neighbours too; and again when the
    // prune started dropping a candidate its owner's own entry dominates
    // before the `across` pass: both graphs read fewer `across` groups
    // (undirected 2 541 300 → 2 439 000 B, 621 → 596 blocks, 13 → 10
    // seeks; directed 1 664 124 → 1 561 824 B, 407 → 382 blocks, 17 → 13
    // seeks) and write the same bytes; and again when runs became
    // delta-coded chunks of one block instead of 12-byte records: the
    // same passes move 3.3–3.9× fewer bytes (undirected read 2 439 000 →
    // 660 453 B, written 1 427 388 → 366 565 B; directed read 1 561 824 →
    // 471 489 B, written 771 132 → 205 396 B), and a block holding more
    // records leaves fewer probes beyond the one buffered (seeks 10 → 2
    // and 13 → 1); and again when the prune started keeping the head of
    // `across` resident between its candidate blocks: the undirected
    // graph, whose prunes take several blocks, reads 660 453 → 594 924 B
    // (162 → 146 blocks), the directed one, whose prunes take one block
    // each, reads what it did, and both write the same bytes.
    //
    // The records encoded and decoded were pinned beside them when the
    // build started counting them: the work per record that the byte
    // counts hide, which a change to the cost of a record must leave
    // exactly where it is. All of it moved again when a round's
    // survivors started joining the labels as a delta run instead of
    // being merged into a rewritten label file, folded in only once the
    // deltas pass a quarter of the base or four runs, and a side without
    // survivors stopped rewriting its labels: the undirected graph reads
    // 594 924 → 543 299 B and writes 366 565 → 318 387 B, with 4 → 3
    // merge passes and 118 949 / 206 069 → 103 642 / 190 771 records
    // encoded / decoded; the directed one reads 471 489 → 393 899 B and
    // writes 205 396 → 116 352 B, with 6 → 2 merge passes and 64 261 /
    // 136 827 → 36 499 / 109 103 records.
    //
    // The prune's blocks were pinned beside them when the prune started
    // packing each candidate into one sort word and each owner's label
    // into its block once, all counted against `12 × M` bytes where
    // `M/2` twelve-byte records were: the undirected graph's three
    // prunes take 8 → 5 blocks and decode 190 771 → 180 756 records,
    // each later pass re-decoding the resident head one time fewer, with
    // every byte where it was (the head already held all the passes
    // read); the directed graph, one block a prune, moves nothing.
    //
    // Bytes, blocks, seeks and records decoded moved again when a record
    // whose key repeats stopped spending a byte on a zero key delta (one
    // flag bit in its pivot delta instead), and seeding started writing
    // its runs straight from the graph's sorted adjacency instead of
    // sorting them: the undirected graph reads 543 299 → 405 606 B and
    // writes 318 387 → 228 513 B (133 + 78 → 100 + 56 blocks, 2 → 1
    // seeks), the directed one reads 393 899 → 298 973 B and writes
    // 116 352 → 90 117 B (97 + 29 → 73 + 23 blocks, 1 → 0 seeks). A
    // block and the prune's resident head now hold more records, so the
    // readers decode more of the records around the ones a join asks for
    // (180 756 → 184 387 and 109 103 → 111 756).
    // The records encoded stay: both graphs' seeding sorts fit in memory,
    // so they wrote each record once, as the walk does.
    //
    // The raw candidates the joins offered and those the hub table
    // killed were pinned beside them when both engines started killing
    // a candidate that the table of the 16 top-ranked vertices'
    // distances dominates before it reaches the sorter: on the
    // undirected graph the table kills 77 % of what the joins offer, so
    // the candidate sorters spill 8 → 2 runs, the prunes take 5 → 2
    // blocks, and the build reads 405 606 → 278 829 B and writes
    // 228 513 → 123 779 B (100 + 56 → 69 + 31 blocks, 3 → 2 merge
    // passes), with 103 642 / 184 387 → 53 159 / 114 065 records
    // encoded / decoded. The directed graph, which built no table then,
    // moved when a directed build got one table per side (`Lout`'s
    // distances to the hubs, `Lin`'s from them): the tables kill 66 % of
    // what its joins offer (33 156 of 49 883; the joins offer 50 631 →
    // 49 883 as fewer entries reach later rounds), its prunes take 8 → 6
    // blocks, and the build reads 298 973 → 287 668 B and writes
    // 90 117 → 88 657 B (73 + 23 → 71 + 22 blocks), with 36 499 /
    // 111 756 → 35 770 / 105 129 records encoded / decoded. Its
    // candidate sorters never spilled, so its bytes fall far less than
    // the undirected graph's did.
    //
    // Bytes, blocks and records moved again when the build stopped
    // writing the core to disk and reading it back: a stepping round
    // takes each owner's arcs from the in-memory graph, so no side
    // writes an edge run or reads one every round, and the first round
    // reads its `prev` — the seeds — off the graph too, so seeding
    // writes no `prev` run and that round reads none. The candidates,
    // the sorters' runs and merges and the prunes are untouched: the
    // undirected graph reads 278 829 → 211 087 B and writes 123 779 →
    // 91 096 B (69 + 31 → 52 + 23 blocks, 1 → 0 seeks, the one jump
    // through an edge run), with 53 159 / 114 065 → 39 113 / 87 031
    // records encoded / decoded; the directed one reads 287 668 →
    // 219 830 B and writes 88 657 → 65 870 B (71 + 22 → 54 + 17
    // blocks), with 35 770 / 105 129 → 26 098 / 76 190 records.
    //
    // All of it but the candidates and the prune blocks moved again when
    // the seeds stopped being a file: every pass over a side's labels
    // reads its seeds and self-entries off the in-memory core, merged
    // with the file runs, so seeding writes nothing, no pass reads or
    // decodes the seeds from disk, and a side's first survivor run
    // becomes its file base instead of a delta on a seeded one. Folds
    // merge the file runs only: the undirected graph reads 211 087 →
    // 98 267 B and writes 91 096 → 39 257 B (52 + 23 → 24 + 10 blocks,
    // 2 → 1 merge passes: its one fold is gone), with 39 113 / 87 031 →
    // 17 957 / 41 580 records encoded / decoded; the directed one reads
    // 219 830 → 103 199 B and writes 65 870 → 15 892 B (54 + 17 → 26 + 4
    // blocks, 2 → 0 merge passes), with 26 098 / 76 190 → 7 296 / 33 980
    // records.
    //
    // ((bytes read, bytes written, blocks read, blocks written),
    //  sort runs, merge passes, seeks, (records encoded, records decoded),
    //  prune blocks, (raw candidates, hub-killed))
    type Counters = ((u64, u64, u64, u64), u64, u64, u64, (u64, u64), u64, (u64, u64));
    let und = glp(&GlpParams::with_density(2_000, 3.0, 7));
    let dir = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 13)), 0.25, 13);
    let cases: [(&str, Graph, RankBy, Counters); 2] = [
        (
            "undirected glp-2k-d3 (seed 7)",
            und,
            RankBy::Degree,
            ((98_267, 39_257, 24, 10), 2, 1, 0, (17_957, 41_580), 2, (102_883, 78_782)),
        ),
        (
            "directed glp-1.5k-d2.5 (seed 13)",
            dir,
            RankBy::DegreeProduct,
            ((103_199, 15_892, 26, 4), 0, 0, 0, (7_296, 33_980), 6, (49_883, 33_156)),
        ),
    ];
    // M = 16 Ki records, B = 4 KiB: small enough that the sorters spill
    // on ~100 Ki records of traffic.
    let ext = ExtMemConfig { memory_records: 1 << 14, block_bytes: 4 << 10 };
    for (name, raw, rank_by, recorded) in cases {
        let g = ranked(&raw, &rank_by);
        for threads in [1usize, 2, 4] {
            let cfg = HopDbConfig::default().with_parallelism(threads);
            let built = build_external(&g, &cfg, &ext).expect("external build");
            let records = (built.records_encoded, built.records_decoded);
            assert_eq!(
                (
                    built.io,
                    built.sort_runs,
                    built.merge_passes,
                    built.seeks,
                    records,
                    built.prune_blocks,
                    (built.raw_candidates, built.hub_killed)
                ),
                recorded,
                "{name}, {threads} thread(s)"
            );
        }
    }
}
