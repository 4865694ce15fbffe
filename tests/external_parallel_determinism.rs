//! Threaded external-build determinism: the §4 disk-based engine must
//! produce an index that serializes to byte-identical files at every
//! thread count, equals the in-memory engine's index entry for entry,
//! reports thread-count-independent I/O totals — which, on two fixed
//! graphs, are pinned to their exact recorded values (the §4 cost model
//! as a test) — and answers every query exactly like the BFS ground
//! truth.

use hop_doubling::extmem::ExtMemConfig;
use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::external::build_external;
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::bfs;
use hop_doubling::sfgraph::{Direction, Graph, VertexId};

/// The index's `HOPIDX03` image, from the one serializer.
fn serialized(index: &hop_doubling::hoplabels::LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).unwrap();
    bytes
}

/// Budget small enough that the sorters spill and the background spill
/// worker actually runs on these test-sized graphs.
fn spilling_ext() -> ExtMemConfig {
    ExtMemConfig { memory_records: 512, block_bytes: 1024 }
}

fn assert_external_thread_counts_agree(g: &Graph) {
    let (mem, _) = build_prelabeled(g, &HopDbConfig::default());
    let seq = build_external(g, &HopDbConfig::default().with_parallelism(1), &spilling_ext())
        .expect("sequential external build");
    assert_eq!(seq.index, mem, "external engine diverges from the in-memory engine");
    let seq_bytes = serialized(&seq.index);
    for threads in [2usize, 4] {
        let par =
            build_external(g, &HopDbConfig::default().with_parallelism(threads), &spilling_ext())
                .expect("threaded external build");
        assert_eq!(
            par.index, seq.index,
            "{threads}-thread external index differs from sequential entry-for-entry"
        );
        assert_eq!(
            serialized(&par.index),
            seq_bytes,
            "{threads}-thread serialized external index is not byte-identical"
        );
        assert_eq!(
            (par.io, par.sort_runs, par.merge_passes, par.seeks),
            (seq.io, seq.sort_runs, seq.merge_passes, seq.seeks),
            "I/O accounting must not depend on the thread count ({threads} threads)"
        );
        assert_eq!(par.stats.num_iterations(), seq.stats.num_iterations());
        for (p, s) in par.stats.iterations.iter().zip(&seq.stats.iterations) {
            assert_eq!(
                (p.candidates, p.pruned, p.inserted, p.total_entries),
                (s.candidates, s.pruned, s.inserted, s.total_entries),
                "iteration {} counters diverged at {threads} threads",
                p.iteration
            );
        }
    }
}

#[test]
fn undirected_glp_external_builds_identically_across_thread_counts() {
    let raw = glp(&GlpParams::with_density(450, 3.0, 31));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    assert_external_thread_counts_agree(&g);

    // And the threaded external build answers exactly like BFS truth.
    let result = build_external(&g, &HopDbConfig::default().with_parallelism(4), &spilling_ext())
        .expect("threaded external build");
    for s in (0..g.num_vertices() as VertexId).step_by(41) {
        let truth = bfs(&g, s, Direction::Out);
        for t in 0..g.num_vertices() as VertexId {
            assert_eq!(result.index.query(s, t), truth[t as usize], "dist({s}, {t})");
        }
    }
}

#[test]
fn directed_glp_external_builds_identically_across_thread_counts() {
    let raw = orient_scale_free(&glp(&GlpParams::with_density(400, 2.5, 47)), 0.25, 47);
    let ranking = rank_vertices(&raw, &RankBy::DegreeProduct);
    let g = relabel_by_rank(&raw, &ranking);
    assert_external_thread_counts_agree(&g);

    let result = build_external(&g, &HopDbConfig::default().with_parallelism(4), &spilling_ext())
        .expect("threaded external build");
    for s in (0..g.num_vertices() as VertexId).step_by(37) {
        let truth = bfs(&g, s, Direction::Out);
        for t in 0..g.num_vertices() as VertexId {
            assert_eq!(result.index.query(s, t), truth[t as usize], "dist({s}, {t})");
        }
    }
}

#[test]
fn zero_parallelism_resolves_to_all_cores_externally() {
    // `--threads 0` means "all cores"; whatever that resolves to, the
    // index must still be the sequential one.
    let raw = glp(&GlpParams::with_density(250, 3.0, 5));
    let ranking = rank_vertices(&raw, &RankBy::Degree);
    let g = relabel_by_rank(&raw, &ranking);
    let seq = build_external(&g, &HopDbConfig::default(), &spilling_ext()).unwrap();
    let auto =
        build_external(&g, &HopDbConfig::default().with_parallelism(0), &spilling_ext()).unwrap();
    assert_eq!(auto.index, seq.index);
    assert_eq!(serialized(&auto.index), serialized(&seq.index));
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
    // label, edge and `inv` readers jump through their run's key
    // directory — the `seeks` column; the round that finds the fixpoint
    // merges nothing), then again when the builders started labelling
    // only the core: both graphs lose their peeled leaves' rounds, and
    // the directed graph's candidate sorters no longer spill; and again
    // when the core lost the vertices with two neighbours too.
    //
    // ((bytes read, bytes written, blocks read, blocks written),
    //  sort runs, merge passes, seeks)
    type Counters = ((u64, u64, u64, u64), u64, u64, u64);
    let und = glp(&GlpParams::with_density(2_000, 3.0, 7));
    let dir = orient_scale_free(&glp(&GlpParams::with_density(1_500, 2.5, 13)), 0.25, 13);
    let cases: [(&str, Graph, RankBy, Counters); 2] = [
        (
            "undirected glp-2k-d3 (seed 7)",
            und,
            RankBy::Degree,
            ((2_541_300, 1_427_388, 621, 349), 8, 4, 13),
        ),
        (
            "directed glp-1.5k-d2.5 (seed 13)",
            dir,
            RankBy::DegreeProduct,
            ((1_664_124, 771_132, 407, 189), 0, 6, 17),
        ),
    ];
    // M = 16 Ki records, B = 4 KiB: small enough that the sorters spill
    // on ~100 Ki records of traffic.
    let ext = ExtMemConfig { memory_records: 1 << 14, block_bytes: 4 << 10 };
    for (name, raw, rank_by, recorded) in cases {
        let g = relabel_by_rank(&raw, &rank_vertices(&raw, &rank_by));
        for threads in [1usize, 4] {
            let cfg = HopDbConfig::default().with_parallelism(threads);
            let built = build_external(&g, &cfg, &ext).expect("external build");
            assert_eq!(
                (built.io, built.sort_runs, built.merge_passes, built.seeks),
                recorded,
                "{name}, {threads} thread(s)"
            );
        }
    }
}
