//! Parallel-construction determinism: building the same graph with any
//! worker-thread count must produce an index that is equal entry for
//! entry, serializes to byte-identical files, and answers every query
//! exactly like the BFS/Dijkstra ground truth.

use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::{build, HopDbConfig};
use hop_doubling::sfgraph::traversal::{bfs, dijkstra};
use hop_doubling::sfgraph::{Direction, Graph, VertexId};

/// The index's `HOPIDX04` image, from the one serializer.
fn serialized(index: &hop_doubling::hoplabels::LabelIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.write_hopidx(&mut bytes).unwrap();
    bytes
}

fn assert_thread_counts_agree(g: &Graph) {
    let seq = build(g, &HopDbConfig::default().with_parallelism(1));
    let seq_bytes = serialized(seq.index());
    for threads in [2usize, 4, 8] {
        let par = build(g, &HopDbConfig::default().with_parallelism(threads));
        assert_eq!(
            par.index(),
            seq.index(),
            "{threads}-thread index differs from sequential entry-for-entry"
        );
        assert_eq!(
            serialized(par.index()),
            seq_bytes,
            "{threads}-thread serialized index is not byte-identical"
        );
        assert_eq!(par.stats().num_iterations(), seq.stats().num_iterations());
        for (p, s) in par.stats().iterations.iter().zip(&seq.stats().iterations) {
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
fn undirected_glp_builds_identically_across_thread_counts() {
    // Large enough that inner iterations actually shard (the engine
    // falls back to one thread below ~1k driving entries).
    let g = glp(&GlpParams::with_density(1_500, 3.0, 42));
    assert_thread_counts_agree(&g);

    // And the parallel build answers exactly like the BFS oracle.
    let db = build(&g, &HopDbConfig::default().with_parallelism(4));
    for s in (0..g.num_vertices() as VertexId).step_by(97) {
        let truth = bfs(&g, s, Direction::Out);
        for t in 0..g.num_vertices() as VertexId {
            assert_eq!(db.query(s, t), truth[t as usize], "dist({s}, {t})");
        }
    }
}

#[test]
fn directed_glp_builds_identically_across_thread_counts() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_200, 2.5, 7)), 0.25, 7);
    assert_thread_counts_agree(&g);

    let db = build(&g, &HopDbConfig::default().with_parallelism(8));
    for s in (0..g.num_vertices() as VertexId).step_by(131) {
        let truth = bfs(&g, s, Direction::Out);
        for t in 0..g.num_vertices() as VertexId {
            assert_eq!(db.query(s, t), truth[t as usize], "dist({s}, {t})");
        }
    }
}

#[test]
fn weighted_glp_builds_identically_across_thread_counts() {
    // Weights exercise the improve-in-place path of the inverted lists.
    let g = with_random_weights(&glp(&GlpParams::with_density(900, 3.0, 23)), 1, 9, 23);
    assert_thread_counts_agree(&g);

    let db = build(&g, &HopDbConfig::default().with_parallelism(4));
    for s in (0..g.num_vertices() as VertexId).step_by(73) {
        let truth = dijkstra(&g, s, Direction::Out);
        for t in 0..g.num_vertices() as VertexId {
            assert_eq!(db.query(s, t), truth[t as usize], "dist({s}, {t})");
        }
    }
}
