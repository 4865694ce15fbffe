//! Parallel-construction determinism: building the same graph with any
//! worker-thread count must produce an index that is equal entry for
//! entry, serializes to byte-identical files, and answers every query
//! exactly like the BFS/Dijkstra ground truth.

mod labelkit;

use hop_doubling::graphgen::{glp, orient_scale_free, with_random_weights, GlpParams};
use hop_doubling::hopdb::{rank, HopDbConfig};
use labelkit::{assert_readers_on, assert_thread_counts_agree, pairs_from};

#[test]
fn undirected_glp_builds_identically_across_thread_counts() {
    // Large enough that inner iterations actually shard (the engine
    // falls back to one thread below ~1k driving entries).
    let (_, g) = rank(&glp(&GlpParams::with_density(1_500, 3.0, 42)), &HopDbConfig::default());
    let index = assert_thread_counts_agree(&g, None);
    assert_readers_on(&g, &index, &pairs_from(&g, 97), "undirected");
}

#[test]
fn directed_glp_builds_identically_across_thread_counts() {
    let g = orient_scale_free(&glp(&GlpParams::with_density(1_200, 2.5, 7)), 0.25, 7);
    let (_, g) = rank(&g, &HopDbConfig::default());
    let index = assert_thread_counts_agree(&g, None);
    assert_readers_on(&g, &index, &pairs_from(&g, 131), "directed");
}

#[test]
fn weighted_glp_builds_identically_across_thread_counts() {
    // Weights exercise the improve-in-place path of the inverted lists.
    let g = with_random_weights(&glp(&GlpParams::with_density(900, 3.0, 23)), 1, 9, 23);
    let (_, g) = rank(&g, &HopDbConfig::default());
    let index = assert_thread_counts_agree(&g, None);
    assert_readers_on(&g, &index, &pairs_from(&g, 73), "weighted");
}
