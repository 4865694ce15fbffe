//! Work-splitting helpers for the parallel engine.
//!
//! Within one iteration of Algorithm 1, gathering an owner's candidates
//! and pruning them only *read* the label index as frozen at the end of
//! the previous iteration, and everything a round does to an owner's
//! label depends on that owner alone. The parallel engine therefore cuts
//! the round's owners into contiguous ranges of about equal gather
//! weight ([`split_by_weight`]), deals them out to its workers, and lets
//! each worker gather, prune and, after a barrier, apply its ranges in
//! isolation. The ranges partition the owners, so each `(owner, pivot)`
//! is reduced by exactly one worker and the build is bit-identical to
//! the sequential one; how the owners are cut and dealt only decides who
//! does the work.

/// Cut `weights` into exactly `parts` contiguous ranges of about equal
/// total weight: range `p` is `cuts[p]..cuts[p + 1]` of the returned
/// `parts + 1` cuts. Each cut sits at the first index where the running
/// total reaches its share, so a range overshoots its share by less
/// than one item; ranges may be empty when single items outweigh a
/// share or there are fewer items than parts.
pub fn split_by_weight(weights: &[u32], parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    let (mut at, mut reached) = (0usize, 0u128);
    for p in 1..parts {
        let share = total * p as u128 / parts as u128;
        while at < weights.len() && reached < share {
            reached += u128::from(weights[at]);
            at += 1;
        }
        cuts.push(at);
    }
    cuts.push(weights.len());
    cuts
}

/// Worker-thread count for a round with `work` driving entries:
/// parallelism below this many entries costs more in spawning and
/// joining the workers than it saves, so small rounds run on one
/// thread. The decision only affects scheduling, never results.
pub fn effective_threads(threads: usize, work: usize) -> usize {
    const MIN_WORK_PER_THREAD: usize = 512;
    if work < 2 * MIN_WORK_PER_THREAD {
        1
    } else {
        threads.clamp(1, work / MIN_WORK_PER_THREAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range_weights(weights: &[u32], cuts: &[usize]) -> Vec<u64> {
        cuts.windows(2).map(|c| weights[c[0]..c[1]].iter().map(|&w| u64::from(w)).sum()).collect()
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let weights: Vec<u32> = (0..10).map(|i| 1 + i % 3).collect();
        for parts in 1..=12 {
            let cuts = split_by_weight(&weights, parts);
            assert_eq!(cuts.len(), parts + 1);
            assert_eq!((cuts[0], cuts[parts]), (0, weights.len()), "parts = {parts}");
            assert!(cuts.windows(2).all(|c| c[0] <= c[1]), "cuts go backwards: {cuts:?}");
        }
    }

    #[test]
    fn chunks_of_empty_slice() {
        assert_eq!(split_by_weight(&[], 4), vec![0; 5]);
        assert_eq!(split_by_weight(&[0, 0, 0], 2), vec![0, 0, 3], "weightless items: one chunk");
    }

    #[test]
    fn split_balances_weight_not_count() {
        // A hub-heavy head, as a degree ranking produces: the first range
        // is the two hubs, not a third of the items.
        let weights = [50, 40, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let cuts = split_by_weight(&weights, 2);
        assert_eq!(cuts, vec![0, 2, 11]);
        assert_eq!(range_weights(&weights, &cuts), vec![90, 90]);

        // Every range stays within one item of its share.
        let weights: Vec<u32> = (0..1000u32).map(|i| 1 + (i * 7919) % 97).collect();
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        for parts in [2usize, 3, 8] {
            let cuts = split_by_weight(&weights, parts);
            for w in range_weights(&weights, &cuts) {
                assert!(w <= total / parts as u64 + 97, "range of {w} in {parts} parts of {total}");
            }
        }
    }

    #[test]
    fn split_survives_an_item_heavier_than_a_share() {
        let cuts = split_by_weight(&[u32::MAX, 1, 1], 3);
        assert_eq!(cuts, vec![0, 1, 1, 3]);
    }

    #[test]
    fn effective_threads_scales_with_work() {
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(8, 1000), 1);
        assert_eq!(effective_threads(8, 2048), 4);
        assert_eq!(effective_threads(8, 1 << 20), 8);
        assert_eq!(effective_threads(1, 1 << 20), 1);
    }
}
