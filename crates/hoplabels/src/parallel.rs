//! The workspace's one way to split work and run it on threads: every
//! parallel loop (the batched `FlatIndex::query_many`, both build
//! engines and the canonical filter) fans out through [`run_workers`]
//! after [`resolve_threads`], and every contiguous cut by weight (the
//! engines' owner ranges, the filter's, [`crate::shard::shard_image`]'s
//! pivot ranges) is [`split_by_weight`]. How work is cut and dealt only
//! decides who does it: each caller's results are the same for every
//! thread count.

/// The thread count a requested `threads` resolves to: itself when
/// non-zero, else the machine's available parallelism (1 if that cannot
/// be determined).
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    }
}

/// Cut `weights` into exactly `parts` contiguous ranges of about equal
/// total weight: range `p` is `cuts[p]..cuts[p + 1]` of the returned
/// `parts + 1` cuts. Cut `p` sits at the first index where the running
/// total reaches `total·p/parts` (summed in `u128`, so no weight type
/// overflows it), so a range overshoots its share by less than one
/// item; ranges may be empty when single items outweigh a share or
/// there are fewer items than parts.
pub fn split_by_weight<W: Copy + Into<u128>>(weights: &[W], parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let total: u128 = weights.iter().map(|&w| w.into()).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    let (mut at, mut reached) = (0usize, 0u128);
    for p in 1..parts {
        let share = total * p as u128 / parts as u128;
        while at < weights.len() && reached < share {
            reached += weights[at].into();
            at += 1;
        }
        cuts.push(at);
    }
    cuts.push(weights.len());
    cuts
}

/// Run `work` on every input and return the results in input order: all
/// inline unless `parallel`, else the first inline and every other on a
/// scoped thread of its own. A worker's panic resumes on the caller.
pub fn run_workers<I: Send, O: Send>(
    parallel: bool,
    inputs: Vec<I>,
    work: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    if !parallel {
        return inputs.into_iter().map(work).collect();
    }
    let (work, mut inputs) = (&work, inputs.into_iter());
    let first = inputs.next();
    std::thread::scope(|sc| {
        let handles: Vec<_> = inputs.map(|input| sc.spawn(move || work(input))).collect();
        let rest =
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        first.map(work).into_iter().chain(rest).collect()
    })
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
        assert_eq!(split_by_weight::<u32>(&[], 4), vec![0; 5]);
        assert_eq!(split_by_weight(&[0u32, 0, 0], 2), vec![0, 0, 3], "weightless items: one range");
    }

    #[test]
    fn more_parts_than_items() {
        // A share below one item's weight takes no item, so the ranges
        // before the items' cuts come out empty.
        assert_eq!(split_by_weight(&[1u32, 1], 5), vec![0, 0, 0, 1, 1, 2]);
        assert_eq!(split_by_weight(&[7u64], 3), vec![0, 1, 1, 1]);
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
        assert_eq!(split_by_weight(&[u32::MAX, 1, 1], 3), vec![0, 1, 1, 3]);
    }

    #[test]
    fn totals_past_u32_and_u64_cut_as_if_exact() {
        // Four items of u32::MAX: the total needs 34 bits, and the same
        // weights cut alike as u32 and as u64.
        let narrow = [u32::MAX; 4];
        let wide = narrow.map(u64::from);
        assert_eq!(split_by_weight(&narrow, 2), vec![0, 2, 4]);
        assert_eq!(split_by_weight(&wide, 2), split_by_weight(&narrow, 2));
        // Past u64: the shares are still the exact quantiles.
        assert_eq!(split_by_weight(&[u64::MAX, u64::MAX, u64::MAX, 1], 3), vec![0, 1, 2, 4]);
    }

    #[test]
    fn workers_answer_in_input_order_and_the_first_inline() {
        let caller = std::thread::current().id();
        for parallel in [false, true] {
            let out = run_workers(parallel, (0..5u32).collect(), |i| {
                (i * i, std::thread::current().id() == caller)
            });
            let squares: Vec<u32> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, vec![0, 1, 4, 9, 16]);
            let inline: Vec<bool> = out.iter().map(|&(_, here)| here).collect();
            let want =
                if parallel { vec![true, false, false, false, false] } else { vec![true; 5] };
            assert_eq!(inline, want, "parallel = {parallel}");
        }
        assert!(run_workers(true, Vec::<u32>::new(), |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "worker 2 fails")]
    fn a_worker_panic_reaches_the_caller() {
        run_workers(true, (0..4u32).collect(), |i| assert_ne!(i, 2, "worker {i} fails"));
    }
}
