//! Per-iteration construction statistics (the data behind Fig. 10 and
//! the iteration counts of Tables 7–8).

use std::time::{Duration, Instant};

use crate::config::Strategy;

/// What one iteration of the generate-and-prune loop did.
#[derive(Clone, Debug, Default)]
pub struct IterationStats {
    /// Iteration number in the paper's convention: initialization is
    /// iteration 1, the first generation round is iteration 2.
    pub iteration: u32,
    /// Whether this iteration used stepping (true) or doubling (false).
    pub stepping: bool,
    /// Candidates generated after same-pair deduplication, less those an
    /// entry of the same `(owner, pivot)` already dominates and those the
    /// hub tables kill ([`crate::hubs`]): both engines drop those before
    /// counting them.
    pub candidates: u64,
    /// Candidates rejected by the pruning test.
    pub pruned: u64,
    /// Surviving entries inserted into the index.
    pub inserted: u64,
    /// Total entries in the index after this iteration.
    pub total_entries: u64,
    /// Wall-clock time of the iteration.
    pub elapsed: Duration,
    /// Time spent gathering candidates, summed over workers (and sides):
    /// planning the round and, in a doubling round, rebuilding the
    /// inverted views, then every worker's pulls or every side's joins.
    pub gather: Duration,
    /// Time spent in the pruning test, summed over workers.
    pub prune: Duration,
    /// Time spent merging survivors into the labels, summed over workers.
    pub apply: Duration,
    /// Bytes the iteration read from the external-memory store (the
    /// external engine's label, candidate and sort files; zero from the
    /// in-memory engine).
    pub io_read_bytes: u64,
    /// Bytes the iteration wrote to the external-memory store.
    pub io_write_bytes: u64,
}

impl IterationStats {
    /// Fig. 10's *pruning factor*: pruned candidates / all candidates.
    pub fn pruning_factor(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }
}

/// Whole-build statistics.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Worker threads the build was configured to use (1 = sequential).
    pub threads: usize,
    /// One record per iteration, starting with initialization.
    pub iterations: Vec<IterationStats>,
    /// Entries in the final index (including trivial self-entries).
    pub final_entries: u64,
    /// Entries the canonical filter ([`crate::postprune`]) removed.
    pub post_pruned: u64,
    /// Time the filter took (included in [`BuildStats::elapsed`]).
    pub post_prune_elapsed: Duration,
    /// Time the hub tables ([`crate::hubs`]) took to build, before the
    /// seeding and outside its row (included in [`BuildStats::elapsed`]).
    pub hub_tables_elapsed: Duration,
    /// Vertices the index derives from their neighbours instead of
    /// labelling: those with one or two neighbours eliminated before the
    /// engine ran, each stored as a record (`hoplabels::Record`) per
    /// side.
    pub derived_vertices: u64,
    /// Of those, the leaves (one neighbour).
    pub derived_leaves: u64,
    /// Edges of the core the engine labelled: the graph's, minus the
    /// derived vertices' arcs, plus the shortcuts through them.
    pub core_edges: u64,
    /// Of those, the shortcuts: core arcs no arc of the graph gives.
    pub shortcut_arcs: u64,
    /// Total build time.
    pub elapsed: Duration,
}

impl BuildStats {
    /// Number of iterations in the paper's counting (initialization
    /// included) — comparable to Table 7/8's "number of iterations".
    pub fn num_iterations(&self) -> u32 {
        self.iterations.last().map_or(0, |it| it.iteration)
    }

    /// Fig. 10's *growing factor* per iteration: candidates generated at
    /// iteration `i` divided by entries inserted at iteration `i − 1`.
    /// Returns `(iteration, factor)` pairs for generation rounds.
    pub fn growing_factors(&self) -> Vec<(u32, f64)> {
        self.iterations
            .windows(2)
            .filter(|w| w[0].inserted > 0)
            .map(|w| (w[1].iteration, w[1].candidates as f64 / w[0].inserted as f64))
            .collect()
    }

    /// Peak candidate count over all iterations (the working-set measure
    /// that motivates stepping in §5).
    pub fn peak_candidates(&self) -> u64 {
        self.iterations.iter().map(|it| it.candidates).max().unwrap_or(0)
    }

    /// Sum of all candidates generated — proportional to generation work.
    pub fn total_candidates(&self) -> u64 {
        self.iterations.iter().map(|it| it.candidates).sum()
    }
}

/// One engine's generation rounds, as [`fixpoint`] drives them: the
/// in-memory engine over label arrays, the external one over files.
pub(crate) trait Rounds {
    /// What a round can fail with.
    type Error;
    /// Whether the last round (or the seeding) added entries to compose.
    fn pending(&self) -> bool;
    /// One stepping or doubling round: its counters, phase times and
    /// I/O; the loop numbers and clocks the row.
    fn round(&mut self, stepping: bool) -> Result<IterationStats, Self::Error>;
}

/// Run `engine`'s rounds after the seeding (iteration 1, `seeded`) to
/// the fixpoint. Every inserted entry strictly lowers one `(owner,
/// pivot)` distance, so the rounds cannot go on for ever.
pub(crate) fn fixpoint<R: Rounds>(
    engine: &mut R,
    strategy: &Strategy,
    threads: usize,
    seeded: IterationStats,
) -> Result<BuildStats, R::Error> {
    let mut stats = BuildStats { threads, iterations: vec![seeded], ..BuildStats::default() };
    let mut iteration = 1u32;
    while engine.pending() {
        iteration += 1;
        let (stepping, started) = (strategy.steps_at(iteration), Instant::now());
        let row = engine.round(stepping)?;
        let done = row.inserted == 0;
        stats.iterations.push(IterationStats {
            iteration,
            stepping,
            elapsed: started.elapsed(),
            ..row
        });
        if done {
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(iteration: u32, candidates: u64, pruned: u64, inserted: u64) -> IterationStats {
        IterationStats {
            iteration,
            stepping: true,
            candidates,
            pruned,
            inserted,
            ..IterationStats::default()
        }
    }

    #[test]
    fn pruning_factor() {
        assert_eq!(iter(2, 100, 25, 75).pruning_factor(), 0.25);
        assert_eq!(iter(2, 0, 0, 0).pruning_factor(), 0.0);
    }

    #[test]
    fn growing_factors_skip_empty_previous() {
        let stats = BuildStats {
            iterations: vec![iter(1, 0, 0, 10), iter(2, 30, 10, 20), iter(3, 40, 40, 0)],
            ..Default::default()
        };
        let gf = stats.growing_factors();
        assert_eq!(gf.len(), 2);
        assert_eq!(gf[0], (2, 3.0));
        assert_eq!(gf[1], (3, 2.0));
        assert_eq!(stats.peak_candidates(), 40);
        assert_eq!(stats.total_candidates(), 70);
        assert_eq!(stats.num_iterations(), 3);
    }
}
