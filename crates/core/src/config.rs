//! Build configuration.

use sfgraph::ranking::RankBy;

/// Which label-generation regime each iteration uses.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Hop-Doubling (§3): compose previous-iteration entries with all
    /// existing entries. Few iterations, large candidate bursts.
    Doubling,
    /// Hop-Stepping (§5): compose previous-iteration entries with single
    /// edges. `D_H` iterations, tightly bounded candidate volume.
    Stepping,
    /// Stepping for iterations `2 ..= switch_at`, Doubling afterwards —
    /// the paper's default with `switch_at = 10` (§8).
    Hybrid {
        /// Last iteration (in the paper's numbering, where initialization
        /// is iteration 1) that still uses stepping.
        switch_at: u32,
    },
}

impl Strategy {
    /// The paper's default: hybrid switching after iteration 10.
    pub fn default_hybrid() -> Strategy {
        Strategy::Hybrid { switch_at: 10 }
    }

    /// Whether iteration `iter` (2-based: the first generation round is
    /// iteration 2) composes with single edges (stepping) or with all
    /// labels (doubling).
    pub fn steps_at(&self, iter: u32) -> bool {
        match *self {
            Strategy::Doubling => false,
            Strategy::Stepping => true,
            Strategy::Hybrid { switch_at } => iter <= switch_at,
        }
    }
}

/// Configuration for [`crate::build`].
///
/// There is no iteration limit: every build runs to the fixpoint, which
/// stepping reaches after up to `D_H` rounds (§5.1). There is no pruning
/// switch either: every build applies §3.3's prune each iteration and
/// ends in the canonical filter ([`crate::postprune`], §5.2's exhaustive
/// pruning), so the labels do not depend on the strategy. The unpruned
/// fixpoint of the paper's worked examples is its own kernel entry,
/// [`crate::engine::build_unpruned`].
#[derive(Clone, Debug)]
pub struct HopDbConfig {
    /// Generation strategy; default [`Strategy::default_hybrid`].
    pub strategy: Strategy,
    /// Vertex ranking; `None` picks the paper's defaults (degree for
    /// undirected graphs, in×out-degree product for directed, §8).
    pub rank_by: Option<RankBy>,
    /// Worker threads for per-iteration candidate generation and
    /// pruning: `0` resolves to the machine's available parallelism,
    /// `1` (the default) runs the sequential path. The built index is
    /// bit-identical for every setting — each worker owns a range of
    /// label owners end to end, and every reduction is a minimum.
    ///
    /// The external engine ([`crate::external`]) reads the same knob as
    /// a concurrency budget over its fixed pipeline structure (side
    /// threads, spill workers, concurrent merges) rather than an exact
    /// worker count; see that module's docs for the thread and memory
    /// implications.
    pub parallelism: usize,
}

impl Default for HopDbConfig {
    fn default() -> Self {
        HopDbConfig { strategy: Strategy::default_hybrid(), rank_by: None, parallelism: 1 }
    }
}

impl HopDbConfig {
    /// Default configuration with a specific strategy.
    pub fn with_strategy(strategy: Strategy) -> HopDbConfig {
        HopDbConfig { strategy, ..Default::default() }
    }

    /// Builder-style parallelism override (see [`HopDbConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> HopDbConfig {
        self.parallelism = parallelism;
        self
    }

    /// The worker-thread count [`HopDbConfig::parallelism`] resolves to
    /// ([`hoplabels::parallel::resolve_threads`]: `0` is every core).
    pub fn resolved_parallelism(&self) -> usize {
        hoplabels::parallel::resolve_threads(self.parallelism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_switches_after_threshold() {
        let s = Strategy::Hybrid { switch_at: 10 };
        assert!(s.steps_at(2));
        assert!(s.steps_at(10));
        assert!(!s.steps_at(11));
    }

    #[test]
    fn pure_strategies_never_switch() {
        assert!(Strategy::Stepping.steps_at(1000));
        assert!(!Strategy::Doubling.steps_at(2));
    }

    #[test]
    fn default_config() {
        let c = HopDbConfig::default();
        assert_eq!(c.strategy, Strategy::Hybrid { switch_at: 10 });
        assert_eq!(c.parallelism, 1);
    }

    #[test]
    fn parallelism_resolution() {
        let c = HopDbConfig::default().with_parallelism(6);
        assert_eq!(c.resolved_parallelism(), 6);
        let auto = HopDbConfig::default().with_parallelism(0);
        assert!(auto.resolved_parallelism() >= 1, "0 resolves to the core count");
    }
}
