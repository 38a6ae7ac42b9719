//! Configuration for the local partitioning drivers.

use crate::modularity::Modularity;
use crate::trace::Stage;
use crate::PartitionError;

/// What to do when the frontier `N(P_k)` empties before the partition is
/// full (Algorithm 1, line 11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReseedPolicy {
    /// Pick a fresh random seed vertex with residual edges and keep filling
    /// the same partition. This is the behaviour consistent with Fig. 3
    /// ("expand until the local partition is full") and is required for
    /// disconnected graphs to produce balanced partitions. **Default.**
    #[default]
    Reseed,
    /// Stop the round immediately, as literally written in Algorithm 1.
    /// Edges left unassigned after the final round are swept into the
    /// least-loaded partitions.
    Break,
}

/// Which stage's criterion picks the next frontier vertex: the one rule
/// that tells TLP, TLP_R and the single-stage ablations apart (they all
/// run Algorithm 1).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StageSwitch {
    /// TLP (Table II): Stage I while `M(P_k) <= 1`, Stage II afterwards.
    /// **Default.**
    #[default]
    Modularity,
    /// TLP_R (Table V): Stage I while `|E(P_k)| <= R * C`, Stage II
    /// afterwards, with `R` in `[0, 1]` (validated when partitioning). The
    /// paper shows both extremes are the worst configurations, while
    /// interior `R` approaches (but needs tuning to match) TLP's switch.
    EdgeRatio(f64),
    /// Stage I (Eq. 7) for every selection: TLP_R at `R = 1`.
    StageOneOnly,
    /// Stage II (Eq. 9) for every selection: TLP_R at `R = 0`.
    StageTwoOnly,
}

impl StageSwitch {
    /// The stage that picks the next vertex of a partition holding
    /// `internal` edges with `external` boundary edges, under capacity `C`.
    pub(crate) fn stage(self, internal: usize, external: usize, capacity: usize) -> Stage {
        let stage_one = match self {
            StageSwitch::Modularity => Modularity::new(internal, external).is_stage_one(),
            StageSwitch::EdgeRatio(ratio) => {
                ratio > 0.0 && (internal as f64) <= ratio * capacity as f64
            }
            StageSwitch::StageOneOnly => true,
            StageSwitch::StageTwoOnly => false,
        };
        if stage_one {
            Stage::One
        } else {
            Stage::Two
        }
    }
}

/// Configuration of [`crate::TwoStageLocalPartitioner`]: TLP, TLP_R or a
/// single-stage ablation, depending on the [`StageSwitch`].
///
/// `TlpConfig` is a small consuming builder:
///
/// ```
/// use tlp_core::{ReseedPolicy, StageSwitch, TlpConfig};
///
/// let config = TlpConfig::new()
///     .seed(42)
///     .reseed_policy(ReseedPolicy::Break)
///     .stage_switch(StageSwitch::EdgeRatio(0.3));
/// assert_eq!(config.seed_value(), 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TlpConfig {
    seed: u64,
    reseed: ReseedPolicy,
    switch: StageSwitch,
    trials: usize,
    threads: usize,
}

impl Default for TlpConfig {
    fn default() -> Self {
        TlpConfig {
            seed: 0,
            reseed: ReseedPolicy::default(),
            switch: StageSwitch::default(),
            trials: 1,
            threads: 0,
        }
    }
}

impl TlpConfig {
    /// Creates the default configuration: TLP's modularity switch, seed 0,
    /// capacity `ceil(m/p)`, reseeding enabled, one trial.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed used for seed-vertex selection.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the frontier-exhaustion policy.
    #[must_use]
    pub fn reseed_policy(mut self, policy: ReseedPolicy) -> Self {
        self.reseed = policy;
        self
    }

    /// Sets the rule that picks the stage of each selection.
    #[must_use]
    pub fn stage_switch(mut self, switch: StageSwitch) -> Self {
        self.switch = switch;
        self
    }

    /// The configured RNG seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The configured reseed policy.
    pub fn reseed_policy_value(&self) -> ReseedPolicy {
        self.reseed
    }

    /// The configured stage switch.
    pub fn stage_switch_value(&self) -> StageSwitch {
        self.switch
    }

    /// Runs `trials` independently seeded partitioning attempts and keeps
    /// the one with the lowest replication factor (see
    /// [`crate::ParallelTrialRunner`]). Trial 0 uses the configured seed
    /// verbatim, so `trials = 1` (the default) is the plain single run.
    /// Must be at least 1 (validated when partitioning).
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// The configured trial count.
    pub fn trials_value(&self) -> usize {
        self.trials
    }

    /// Caps the worker threads used for multi-trial runs. `0` (the
    /// default) means "use the machine's available parallelism". A single
    /// trial always runs on the calling thread regardless of this value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured thread cap (`0` = auto).
    pub fn threads_value(&self) -> usize {
        self.threads
    }

    /// Validates ranges; called by the partitioners before running.
    pub(crate) fn validate(&self) -> Result<(), PartitionError> {
        if let StageSwitch::EdgeRatio(ratio) = self.switch {
            if !(0.0..=1.0).contains(&ratio) {
                return Err(PartitionError::InvalidParameter {
                    name: "ratio",
                    value: ratio,
                    constraint: "must be in [0, 1]",
                });
            }
        }
        if self.trials == 0 {
            return Err(PartitionError::InvalidParameter {
                name: "trials",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(())
    }
}

/// The per-partition edge capacity `C = ⌈m/p⌉` (at least 1) for a graph
/// with `m` edges split `p` ways, as the paper defines it.
pub(crate) fn capacity(num_edges: usize, num_partitions: usize) -> usize {
    num_edges.div_ceil(num_partitions).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = TlpConfig::new().seed(9);
        assert_eq!(c.seed_value(), 9);
        assert_eq!(c.reseed_policy_value(), ReseedPolicy::Reseed);
    }

    #[test]
    fn capacity_is_ceiling_and_at_least_one() {
        assert_eq!(capacity(10, 3), 4);
        assert_eq!(capacity(9, 3), 3);
        assert_eq!(capacity(0, 5), 1);
        assert_eq!(capacity(2, 10), 1);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(TlpConfig::new(), TlpConfig::default());
    }

    #[test]
    fn trial_and_thread_knobs_round_trip() {
        let c = TlpConfig::new().trials(8).threads(4);
        assert_eq!(c.trials_value(), 8);
        assert_eq!(c.threads_value(), 4);
        assert_eq!(TlpConfig::new().trials_value(), 1);
        assert_eq!(TlpConfig::new().threads_value(), 0);
    }

    #[test]
    fn edge_ratio_switch_boundaries() {
        assert_eq!(StageSwitch::EdgeRatio(1.0).stage(5, 1, 10), Stage::One);
        assert_eq!(StageSwitch::EdgeRatio(0.0).stage(0, 1, 10), Stage::Two);
        let half = StageSwitch::EdgeRatio(0.5);
        assert_eq!(half.stage(4, 1, 10), Stage::One);
        assert_eq!(half.stage(6, 1, 10), Stage::Two);
        // The single-stage ablations are the ratio extremes wherever the
        // engine asks (`|E(P_k)| <= C` while a round grows).
        for internal in 0..=10 {
            assert_eq!(StageSwitch::StageOneOnly.stage(internal, 1, 10), Stage::One);
            assert_eq!(StageSwitch::StageTwoOnly.stage(internal, 1, 10), Stage::Two);
        }
    }

    #[test]
    fn modularity_switch_switches_at_one() {
        assert_eq!(StageSwitch::Modularity.stage(3, 4, 100), Stage::One);
        assert_eq!(StageSwitch::Modularity.stage(5, 4, 100), Stage::Two);
    }

    #[test]
    fn zero_trials_rejected() {
        assert!(TlpConfig::new().trials(0).validate().is_err());
        assert!(TlpConfig::new().trials(1).validate().is_ok());
    }
}
