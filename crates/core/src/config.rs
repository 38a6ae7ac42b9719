//! Configuration for the local partitioning drivers.

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

/// Configuration shared by [`crate::TwoStageLocalPartitioner`] and the
/// TLP_R / single-stage variants.
///
/// `TlpConfig` is a small consuming builder:
///
/// ```
/// use tlp_core::{ReseedPolicy, TlpConfig};
///
/// let config = TlpConfig::new()
///     .seed(42)
///     .reseed_policy(ReseedPolicy::Break)
///     .record_trace(true);
/// assert_eq!(config.seed_value(), 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TlpConfig {
    seed: u64,
    reseed: ReseedPolicy,
    record_trace: bool,
    frontier_cap: Option<usize>,
    trials: usize,
    threads: usize,
}

impl Default for TlpConfig {
    fn default() -> Self {
        TlpConfig {
            seed: 0,
            reseed: ReseedPolicy::default(),
            record_trace: false,
            frontier_cap: None,
            trials: 1,
            threads: 0,
        }
    }
}

impl TlpConfig {
    /// Creates the default configuration (seed 0, capacity `ceil(m/p)`,
    /// reseeding enabled, no trace).
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

    /// Enables recording of a per-selection [`crate::Trace`] (needed for the
    /// Table VI experiment). Off by default because it allocates per vertex.
    #[must_use]
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
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

    /// Whether trace recording is enabled.
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// Caps the candidate frontier `N(P_k)` at `cap` vertices: once the
    /// frontier is full, vertices touched by new member edges are not
    /// enrolled as candidates until admissions free up space.
    ///
    /// This is the sliding-window mechanism sketched in the paper's future
    /// work (§V): it bounds per-round memory and selection effort at a
    /// quality cost. Unset (no cap) by default; the cap must be at least 1
    /// (validated when partitioning).
    #[must_use]
    pub fn frontier_cap(mut self, cap: usize) -> Self {
        self.frontier_cap = Some(cap);
        self
    }

    /// The configured frontier cap, if any.
    pub fn frontier_cap_value(&self) -> Option<usize> {
        self.frontier_cap
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
        if self.frontier_cap == Some(0) {
            return Err(PartitionError::InvalidParameter {
                name: "frontier_cap",
                value: 0.0,
                constraint: "must be at least 1",
            });
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
        let c = TlpConfig::new().seed(9).record_trace(true);
        assert_eq!(c.seed_value(), 9);
        assert!(c.records_trace());
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
    fn zero_trials_rejected() {
        assert!(TlpConfig::new().trials(0).validate().is_err());
        assert!(TlpConfig::new().trials(1).validate().is_ok());
    }
}
