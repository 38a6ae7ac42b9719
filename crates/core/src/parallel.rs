//! Thread-parallel execution utilities: an order-preserving `parallel_map`
//! built on scoped threads, and the [`ParallelTrialRunner`] that races `t`
//! independently seeded TLP-family runs and keeps the best-RF partition.
//!
//! Everything here is deterministic given the same inputs: per-trial seeds
//! are derived from the base seed by a fixed mixing function (independent
//! of thread count and scheduling), each trial is itself deterministic, and
//! the winner is chosen by `(replication factor, trial index)` — so a run
//! with 1 thread and a run with 16 produce bit-identical partitions.

use crate::engine::{run_engine, triangle_table, RunExtras};
use crate::metrics::PartitionMetrics;
use crate::partition::EdgePartition;
use crate::pipeline::trial_span;
use crate::{PartitionError, TlpConfig};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tlp_graph::GraphView;

/// The number of worker threads a `0 = auto` setting resolves to.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` scoped worker threads and
/// returns the results in item order.
///
/// Items are handed out dynamically (an atomic cursor), so uneven item
/// costs still fill all workers. With `threads <= 1` or a single item the
/// map runs inline on the calling thread. Panics in `f` propagate.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().expect("no poisoned result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned result slot")
                .expect("every slot filled")
        })
        .collect()
}

/// [`parallel_map`] that carries the calling thread's observer across the
/// worker threads: when one is attached, each item records into a
/// worker-local buffer and the parent replays the buffers in item order
/// (tagging events the item did not tag itself with the item index), so
/// the merged event stream is identical no matter how many threads ran
/// the items. Without an observer this is exactly [`parallel_map`].
pub fn observed_parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if !tlp_obs::is_enabled() {
        return parallel_map(threads, items, f);
    }
    let results = parallel_map(threads, items, |i, item| {
        tlp_obs::with_recording(|| f(i, item))
    });
    results
        .into_iter()
        .enumerate()
        .map(|(index, (result, events))| {
            tlp_obs::replay(events, Some(index as u32));
            result
        })
        .collect()
}

/// SplitMix64 finalizer — decorrelates sequential trial indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed trial `index` runs with. Trial 0 is the base seed itself, so a
/// single-trial runner is bit-identical to a plain run with `base`.
pub fn trial_seed(base: u64, index: usize) -> u64 {
    if index == 0 {
        base
    } else {
        splitmix64(base ^ (index as u64))
    }
}

/// Why a trial produced no partition: it panicked. Failed trials are
/// excluded from winner selection; their slots in
/// [`TrialReport::trial_rfs`] hold `NaN`.
#[derive(Clone, Debug)]
pub struct TrialFailure {
    /// Index of the failed trial in `[0, trials)`.
    pub index: usize,
    /// Panic payload.
    pub message: String,
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {}: {}", self.index, self.message)
    }
}

/// The outcome of a multi-trial run: the winning partition plus the
/// per-trial replication factors (for spread reporting).
#[derive(Clone, Debug)]
pub struct TrialReport {
    /// The best partition found (lowest replication factor; ties go to the
    /// lowest trial index).
    pub partition: EdgePartition,
    /// Index of the winning trial in `[0, trials)`.
    pub best_trial: usize,
    /// Replication factor of every trial, indexed by trial; `NaN` for
    /// trials that failed (see [`TrialReport::failures`]).
    pub trial_rfs: Vec<f64>,
    /// Trials that panicked, in trial order. Empty on a fully healthy run.
    pub failures: Vec<TrialFailure>,
}

impl TrialReport {
    /// The winning trial's replication factor.
    pub fn best_rf(&self) -> f64 {
        self.trial_rfs[self.best_trial]
    }

    /// `(min, max)` replication factor over all trials. Failed trials
    /// (`NaN` slots) are skipped — `f64::min`/`max` ignore `NaN` operands.
    pub fn rf_spread(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &rf in &self.trial_rfs {
            min = min.min(rf);
            max = max.max(rf);
        }
        (min, max)
    }
}

/// How one isolated trial ended.
enum TrialOutcome {
    /// Completed: partition plus its replication factor.
    Done(EdgePartition, f64),
    /// Returned a typed error (deterministic; propagated to the caller).
    Error(PartitionError),
    /// Panicked; excluded from winner selection.
    Poisoned(String),
}

/// Renders a panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("trial panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("trial panicked: {s}")
    } else {
        "trial panicked (non-string payload)".to_string()
    }
}

/// Runs `config.trials()` independently seeded partitionings under the
/// config's [`StageSwitch`](crate::StageSwitch) across worker threads and
/// keeps the partition with the lowest replication factor.
///
/// Seed growth is cheap but seed-sensitive (the paper reports averages
/// over runs for exactly this reason); racing a handful of seeds and
/// keeping the best is an embarrassingly parallel way to buy quality with
/// cores instead of wall-clock. Trial 0 uses the configured seed verbatim,
/// so `trials = 1` reproduces the plain single run bit for bit.
///
/// # Fault isolation
///
/// Each trial runs under `catch_unwind`: a panicking trial is recorded in
/// [`TrialReport::failures`] and excluded from winner selection instead of
/// aborting the other `t - 1` trials. Only if *every* trial fails does
/// `run` return [`PartitionError::AllTrialsFailed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelTrialRunner {
    config: TlpConfig,
    probe: Option<fn(usize)>,
}

impl ParallelTrialRunner {
    /// Creates a runner; `config.trials()` / `config.threads()` control the
    /// trial count and worker cap.
    pub fn new(config: TlpConfig) -> Self {
        ParallelTrialRunner {
            config,
            probe: None,
        }
    }

    /// The configuration this runner uses.
    pub fn config(&self) -> &TlpConfig {
        &self.config
    }

    /// Test hook: called with the trial index at the start of each trial,
    /// inside its isolation boundary (a panicking probe poisons exactly
    /// that trial). A plain `fn` pointer so the runner stays `Copy`.
    pub fn trial_probe(mut self, probe: fn(usize)) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Runs all trials and returns the best partition plus per-trial RFs.
    ///
    /// # Errors
    ///
    /// Propagates the first trial's typed [`PartitionError`] (in trial
    /// order — these are deterministic config errors every trial shares),
    /// the config/partition-count validation errors of a plain run, or
    /// [`PartitionError::AllTrialsFailed`] when every trial panicked.
    pub fn run<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        num_partitions: usize,
    ) -> Result<TrialReport, PartitionError> {
        let graph = graph.into();
        self.config.validate()?;
        let trials = self.config.trials_value();
        let threads = match self.config.threads_value() {
            0 => available_threads(),
            t => t,
        };
        let seeds: Vec<u64> = (0..trials)
            .map(|i| trial_seed(self.config.seed_value(), i))
            .collect();
        // The triangle table depends on the graph alone: build it once and
        // lend it to every trial.
        let triangles = triangle_table(graph);

        // Under an observer each trial records locally and is replayed in
        // trial order, so the merged stream is independent of the thread
        // count.
        let outcomes = observed_parallel_map(threads, &seeds, |i, &seed| {
            let _trial = trial_span(i, Some(seed));
            run_trial(
                graph,
                &triangles,
                num_partitions,
                self.config.seed(seed),
                self.probe,
                i,
            )
        });

        let mut partitions: Vec<Option<EdgePartition>> = Vec::with_capacity(trials);
        let mut trial_rfs = Vec::with_capacity(trials);
        let mut failures = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                TrialOutcome::Done(partition, rf) => {
                    partitions.push(Some(partition));
                    trial_rfs.push(rf);
                }
                TrialOutcome::Error(e) => return Err(e),
                TrialOutcome::Poisoned(message) => {
                    tlp_obs::counter("trial.failed", 1);
                    partitions.push(None);
                    trial_rfs.push(f64::NAN);
                    failures.push(TrialFailure { index, message });
                }
            }
        }
        let best_trial = trial_rfs
            .iter()
            .enumerate()
            .filter(|(_, rf)| !rf.is_nan())
            .min_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)))
            .map(|(i, _)| i);
        let Some(best_trial) = best_trial else {
            let summary = failures
                .iter()
                .map(TrialFailure::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            return Err(PartitionError::AllTrialsFailed(summary));
        };
        Ok(TrialReport {
            partition: partitions[best_trial]
                .take()
                .expect("winner has a partition"),
            best_trial,
            trial_rfs,
            failures,
        })
    }
}

/// One panic-isolated trial on the calling worker thread.
fn run_trial(
    graph: GraphView<'_>,
    triangles: &[u32],
    num_partitions: usize,
    config: TlpConfig,
    probe: Option<fn(usize)>,
    index: usize,
) -> TrialOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(probe) = probe {
            probe(index);
        }
        let extras = RunExtras {
            triangles: Some(triangles),
            ..RunExtras::default()
        };
        run_engine(graph, num_partitions, &config, extras).map(|partition| {
            let rf = PartitionMetrics::compute(graph, &partition).replication_factor;
            (partition, rf)
        })
    }));
    match result {
        Ok(Ok((partition, rf))) => TrialOutcome::Done(partition, rf),
        Ok(Err(e)) => TrialOutcome::Error(e),
        Err(payload) => TrialOutcome::Poisoned(panic_message(payload)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgePartitioner, TwoStageLocalPartitioner};
    use tlp_graph::generators::chung_lu;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn trial_zero_keeps_the_base_seed() {
        assert_eq!(trial_seed(42, 0), 42);
        assert_ne!(trial_seed(42, 1), 42);
        assert_ne!(trial_seed(42, 1), trial_seed(42, 2));
        assert_ne!(trial_seed(42, 1), trial_seed(43, 1));
    }

    #[test]
    fn single_trial_matches_plain_run() {
        let g = chung_lu(200, 800, 2.2, 3);
        let config = TlpConfig::new().seed(7);
        let plain = TwoStageLocalPartitioner::new(config)
            .partition(&g, 5)
            .unwrap();
        let report = ParallelTrialRunner::new(config.trials(1))
            .run(&g, 5)
            .unwrap();
        assert_eq!(report.partition, plain);
        assert_eq!(report.best_trial, 0);
        assert_eq!(report.trial_rfs.len(), 1);
    }

    #[test]
    fn best_of_n_is_no_worse_than_trial_zero() {
        let g = chung_lu(300, 1200, 2.2, 5);
        let config = TlpConfig::new().seed(11);
        let single = ParallelTrialRunner::new(config.trials(1))
            .run(&g, 8)
            .unwrap();
        let multi = ParallelTrialRunner::new(config.trials(6))
            .run(&g, 8)
            .unwrap();
        assert!(
            multi.best_rf() <= single.best_rf() + 1e-12,
            "best-of-6 RF {} worse than single-trial RF {}",
            multi.best_rf(),
            single.best_rf()
        );
        // Trial 0 of the multi run IS the single run.
        assert_eq!(multi.trial_rfs[0], single.trial_rfs[0]);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let g = chung_lu(250, 1000, 2.1, 9);
        let base = TlpConfig::new().seed(3).trials(5);
        let one = ParallelTrialRunner::new(base.threads(1))
            .run(&g, 6)
            .unwrap();
        let many = ParallelTrialRunner::new(base.threads(4))
            .run(&g, 6)
            .unwrap();
        assert_eq!(one.partition, many.partition);
        assert_eq!(one.best_trial, many.best_trial);
        assert_eq!(one.trial_rfs, many.trial_rfs);
    }

    /// Two runs with identical configs must be bit-identical even when the
    /// trials race across worker threads — scheduling must never leak into
    /// the result.
    #[test]
    fn same_seed_runs_are_bit_identical_with_parallel_trials() {
        let g = chung_lu(250, 1000, 2.1, 4);
        let config = TlpConfig::new().seed(13).trials(4).threads(3);
        let first = ParallelTrialRunner::new(config).run(&g, 6).unwrap();
        let second = ParallelTrialRunner::new(config).run(&g, 6).unwrap();
        assert_eq!(first.partition, second.partition);
        assert_eq!(first.best_trial, second.best_trial);
        assert_eq!(first.trial_rfs, second.trial_rfs);
        // The same holds through the public partitioner facade.
        let a = TwoStageLocalPartitioner::new(config)
            .partition(&g, 6)
            .unwrap();
        let b = TwoStageLocalPartitioner::new(config)
            .partition(&g, 6)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, first.partition);
    }

    fn panic_on_trial_two(index: usize) {
        if index == 2 {
            panic!("injected trial poison");
        }
    }

    #[test]
    fn poisoned_trial_is_excluded_not_fatal() {
        let g = chung_lu(200, 800, 2.2, 7);
        let config = TlpConfig::new().seed(5).trials(4);
        let report = ParallelTrialRunner::new(config)
            .trial_probe(panic_on_trial_two)
            .run(&g, 6)
            .unwrap();
        assert_eq!(report.trial_rfs.len(), 4);
        assert!(report.trial_rfs[2].is_nan(), "poisoned slot must be NaN");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 2);
        assert!(report.failures[0].message.contains("injected trial poison"));
        assert_ne!(report.best_trial, 2);
        report.partition.validate_for(&g).unwrap();
        // The surviving trials are the ones a healthy run would produce.
        let healthy = ParallelTrialRunner::new(config).run(&g, 6).unwrap();
        for i in [0usize, 1, 3] {
            assert_eq!(report.trial_rfs[i], healthy.trial_rfs[i]);
        }
    }

    #[test]
    fn poisoned_trial_is_counted_once_under_an_observer() {
        let g = chung_lu(200, 800, 2.2, 7);
        let runner = ParallelTrialRunner::new(TlpConfig::new().seed(5).trials(4).threads(2))
            .trial_probe(panic_on_trial_two);
        let (report, events) = tlp_obs::with_recording(|| runner.run(&g, 6).unwrap());
        assert_eq!(report.failures.len(), 1);
        let failed = events
            .iter()
            .filter(|e| matches!(&e.kind, tlp_obs::EventKind::Counter { name, .. } if name == "trial.failed"))
            .count();
        assert_eq!(failed, 1);
    }

    fn panic_always(_index: usize) {
        panic!("every trial dies");
    }

    #[test]
    fn all_trials_failing_is_a_typed_error() {
        let g = chung_lu(100, 400, 2.2, 1);
        let err = ParallelTrialRunner::new(TlpConfig::new().trials(3))
            .trial_probe(panic_always)
            .run(&g, 4)
            .unwrap_err();
        assert!(matches!(err, PartitionError::AllTrialsFailed(_)));
        assert!(format!("{err}").contains("every trial dies"));
    }

    #[test]
    fn zero_trials_is_rejected() {
        let g = chung_lu(50, 150, 2.2, 1);
        let err = ParallelTrialRunner::new(TlpConfig::new().trials(0))
            .run(&g, 2)
            .unwrap_err();
        assert!(matches!(
            err,
            PartitionError::InvalidParameter { name: "trials", .. }
        ));
    }

    #[test]
    fn observed_parallel_map_stream_is_thread_count_invariant() {
        let items: Vec<u64> = (0..6).collect();
        let run = |threads: usize| {
            tlp_obs::with_recording(|| {
                observed_parallel_map(threads, &items, |i, &x| {
                    let _span = tlp_obs::span("item");
                    tlp_obs::counter("item.value", x + 1);
                    i as u64 + x
                })
            })
        };
        let (results_1, events_1) = run(1);
        let (results_4, events_4) = run(4);
        assert_eq!(results_1, results_4);
        assert_eq!(
            tlp_obs::canonical_lines(&events_1),
            tlp_obs::canonical_lines(&events_4)
        );
        // Each item's events carry its index, in item order.
        let trials: Vec<Option<u32>> = events_1
            .iter()
            .filter(|e| matches!(e.kind, tlp_obs::EventKind::Counter { .. }))
            .map(|e| e.trial)
            .collect();
        assert_eq!(trials, (0..6).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn observed_parallel_map_without_observer_is_plain() {
        let items = [1u64, 2, 3];
        let doubled = observed_parallel_map(2, &items, |_, &x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6]);
        assert!(!tlp_obs::is_enabled());
    }
}
