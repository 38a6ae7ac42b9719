//! Thread-count invariance of the parallel trial runner.
//!
//! `--threads` is a throughput knob only: the winning trial (ties broken
//! by lowest trial index), its partition, and the full per-trial RF vector
//! are a function of the seed matrix alone. This pins that promise over a
//! seed × trials × stage-switch matrix at 1 vs. N worker threads, and pins
//! trial 0 to the plain single run under every switch, since the race
//! serves every TLP-family switch through one path.

use tlp::core::{
    EdgePartitioner, ParallelTrialRunner, PartitionMetrics, StageSwitch, TlpConfig,
    TwoStageLocalPartitioner,
};
use tlp::graph::generators::{chung_lu, rmat, RmatProbabilities};
use tlp::graph::CsrGraph;

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chung_lu", chung_lu(250, 1100, 2.2, 11)),
        ("rmat", rmat(8, 700, RmatProbabilities::default(), 12)),
    ]
}

const SWITCHES: [StageSwitch; 2] = [StageSwitch::Modularity, StageSwitch::EdgeRatio(0.3)];

#[test]
fn trial_results_are_invariant_under_thread_count() {
    for (name, graph) in graphs() {
        for switch in SWITCHES {
            for seed in [0u64, 7, 42] {
                let config = TlpConfig::new().seed(seed).stage_switch(switch);
                let plain = TwoStageLocalPartitioner::new(config)
                    .partition(&graph, 6)
                    .expect("plain run failed");
                let plain_rf = PartitionMetrics::compute(&graph, &plain).replication_factor;
                for trials in [2usize, 5] {
                    let base = config.trials(trials);
                    let single = ParallelTrialRunner::new(base.threads(1))
                        .run(&graph, 6)
                        .expect("single-threaded run failed");
                    let label = format!("{name} {switch:?} seed={seed} trials={trials}");
                    assert_eq!(single.trial_rfs[0], plain_rf, "{label}: trial 0");
                    for threads in [2usize, 4, 0] {
                        let multi = ParallelTrialRunner::new(base.threads(threads))
                            .run(&graph, 6)
                            .expect("multi-threaded run failed");
                        let label = format!("{label} threads={threads}");
                        assert_eq!(single.best_trial, multi.best_trial, "{label}: winner");
                        assert_eq!(single.partition, multi.partition, "{label}: partition");
                        assert_eq!(single.trial_rfs, multi.trial_rfs, "{label}: RF vector");
                    }
                }
                let one = ParallelTrialRunner::new(config)
                    .run(&graph, 6)
                    .expect("one-trial run failed");
                assert_eq!(one.partition, plain, "{name} {switch:?} seed={seed}");
            }
        }
    }
}

/// The tie-break promise specifically: when several trials produce the same
/// best RF, the lowest trial index must win regardless of which worker
/// finished first. A single-partition run forces RF = 1.0 for every trial,
/// making every trial a tie.
#[test]
fn tied_trials_resolve_to_lowest_index_at_any_thread_count() {
    let graph = chung_lu(150, 600, 2.2, 3);
    for threads in [1usize, 2, 4, 0] {
        let config = TlpConfig::new().seed(5).trials(6).threads(threads);
        let report = ParallelTrialRunner::new(config)
            .run(&graph, 1)
            .expect("run failed");
        assert!(report.trial_rfs.iter().all(|&rf| rf == 1.0));
        assert_eq!(
            report.best_trial, 0,
            "threads={threads}: tie must go to trial 0"
        );
    }
}
