//! Mid-run snapshots of the expansion engine, for kill-and-resume runs.
//!
//! The TLP engine grows one partition per round from a single seeded RNG.
//! Everything a round consumes is either (a) derived deterministically from
//! the residual graph and the assignment so far, or (b) the RNG stream.
//! A checkpoint therefore only needs the assignment, the allocated-edge
//! bitmap (partition id 0 is a valid assignment, so "assigned" must be
//! tracked separately), the RNG's internal state, and the index of the
//! next round — the per-round workspace is rebuilt from scratch and is
//! bit-identical because all of its state is round-stamped.
//!
//! The snapshot is also bound to the run it came from: the seed, the
//! partition count, the stage switch, the reseed policy and a fingerprint
//! of the graph's edge list. Resuming it into any other run is a typed
//! error, because the result would match neither uninterrupted run.
//!
//! Persistence (the on-disk `checkpoint.tlpc` format) lives in `tlp-store`;
//! this module owns the in-memory snapshot and its validation against the
//! run it is resumed into.

use crate::config::{ReseedPolicy, StageSwitch, TlpConfig};
use crate::partition::PartitionId;
use crate::PartitionError;
use tlp_graph::GraphView;

/// FNV-1a 64 over the graph's edge list (each edge's two endpoints as
/// little-endian `u32`s, in edge-id order): the content fingerprint an
/// [`EngineCheckpoint`] records. `O(m)`, so the engine computes it only
/// for runs that checkpoint or resume.
pub(crate) fn graph_fingerprint(graph: GraphView<'_>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for edge in graph.edge_iter() {
        let (a, b) = edge.endpoints();
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }
    hash
}

/// A consistent engine snapshot taken after a completed round.
///
/// Resuming a run from a checkpoint taken at round boundary `next_round`
/// produces the exact partition the uninterrupted run would have produced,
/// bit for bit — the engine's contract, enforced by the resume tests.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCheckpoint {
    /// Seed the run was started with (resume must match).
    pub seed: u64,
    /// Stage switch the run was started with (resume must match).
    pub stage_switch: StageSwitch,
    /// Reseed policy the run was started with (resume must match).
    pub reseed_policy: ReseedPolicy,
    /// Total number of partitions `p` of the run.
    pub num_partitions: usize,
    /// Index of the first round that has NOT run yet (`k+1` after round
    /// `k` completes); `num_partitions` means all rounds are done.
    pub next_round: u32,
    /// Internal RNG state at the round boundary.
    pub rng_state: [u64; 4],
    /// Edge → partition assignment so far (meaningful only where
    /// `allocated` is set).
    pub assignment: Vec<PartitionId>,
    /// `allocated[e]` = edge `e` has been assigned in a completed round.
    pub allocated: Vec<bool>,
    /// Vertex count of the graph the snapshot belongs to.
    pub num_vertices: usize,
    /// Edge count of the graph the snapshot belongs to.
    pub num_edges: usize,
    /// FNV-1a 64 over the edge list (each edge's endpoints as
    /// little-endian `u32`s, in edge-id order) of the graph the snapshot
    /// belongs to.
    pub graph_fingerprint: u64,
}

impl EngineCheckpoint {
    /// Validates the snapshot against the run it is about to resume:
    /// `graph` partitioned into `num_partitions` under `config`.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] if the checkpoint belongs to a
    /// different graph, seed, partition count, stage switch or reseed
    /// policy, or is internally inconsistent.
    pub fn validate_for(
        &self,
        graph: GraphView<'_>,
        num_partitions: usize,
        config: &TlpConfig,
    ) -> Result<(), PartitionError> {
        let mismatch = |what: &str, have: String, want: String| {
            PartitionError::Checkpoint(format!("checkpoint {what} is {have}, run expects {want}"))
        };
        let (num_vertices, num_edges) = (graph.num_vertices(), graph.num_edges());
        if self.num_vertices != num_vertices || self.num_edges != num_edges {
            return Err(mismatch(
                "graph shape",
                format!("{} vertices / {} edges", self.num_vertices, self.num_edges),
                format!("{num_vertices} vertices / {num_edges} edges"),
            ));
        }
        let fingerprint = graph_fingerprint(graph);
        if self.graph_fingerprint != fingerprint {
            return Err(mismatch(
                "graph fingerprint",
                format!("{:#018x}", self.graph_fingerprint),
                format!("{fingerprint:#018x}"),
            ));
        }
        if self.num_partitions != num_partitions {
            return Err(mismatch(
                "partition count",
                self.num_partitions.to_string(),
                num_partitions.to_string(),
            ));
        }
        let seed = config.seed_value();
        if self.seed != seed {
            return Err(mismatch("seed", self.seed.to_string(), seed.to_string()));
        }
        let switch = config.stage_switch_value();
        if self.stage_switch != switch {
            return Err(mismatch(
                "stage switch",
                format!("{:?}", self.stage_switch),
                format!("{switch:?}"),
            ));
        }
        let reseed = config.reseed_policy_value();
        if self.reseed_policy != reseed {
            return Err(mismatch(
                "reseed policy",
                format!("{:?}", self.reseed_policy),
                format!("{reseed:?}"),
            ));
        }
        if self.assignment.len() != num_edges || self.allocated.len() != num_edges {
            return Err(PartitionError::Checkpoint(format!(
                "checkpoint arrays cover {} / {} edges, graph has {num_edges}",
                self.assignment.len(),
                self.allocated.len()
            )));
        }
        if self.next_round as usize > num_partitions {
            return Err(PartitionError::Checkpoint(format!(
                "checkpoint next_round {} exceeds partition count {num_partitions}",
                self.next_round
            )));
        }
        for (e, (&pid, &alloc)) in self.assignment.iter().zip(&self.allocated).enumerate() {
            if alloc && pid as usize >= num_partitions {
                return Err(PartitionError::Checkpoint(format!(
                    "edge {e} assigned to partition {pid}, run has only {num_partitions}"
                )));
            }
            if alloc && pid >= self.next_round {
                return Err(PartitionError::Checkpoint(format!(
                    "edge {e} assigned to partition {pid} but only rounds < {} completed",
                    self.next_round
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build()
    }

    fn config() -> TlpConfig {
        TlpConfig::new().seed(7)
    }

    fn snapshot() -> EngineCheckpoint {
        EngineCheckpoint {
            seed: 7,
            stage_switch: StageSwitch::Modularity,
            reseed_policy: ReseedPolicy::Reseed,
            num_partitions: 4,
            next_round: 2,
            rng_state: [1, 2, 3, 4],
            assignment: vec![0, 1, 0, 0],
            allocated: vec![true, true, false, false],
            num_vertices: 5,
            num_edges: 4,
            graph_fingerprint: graph_fingerprint((&graph()).into()),
        }
    }

    fn validate(s: &EngineCheckpoint, graph: &CsrGraph, p: usize, config: &TlpConfig) -> bool {
        s.validate_for(graph.into(), p, config).is_ok()
    }

    #[test]
    fn valid_snapshot_passes() {
        assert!(validate(&snapshot(), &graph(), 4, &config()));
    }

    #[test]
    fn wrong_graph_seed_or_p_is_rejected() {
        let s = snapshot();
        let g = graph();
        let six_vertices = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (3, 5)])
            .build();
        let three_edges = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (3, 4)])
            .build();
        assert!(!validate(&s, &six_vertices, 4, &config()));
        assert!(!validate(&s, &three_edges, 4, &config()));
        assert!(!validate(&s, &g, 3, &config()));
        assert!(!validate(&s, &g, 4, &config().seed(8)));
    }

    #[test]
    fn same_shape_different_graph_is_rejected() {
        let rewired = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 4), (3, 4)])
            .build();
        assert_eq!(rewired.num_vertices(), 5);
        assert_eq!(rewired.num_edges(), 4);
        let err = snapshot()
            .validate_for((&rewired).into(), 4, &config())
            .unwrap_err();
        assert!(
            matches!(&err, PartitionError::Checkpoint(m) if m.contains("graph fingerprint")),
            "{err:?}"
        );
    }

    #[test]
    fn other_stage_switch_or_reseed_policy_is_rejected() {
        let s = snapshot();
        let g = graph();
        for switch in [
            StageSwitch::EdgeRatio(0.3),
            StageSwitch::StageOneOnly,
            StageSwitch::StageTwoOnly,
        ] {
            let err = s
                .validate_for((&g).into(), 4, &config().stage_switch(switch))
                .unwrap_err();
            assert!(
                matches!(&err, PartitionError::Checkpoint(m) if m.contains("stage switch")),
                "{err:?}"
            );
        }
        let err = s
            .validate_for((&g).into(), 4, &config().reseed_policy(ReseedPolicy::Break))
            .unwrap_err();
        assert!(
            matches!(&err, PartitionError::Checkpoint(m) if m.contains("reseed policy")),
            "{err:?}"
        );
    }

    #[test]
    fn inconsistent_rounds_are_rejected() {
        let g = graph();
        let mut s = snapshot();
        s.assignment[1] = 3; // allocated in a round that has not run
        assert!(matches!(
            s.validate_for((&g).into(), 4, &config()),
            Err(PartitionError::Checkpoint(_))
        ));
        let mut s = snapshot();
        s.next_round = 9;
        assert!(!validate(&s, &g, 4, &config()));
    }
}
