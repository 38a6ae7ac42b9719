//! The sealed [`SelectionPolicy`] trait — "which frontier vertex joins
//! next" — and its two implementations: the production [`StagedPolicy`]
//! (an index of the live stage) and the reference [`ScanPolicy`] (full
//! frontier scans).
//! The engine decides the stage from the config's
//! [`StageSwitch`](crate::StageSwitch); a policy only finds that stage's
//! argmax.

use super::frontier;
use super::workspace::{StagedIndex, Workspace};
use crate::trace::Stage;
use tlp_graph::{ResidualGraph, VertexId};

/// Scores frontier candidates and picks the next vertex to admit.
///
/// The engine ([`run`](super::run)) owns the mechanics — membership,
/// frontier bookkeeping, edge allocation, reseeding — and calls back into
/// the policy at two points: when a candidate's state changes
/// ([`on_candidate`](SelectionPolicy::on_candidate)) and when a vertex must
/// be chosen ([`select`](SelectionPolicy::select)).
///
/// The trait is sealed: [`StagedPolicy`] and [`ScanPolicy`] are its only
/// implementations, so the engine serves the TLP family alone.
///
/// ```compile_fail
/// // Outside `tlp-core`, no type can implement the trait.
/// struct Mine;
/// impl tlp_core::engine::SelectionPolicy for Mine {}
/// ```
pub trait SelectionPolicy: sealed::Sealed {
    /// Observes that frontier candidate `v` is new or its state rose:
    /// its `e_in` when `e_in_rose`, otherwise only its `mu1`. The
    /// workspace already holds the final state of the admission that
    /// changed it; each admission notifies a candidate at most once.
    fn on_candidate(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        e_in_rose: bool,
    );

    /// Picks `stage`'s best vertex from a non-empty frontier of a
    /// partition holding `internal` edges with `external` boundary edges.
    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        stage: Stage,
        internal: usize,
        external: usize,
    ) -> VertexId;

    /// Hook run after each round, inside its `round` span; policies drop
    /// per-round entries and flush per-round counters here.
    fn end_round(&mut self) {}
}

mod sealed {
    /// Closes [`SelectionPolicy`](super::SelectionPolicy) to this crate.
    pub trait Sealed {}

    impl Sealed for super::StagedPolicy {}
    impl Sealed for super::ScanPolicy {}
}

/// The TLP-family selection policy: an index of the live stage locates its
/// argmax without scanning the frontier (the same vertex [`ScanPolicy`]
/// picks, ties included).
///
/// Only the stage that made the latest selection keeps a structure: an
/// indexed max-heap for Stage I, updated in place as keys rise, or lazy
/// per-`e_in` buckets for Stage II, whose stale entries are dropped when
/// they reach a bucket's top. A selection in the other stage (and a
/// round's first selection) rebuilds that stage's structure from the
/// frontier.
#[derive(Default)]
pub struct StagedPolicy {
    index: StagedIndex,
}

impl SelectionPolicy for StagedPolicy {
    fn on_candidate(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        e_in_rose: bool,
    ) {
        self.index.on_candidate(ws, residual, v, e_in_rose);
    }

    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        stage: Stage,
        internal: usize,
        external: usize,
    ) -> VertexId {
        self.index.make_live(ws, residual, stage);
        match stage {
            Stage::One => frontier::select_stage_one_heap(&mut self.index, ws, residual),
            Stage::Two => {
                frontier::select_stage_two_heap(&mut self.index, ws, residual, internal, external)
            }
        }
    }

    fn end_round(&mut self) {
        self.index.end_round();
    }
}

/// The staged policy as Algorithm 1 is written: every selection scans the
/// whole frontier for the stage's argmax (`O(|N(P_k)|)` per step).
///
/// This is the reference [`StagedPolicy`] is tested against; no
/// configuration selects it. Run it through [`run`](super::run).
pub struct ScanPolicy;

impl SelectionPolicy for ScanPolicy {
    fn on_candidate(
        &mut self,
        _ws: &Workspace,
        _residual: &ResidualGraph<'_>,
        _v: VertexId,
        _e_in_rose: bool,
    ) {
    }

    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        stage: Stage,
        internal: usize,
        external: usize,
    ) -> VertexId {
        match stage {
            Stage::One => frontier::select_stage_one_scan(ws, residual),
            Stage::Two => frontier::select_stage_two_scan(ws, residual, internal, external),
        }
    }
}
