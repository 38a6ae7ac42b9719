//! The sealed [`SelectionPolicy`] trait — "which frontier vertex joins
//! next" — and its two implementations, both generic over a
//! [`StageSwitch`]: the production [`StagedPolicy`] (lazy heaps) and the
//! reference [`ScanPolicy`] (full frontier scans).

use super::frontier;
use super::workspace::{StagedIndex, Workspace};
use crate::modularity::Modularity;
use crate::trace::Stage;
use tlp_graph::{ResidualGraph, VertexId};

/// The partition's growth counters at selection time.
#[derive(Clone, Copy, Debug)]
pub struct GrowthState {
    /// Edges allocated to the partition so far (`|E(P_k)|`).
    pub internal: usize,
    /// Residual edges crossing the partition boundary (`|E_out(P_k)|`).
    pub external: usize,
    /// The capacity bound `C` for this run.
    pub capacity: usize,
}

/// A selection decision: the vertex to admit and the stage label recorded
/// in traces.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// The frontier vertex to admit next.
    pub vertex: VertexId,
    /// Which stage's criterion picked it (trace bookkeeping only).
    pub stage: Stage,
}

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
    /// Observes that `v` is a (new or refreshed) frontier candidate; the
    /// workspace already holds its up-to-date `e_in`/`mu1` state. Called
    /// once per state change, so lazy-heap policies can push an entry per
    /// call and invalidate stale ones at pop time.
    fn on_candidate(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        round: u32,
    );

    /// Picks the next vertex from a non-empty frontier.
    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        state: GrowthState,
    ) -> Selection;

    /// Hook run after each round; policies drop per-round entries here.
    fn end_round(&mut self) {}
}

mod sealed {
    /// Closes [`SelectionPolicy`](super::SelectionPolicy) to this crate.
    pub trait Sealed {}

    impl<S> Sealed for super::StagedPolicy<S> {}
    impl<S> Sealed for super::ScanPolicy<S> {}
}

/// Decides which stage's criterion selects the next vertex (the staged
/// policies' switching rule).
pub trait StageSwitch {
    /// Chooses the stage given the partition's current state.
    fn choose(&self, modularity: Modularity, internal: usize, capacity: usize) -> Stage;
}

/// The paper's TLP switch (Table II): Stage I while `M(P_k) <= 1`.
#[derive(Clone, Copy, Debug)]
pub struct ModularitySwitch;

impl StageSwitch for ModularitySwitch {
    fn choose(&self, modularity: Modularity, _internal: usize, _capacity: usize) -> Stage {
        if modularity.is_stage_one() {
            Stage::One
        } else {
            Stage::Two
        }
    }
}

/// The TLP_R switch (Table V): Stage I while `|E(P_k)| <= R * C`.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRatioSwitch {
    /// The stage-switch ratio `R` in `[0, 1]`.
    pub ratio: f64,
}

impl StageSwitch for EdgeRatioSwitch {
    fn choose(&self, _modularity: Modularity, internal: usize, capacity: usize) -> Stage {
        if self.ratio > 0.0 && (internal as f64) <= self.ratio * capacity as f64 {
            Stage::One
        } else {
            Stage::Two
        }
    }
}

/// The [`GrowthState`]'s stage under `switch`.
fn stage_of<S: StageSwitch>(switch: &S, state: GrowthState) -> Stage {
    switch.choose(
        Modularity::new(state.internal, state.external),
        state.internal,
        state.capacity,
    )
}

/// The TLP-family selection policy: a [`StageSwitch`] decides the stage,
/// then lazy heaps locate the stage's argmax without scanning the frontier
/// (the same vertex [`ScanPolicy`] picks, ties included).
pub struct StagedPolicy<S> {
    switch: S,
    index: StagedIndex,
}

impl<S: StageSwitch> StagedPolicy<S> {
    /// Creates the policy with the given switching rule.
    pub fn new(switch: S) -> Self {
        StagedPolicy {
            switch,
            index: StagedIndex::default(),
        }
    }
}

impl<S: StageSwitch> SelectionPolicy for StagedPolicy<S> {
    fn on_candidate(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        v: VertexId,
        round: u32,
    ) {
        self.index.push_candidate_state(ws, residual, v, round);
    }

    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        state: GrowthState,
    ) -> Selection {
        let stage = stage_of(&self.switch, state);
        let vertex = match stage {
            Stage::One => frontier::select_stage_one_heap(&mut self.index, ws, residual),
            Stage::Two => frontier::select_stage_two_heap(
                &mut self.index,
                ws,
                residual,
                state.internal,
                state.external,
            ),
        };
        Selection { vertex, stage }
    }

    fn end_round(&mut self) {
        self.index.clear();
    }
}

/// The staged policy as Algorithm 1 is written: every selection scans the
/// whole frontier for the stage's argmax (`O(|N(P_k)|)` per step).
///
/// This is the reference [`StagedPolicy`] is tested against; no
/// configuration selects it. Run it through [`run`](super::run).
pub struct ScanPolicy<S> {
    switch: S,
}

impl<S: StageSwitch> ScanPolicy<S> {
    /// Creates the reference policy with the given switching rule.
    pub fn new(switch: S) -> Self {
        ScanPolicy { switch }
    }
}

impl<S: StageSwitch> SelectionPolicy for ScanPolicy<S> {
    fn on_candidate(
        &mut self,
        _ws: &Workspace,
        _residual: &ResidualGraph<'_>,
        _v: VertexId,
        _round: u32,
    ) {
    }

    fn select(
        &mut self,
        ws: &Workspace,
        residual: &ResidualGraph<'_>,
        state: GrowthState,
    ) -> Selection {
        let stage = stage_of(&self.switch, state);
        let vertex = match stage {
            Stage::One => frontier::select_stage_one_scan(ws, residual),
            Stage::Two => {
                frontier::select_stage_two_scan(ws, residual, state.internal, state.external)
            }
        };
        Selection { vertex, stage }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_ratio_switch_boundaries() {
        let policy_all_one = EdgeRatioSwitch { ratio: 1.0 };
        let policy_all_two = EdgeRatioSwitch { ratio: 0.0 };
        let m = Modularity::new(5, 1);
        assert_eq!(policy_all_one.choose(m, 5, 10), Stage::One);
        assert_eq!(policy_all_two.choose(m, 0, 10), Stage::Two);
        let half = EdgeRatioSwitch { ratio: 0.5 };
        assert_eq!(half.choose(m, 4, 10), Stage::One);
        assert_eq!(half.choose(m, 6, 10), Stage::Two);
    }

    #[test]
    fn modularity_switch_switches_at_one() {
        assert_eq!(
            ModularitySwitch.choose(Modularity::new(3, 4), 3, 100),
            Stage::One
        );
        assert_eq!(
            ModularitySwitch.choose(Modularity::new(5, 4), 5, 100),
            Stage::Two
        );
    }
}
