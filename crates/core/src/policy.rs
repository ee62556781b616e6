//! Bootstrap policies and reputation-engine selection.
//!
//! §1 of the paper surveys how existing systems treat new entrants:
//! complaints-based trust admits everyone as trusted, positive-only
//! feedback freezes newcomers out, BitTorrent/Scrivener grant a small
//! unconditional credit. Reputation lending is the paper's
//! alternative. All five are implemented so the ablation bench
//! (`ablation_policies`) can compare them under identical workloads.

use replend_rocq::{ReputationEngine, RocqEngine, RocqParams};
use replend_types::SimParams;
use serde::{Deserialize, Serialize};

/// How new arrivals are admitted.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub enum BootstrapPolicy {
    /// The paper's mechanism: admission requires an introduction and
    /// a reputation loan (parameters in
    /// [`LendingParams`](replend_types::LendingParams)).
    #[default]
    ReputationLending,
    /// "No introductions required": every arrival admitted instantly
    /// with the given initial reputation — the paper's comparison
    /// baseline (§4.1 success-rate experiment).
    OpenAdmission {
        /// Starting reputation of every arrival.
        initial: f64,
    },
    /// An unconditional starter credit, as in BitTorrent's optimistic
    /// unchoke slots or Scrivener's initial credit (§1).
    FixedCredit {
        /// The unconditional credit.
        credit: f64,
    },
    /// Positive-feedback-only model: arrivals start at zero and must
    /// earn everything (§1's "frozen out" scenario).
    PositiveOnly,
    /// Complaints-based trust (Aberer–Despotovic, §1): arrivals start
    /// fully trusted and only negative feedback hurts them — the
    /// whitewashing-prone model.
    ComplaintsOnly,
}

impl BootstrapPolicy {
    /// The immediate admission reputation, or `None` when admission
    /// goes through the lending protocol.
    pub fn immediate_admission(&self) -> Option<f64> {
        match *self {
            BootstrapPolicy::ReputationLending => None,
            BootstrapPolicy::OpenAdmission { initial } => Some(initial),
            BootstrapPolicy::FixedCredit { credit } => Some(credit),
            BootstrapPolicy::PositiveOnly => Some(0.0),
            BootstrapPolicy::ComplaintsOnly => Some(1.0),
        }
    }

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            BootstrapPolicy::ReputationLending => "lending",
            BootstrapPolicy::OpenAdmission { .. } => "open",
            BootstrapPolicy::FixedCredit { .. } => "fixed-credit",
            BootstrapPolicy::PositiveOnly => "positive-only",
            BootstrapPolicy::ComplaintsOnly => "complaints-only",
        }
    }
}

/// The reputation engine that backs the community: the replicated
/// ROCQ engine with the given parameters.
///
/// `Rocq` is the only engine. The benchmark package spells the engine
/// as an `EngineKind`, so collapsing this type into [`RocqParams`] is
/// left to a change that also updates the benchmark (ROADMAP item 6).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EngineKind {
    /// The replicated ROCQ engine (the paper's).
    Rocq(RocqParams),
}

impl EngineKind {
    /// The engine for a simulation configuration: `sim.num_sm` score
    /// managers per subject, crash rolls keyed by `seed`.
    pub fn new_engine(self, sim: &SimParams, seed: u64) -> RocqEngine {
        let EngineKind::Rocq(params) = self;
        RocqEngine::new(params, sim.num_sm, seed)
    }

    /// [`EngineKind::new_engine`], boxed behind the engine trait.
    pub fn build(self, sim: &SimParams, seed: u64) -> Box<dyn ReputationEngine + Send> {
        Box::new(self.new_engine(sim, seed))
    }
}

impl Default for EngineKind {
    fn default() -> Self {
        EngineKind::Rocq(RocqParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replend_types::{PeerId, Reputation};

    #[test]
    fn lending_defers_admission() {
        assert_eq!(
            BootstrapPolicy::ReputationLending.immediate_admission(),
            None
        );
    }

    #[test]
    fn immediate_policies_report_initial_values() {
        assert_eq!(
            BootstrapPolicy::OpenAdmission { initial: 0.5 }.immediate_admission(),
            Some(0.5)
        );
        assert_eq!(
            BootstrapPolicy::FixedCredit { credit: 0.1 }.immediate_admission(),
            Some(0.1)
        );
        assert_eq!(
            BootstrapPolicy::PositiveOnly.immediate_admission(),
            Some(0.0)
        );
        assert_eq!(
            BootstrapPolicy::ComplaintsOnly.immediate_admission(),
            Some(1.0)
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BootstrapPolicy::ReputationLending.name(), "lending");
        assert_eq!(BootstrapPolicy::PositiveOnly.name(), "positive-only");
        assert_eq!(BootstrapPolicy::default().name(), "lending");
    }

    #[test]
    fn engines_build() {
        let sim = SimParams::default();
        let mut engine = EngineKind::default().build(&sim, 1);
        engine.register_peer(PeerId(1), Reputation::new(0.25));
        assert_eq!(engine.reputation(PeerId(1)), Some(Reputation::new(0.25)));
    }
}
