//! Bootstrap policies and reputation-engine selection.
//!
//! §1 of the paper surveys how existing systems treat new entrants:
//! complaints-based trust admits everyone as trusted, positive-only
//! feedback freezes newcomers out, BitTorrent/Scrivener grant a small
//! unconditional credit. Reputation lending is the paper's
//! alternative. All five are implemented so the ablation bench
//! (`ablation_policies`) can compare them under identical workloads.

use replend_rocq::baselines::{BetaEngine, EwmaEngine, SimpleAverageEngine};
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

/// Which reputation engine backs the community.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EngineKind {
    /// The replicated ROCQ engine (the paper's).
    Rocq(RocqParams),
    /// Plain running average (ablation).
    SimpleAverage,
    /// Exponentially weighted moving average (ablation).
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Beta reputation (ablation).
    Beta,
}

impl EngineKind {
    /// Instantiates the engine for a simulation configuration.
    /// `num_sm` and `seed` only affect the replicated ROCQ engine (the
    /// baselines are centralised single structures).
    pub fn build(self, sim: &SimParams, seed: u64) -> Box<dyn ReputationEngine + Send> {
        match self {
            EngineKind::Rocq(params) => Box::new(RocqEngine::new(params, sim.num_sm, seed)),
            EngineKind::SimpleAverage => Box::new(SimpleAverageEngine::new()),
            EngineKind::Ewma { alpha } => Box::new(EwmaEngine::new(alpha)),
            EngineKind::Beta => Box::new(BetaEngine::new()),
        }
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
        assert_eq!(EngineKind::default().build(&sim, 1).name(), "rocq");
        assert_eq!(
            EngineKind::SimpleAverage.build(&sim, 1).name(),
            "simple-average"
        );
        assert_eq!(
            EngineKind::Ewma { alpha: 0.2 }.build(&sim, 1).name(),
            "ewma"
        );
        assert_eq!(EngineKind::Beta.build(&sim, 1).name(), "beta");
    }
}
