//! Engine introspection: replica-level snapshots for diagnostics,
//! tests and the operator-facing examples.
//!
//! The [`ReputationEngine`](crate::engine::ReputationEngine) trait
//! deliberately exposes only the aggregate view a peer would see; this
//! module opens the score managers' books — per-replica aggregates,
//! evidence masses, and known-reporter counts — which is how the
//! redundancy tests verify that replicas agree and how a deployment
//! would debug a disputed reputation.

use crate::engine::RocqEngine;
use replend_types::{PeerId, Reputation};
use serde::{Deserialize, Serialize};

/// One replica's view of a subject.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Replica slot (0-based).
    pub slot: usize,
    /// The replica's aggregate reputation.
    pub reputation: Reputation,
    /// The replica's accumulated evidence mass.
    pub evidence: f64,
    /// Number of reporters with explicit credibility state about this
    /// subject (the arena engine keeps one credibility book per
    /// subject, shared by its replicas, so the count is identical for
    /// every slot).
    pub known_reporters: usize,
}

/// The full score-manager view of one subject.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubjectSnapshot {
    /// The subject peer.
    pub subject: PeerId,
    /// Replicas in slot order.
    pub replicas: Vec<ReplicaSnapshot>,
}

impl SubjectSnapshot {
    /// The combined (mean) reputation across replicas — identical to
    /// what [`ReputationEngine::reputation`] returns.
    ///
    /// [`ReputationEngine::reputation`]:
    ///     crate::engine::ReputationEngine::reputation
    pub fn combined(&self) -> Option<Reputation> {
        // Sum then divide, in slot order: the engine's aggregate.
        if self.replicas.is_empty() {
            return None;
        }
        let sum: f64 = self.replicas.iter().map(|r| r.reputation.value()).sum();
        Some(Reputation::new(sum / self.replicas.len() as f64))
    }
}

impl RocqEngine {
    /// Snapshots the score-manager state of `subject`, or `None` when
    /// unknown.
    pub fn snapshot(&self, subject: PeerId) -> Option<SubjectSnapshot> {
        let replicas = self.replica_views(subject)?;
        Some(SubjectSnapshot { subject, replicas })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReputationEngine;
    use crate::params::RocqParams;

    /// Largest pairwise disagreement between replicas — 0 in a
    /// crash-free run, nonzero after unrecovered losses.
    fn max_divergence(snap: &SubjectSnapshot) -> f64 {
        let values = snap.replicas.iter().map(|r| r.reputation.value());
        let lo = values.clone().fold(f64::INFINITY, f64::min);
        let hi = values.fold(f64::NEG_INFINITY, f64::max);
        if snap.replicas.is_empty() {
            0.0
        } else {
            hi - lo
        }
    }

    fn engine() -> RocqEngine {
        let mut e = RocqEngine::new(RocqParams::default(), 6, 9);
        for p in 0..20u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        e
    }

    #[test]
    fn snapshot_unknown_subject_is_none() {
        assert!(engine().snapshot(PeerId(999)).is_none());
    }

    #[test]
    fn snapshot_has_num_sm_replicas_in_agreement() {
        let mut e = engine();
        for r in 0..50u64 {
            e.report(PeerId(r % 19 + 1), PeerId(0), 1.0);
        }
        let snap = e.snapshot(PeerId(0)).unwrap();
        assert_eq!(snap.subject, PeerId(0));
        assert_eq!(snap.replicas.len(), 6);
        assert!(max_divergence(&snap) < 1e-12, "crash-free replicas agree");
        assert_eq!(snap.combined(), e.reputation(PeerId(0)));
        for (i, r) in snap.replicas.iter().enumerate() {
            assert_eq!(r.slot, i);
            assert!(r.evidence > 0.0);
            assert!(r.known_reporters > 0);
        }
    }

    #[test]
    fn divergence_appears_after_unrecoverable_crash() {
        let params = RocqParams {
            crash_prob: 1.0,
            ..RocqParams::default()
        };
        // numSM = 1: crashes reset state with no sibling to copy.
        let mut e = RocqEngine::new(params, 1, 10);
        for p in 0..30u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        // Churn to force re-homings.
        for p in 100..160u64 {
            e.register_peer(PeerId(p), Reputation::HALF);
        }
        // Some original subject lost its state (reputation reset).
        let lost = (0..30u64).any(|p| {
            e.snapshot(PeerId(p))
                .is_some_and(|s| s.combined().unwrap().value() < 0.999)
        });
        assert!(lost);
    }
}
