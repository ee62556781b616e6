//! Engine introspection: replica-level snapshots for diagnostics,
//! tests and the operator-facing examples.
//!
//! The [`ReputationEngine`](crate::engine::ReputationEngine) trait
//! deliberately exposes only the aggregate view a peer would see; this
//! module opens the score managers' books — per-replica aggregates,
//! evidence masses, and reporter credibilities — which is how the
//! redundancy tests verify that replicas agree and how a deployment
//! would debug a disputed reputation.

use crate::engine::RocqEngine;
use replend_types::{NodeId, PeerId, Reputation};
use serde::{Deserialize, Serialize};

/// One replica's view of a subject.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Replica slot (0-based).
    pub slot: usize,
    /// Host node currently responsible for this replica.
    pub host: NodeId,
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
        // Same sum-then-divide arithmetic as [`Reputation::mean`],
        // without materialising the values into a Vec first.
        if self.replicas.is_empty() {
            return None;
        }
        let sum: f64 = self.replicas.iter().map(|r| r.reputation.value()).sum();
        Some(Reputation::new(sum / self.replicas.len() as f64))
    }

    /// Largest pairwise disagreement between replicas — 0 in a
    /// crash-free run, nonzero after unrecovered losses.
    #[cfg(test)]
    pub(crate) fn max_divergence(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in &self.replicas {
            lo = lo.min(r.reputation.value());
            hi = hi.max(r.reputation.value());
        }
        if self.replicas.is_empty() {
            0.0
        } else {
            hi - lo
        }
    }
}

impl RocqEngine {
    /// Snapshots the score-manager state of `subject`, or `None` when
    /// unknown.
    pub fn snapshot(&self, subject: PeerId) -> Option<SubjectSnapshot> {
        let replicas = self.replica_views(subject)?;
        Some(SubjectSnapshot { subject, replicas })
    }

    /// The credibility one of `subject`'s replicas assigns to
    /// `reporter` (replica 0's view; all replicas agree in crash-free
    /// runs). `None` when the subject is unknown.
    #[cfg(test)]
    pub(crate) fn credibility_of(&self, subject: PeerId, reporter: PeerId) -> Option<f64> {
        self.reporter_credibility(subject, reporter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReputationEngine;
    use crate::params::RocqParams;

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
        assert!(snap.max_divergence() < 1e-12, "crash-free replicas agree");
        assert_eq!(snap.combined(), e.reputation(PeerId(0)));
        for (i, r) in snap.replicas.iter().enumerate() {
            assert_eq!(r.slot, i);
            assert!(r.evidence > 0.0);
            assert!(r.known_reporters > 0);
        }
    }

    #[test]
    fn credibility_visible_through_inspection() {
        let mut e = engine();
        // Liar drags against consensus: credibility must sink below
        // the honest reporters'.
        for round in 0..100u64 {
            e.report(PeerId(1 + round % 18), PeerId(0), 1.0);
            e.report(PeerId(19), PeerId(0), 0.0);
        }
        let honest = e.credibility_of(PeerId(0), PeerId(1)).unwrap();
        let liar = e.credibility_of(PeerId(0), PeerId(19)).unwrap();
        assert!(
            liar < honest,
            "liar credibility {liar} should be below honest {honest}"
        );
        assert!(liar < 0.1, "persistent liar should be marginalized: {liar}");
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
