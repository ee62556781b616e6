//! Runtime peer records.

use replend_types::{PeerId, PeerProfile, SimTime};
use serde::{Deserialize, Serialize};

/// Why an arrival was denied entry.
///
/// The first two reasons are the two refusal series plotted in
/// Figures 4 and 6 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RefusalReason {
    /// The chosen introducer was willing but held less than
    /// `minIntro` reputation ("Entry Refused due to Introducer
    /// Reputation").
    InsufficientIntroducerReputation,
    /// A selective introducer declined the (uncooperative) applicant
    /// ("Entry Refused to Uncooperative Peer").
    SelectiveRefusal,
    /// No member could be chosen as a potential introducer (empty
    /// community — only possible in degenerate configurations).
    NoIntroducerAvailable,
    /// The peer was caught soliciting two simultaneous introductions
    /// (§2's attack) and flagged malicious.
    DuplicateIntroduction,
}

/// Admission status of a peer known to the community.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PeerStatus {
    /// Waiting out the introduction period `T`.
    Waiting,
    /// Admitted member of the community.
    Member,
    /// Turned away; terminal.
    Refused(RefusalReason),
    /// Flagged malicious by score managers (duplicate-introduction
    /// attack); reputation zeroed, terminal.
    Flagged,
    /// Left the community (departure churn extension); terminal.
    Departed,
}

impl PeerStatus {
    /// True for admitted members.
    #[inline]
    pub const fn is_member(self) -> bool {
        matches!(self, PeerStatus::Member)
    }

    /// True while awaiting the introduction decision.
    #[inline]
    pub const fn is_waiting(self) -> bool {
        matches!(self, PeerStatus::Waiting)
    }
}

/// Everything the community tracks about one peer.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PeerRecord {
    /// Identity.
    pub id: PeerId,
    /// Static behaviour profile.
    pub profile: PeerProfile,
    /// Admission status.
    pub status: PeerStatus,
    /// Arrival time (request for introduction).
    pub arrived_at: SimTime,
    /// Admission time, once a member.
    pub admitted_at: Option<SimTime>,
    /// The member who introduced this peer, when admitted by lending.
    pub introducer: Option<PeerId>,
    /// Transactions remaining until the performance audit; `None`
    /// when not subject to an audit (initial peers, already audited,
    /// or non-lending policies).
    pub audit_remaining: Option<u32>,
    /// Total transactions this peer took part in.
    pub transactions: u64,
}

impl PeerRecord {
    /// A founding member (present at time zero, no audit).
    pub(crate) fn founding(id: PeerId, profile: PeerProfile) -> Self {
        PeerRecord {
            id,
            profile,
            status: PeerStatus::Member,
            arrived_at: SimTime::ZERO,
            admitted_at: Some(SimTime::ZERO),
            introducer: None,
            audit_remaining: None,
            transactions: 0,
        }
    }

    /// An arrival awaiting its introduction decision.
    pub(crate) fn arriving(id: PeerId, profile: PeerProfile, now: SimTime) -> Self {
        PeerRecord {
            id,
            profile,
            status: PeerStatus::Waiting,
            arrived_at: now,
            admitted_at: None,
            introducer: None,
            audit_remaining: None,
            transactions: 0,
        }
    }

    /// Marks the peer admitted at `now`, introduced by `introducer`
    /// (when applicable) and subject to an audit after `audit_trans`
    /// transactions (when applicable).
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        introducer: Option<PeerId>,
        audit_trans: Option<u32>,
    ) {
        self.status = PeerStatus::Member;
        self.admitted_at = Some(now);
        self.introducer = introducer;
        self.audit_remaining = audit_trans;
    }

    /// Records participation in one transaction; returns `true` when
    /// this transaction triggers the audit.
    pub(crate) fn record_transaction(&mut self) -> bool {
        self.transactions += 1;
        match self.audit_remaining.as_mut() {
            Some(n) => {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.audit_remaining = None;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replend_types::IntroducerPolicy;

    fn profile() -> PeerProfile {
        PeerProfile::cooperative(IntroducerPolicy::Naive)
    }

    #[test]
    fn founding_members_are_admitted_without_audit() {
        let r = PeerRecord::founding(PeerId(1), profile());
        assert!(r.status.is_member());
        assert_eq!(r.admitted_at, Some(SimTime::ZERO));
        assert_eq!(r.audit_remaining, None);
        assert_eq!(r.introducer, None);
    }

    #[test]
    fn arrival_waits() {
        let r = PeerRecord::arriving(PeerId(2), profile(), SimTime(10));
        assert!(r.status.is_waiting());
        assert!(!r.status.is_member());
        assert_eq!(r.arrived_at, SimTime(10));
    }

    #[test]
    fn admit_sets_audit_and_introducer() {
        let mut r = PeerRecord::arriving(PeerId(2), profile(), SimTime(10));
        r.admit(SimTime(1010), Some(PeerId(7)), Some(20));
        assert!(r.status.is_member());
        assert_eq!(r.admitted_at, Some(SimTime(1010)));
        assert_eq!(r.introducer, Some(PeerId(7)));
        assert_eq!(r.audit_remaining, Some(20));
    }

    #[test]
    fn audit_fires_exactly_at_audit_trans() {
        let mut r = PeerRecord::arriving(PeerId(2), profile(), SimTime(0));
        r.admit(SimTime(1), Some(PeerId(7)), Some(3));
        assert!(!r.record_transaction());
        assert!(!r.record_transaction());
        assert!(r.record_transaction(), "third transaction triggers audit");
        assert_eq!(r.audit_remaining, None);
        assert!(!r.record_transaction(), "audit fires only once");
        assert_eq!(r.transactions, 4);
    }

    #[test]
    fn members_without_audit_just_count() {
        let mut r = PeerRecord::founding(PeerId(1), profile());
        assert!(!r.record_transaction());
        assert_eq!(r.transactions, 1);
    }

    #[test]
    fn status_predicates() {
        assert!(PeerStatus::Member.is_member());
        assert!(PeerStatus::Waiting.is_waiting());
        assert!(!PeerStatus::Refused(RefusalReason::SelectiveRefusal).is_member());
        assert!(!PeerStatus::Flagged.is_member());
        assert!(!PeerStatus::Departed.is_member());
    }
}
