//! The introduction state machine (§2, "Multiple introduction
//! requests" and §3).
//!
//! Timeline of one introduction:
//!
//! 1. On arrival, the newcomer asks one potential introducer. The
//!    introducer immediately *decides* (naive: always willing;
//!    selective: willing for cooperative applicants and for `err_sel`
//!    of uncooperative ones) but the newcomer learns nothing yet.
//! 2. A waiting period `T` must elapse — *"regardless of whether the
//!    introducer decides to introduce the new peer or not"* — which
//!    rate-limits introduction shopping.
//! 3. At `request + T` the request resolves: if the introducer is
//!    willing **and** still holds `minIntro` reputation, its score
//!    managers deduct `introAmt` and credit the newcomer's score
//!    managers (carrying a unique [`RequestId`]); otherwise the
//!    newcomer is refused.
//!
//! Duplicate detection: the newcomer's score managers remember which
//! request admitted it. A second grant arriving for the same peer is
//! the §2 attack ("it is possible that both of them may agree to
//! introduce this peer") — the reputation is zeroed and the peer
//! flagged malicious. [`IntroductionBook`] owns all of this state.

use replend_types::hash::PeerMap;
use replend_types::id::RequestIdGen;
use replend_types::{PeerId, ProtocolError, RequestId, SimTime};

/// A not-yet-resolved introduction request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingIntro {
    /// Request id (unique; §2).
    pub request: RequestId,
    /// The arrival seeking admission.
    pub newcomer: PeerId,
    /// The member it asked.
    pub introducer: PeerId,
    /// The introducer's (already-made) willingness decision.
    pub willing: bool,
    /// When the request was made.
    pub requested_at: SimTime,
    /// When it may resolve (`requested_at + T`).
    pub resolve_at: SimTime,
}

/// Outcome of resolving a pending introduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntroOutcome {
    /// The introducer is willing; the lending layer must now check
    /// `minIntro` and perform the transfer.
    Willing {
        /// The resolved request.
        pending: PendingIntro,
    },
    /// The introducer declined.
    Declined {
        /// The resolved request.
        pending: PendingIntro,
    },
}

/// All introduction bookkeeping of one community.
#[derive(Debug, Default)]
pub struct IntroductionBook {
    ids: RequestIdGen,
    pending: PeerMap<PeerId, PendingIntro>,
    /// newcomer → the request that admitted it (score managers'
    /// duplicate-detection memory).
    granted: PeerMap<PeerId, RequestId>,
}

impl IntroductionBook {
    /// An empty book.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Files a new introduction request.
    ///
    /// Errors with [`ProtocolError::WaitingPeriodActive`] if the
    /// newcomer already has a request in flight — *"This protocol
    /// ensures that the new peer cannot send any more introduction
    /// requests before the waiting period is over."*
    pub(crate) fn request(
        &mut self,
        newcomer: PeerId,
        introducer: PeerId,
        willing: bool,
        now: SimTime,
        wait_period: u64,
    ) -> Result<PendingIntro, ProtocolError> {
        if self.pending.contains_key(&newcomer) {
            return Err(ProtocolError::WaitingPeriodActive { newcomer });
        }
        let pending = PendingIntro {
            request: self.ids.next_id(),
            newcomer,
            introducer,
            willing,
            requested_at: now,
            resolve_at: now + wait_period,
        };
        self.pending.insert(newcomer, pending);
        Ok(pending)
    }

    /// Resolves the pending request of `newcomer`.
    ///
    /// Returns `None` when there is no pending request or the waiting
    /// period has not yet elapsed.
    pub(crate) fn resolve(&mut self, newcomer: PeerId, now: SimTime) -> Option<IntroOutcome> {
        let pending = *self.pending.get(&newcomer)?;
        if now < pending.resolve_at {
            return None;
        }
        self.pending.remove(&newcomer);
        Some(if pending.willing {
            IntroOutcome::Willing { pending }
        } else {
            IntroOutcome::Declined { pending }
        })
    }

    /// Records that `request` admitted `newcomer`. Returns the §2
    /// duplicate-introduction error if another grant was already
    /// recorded — callers must then zero the peer's reputation and
    /// flag it malicious.
    pub(crate) fn record_grant(
        &mut self,
        newcomer: PeerId,
        request: RequestId,
    ) -> Result<(), ProtocolError> {
        if self.granted.contains_key(&newcomer) {
            return Err(ProtocolError::DuplicateIntroduction { newcomer });
        }
        self.granted.insert(newcomer, request);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_resolve_happy_path() {
        let mut book = IntroductionBook::new();
        let p = book
            .request(PeerId(10), PeerId(1), true, SimTime(5), 1000)
            .unwrap();
        assert_eq!(p.resolve_at, SimTime(1005));
        assert_eq!(book.pending.len(), 1);
        assert!(book.pending.contains_key(&PeerId(10)));

        // Too early — the waiting period is absolute.
        assert_eq!(book.resolve(PeerId(10), SimTime(1004)), None);
        assert_eq!(book.pending.len(), 1);

        match book.resolve(PeerId(10), SimTime(1005)).unwrap() {
            IntroOutcome::Willing { pending } => {
                assert_eq!(pending.newcomer, PeerId(10));
                assert_eq!(pending.introducer, PeerId(1));
            }
            other => panic!("expected Willing, got {other:?}"),
        }
        assert_eq!(book.pending.len(), 0);
    }

    #[test]
    fn declined_resolution() {
        let mut book = IntroductionBook::new();
        book.request(PeerId(10), PeerId(1), false, SimTime(0), 10)
            .unwrap();
        match book.resolve(PeerId(10), SimTime(10)).unwrap() {
            IntroOutcome::Declined { pending } => {
                assert!(!pending.willing);
            }
            other => panic!("expected Declined, got {other:?}"),
        }
    }

    #[test]
    fn second_request_during_wait_is_rejected() {
        let mut book = IntroductionBook::new();
        book.request(PeerId(10), PeerId(1), true, SimTime(0), 1000)
            .unwrap();
        let err = book
            .request(PeerId(10), PeerId(2), true, SimTime(500), 1000)
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::WaitingPeriodActive {
                newcomer: PeerId(10)
            }
        );
    }

    #[test]
    fn resolve_unknown_is_none() {
        let mut book = IntroductionBook::new();
        assert_eq!(book.resolve(PeerId(99), SimTime(10_000)), None);
    }

    #[test]
    fn request_ids_are_unique() {
        let mut book = IntroductionBook::new();
        let a = book
            .request(PeerId(1), PeerId(0), true, SimTime(0), 1)
            .unwrap();
        let b = book
            .request(PeerId(2), PeerId(0), true, SimTime(0), 1)
            .unwrap();
        assert_ne!(a.request, b.request);
    }

    #[test]
    fn duplicate_grant_detected() {
        // The §2 attack: two introducers both agree to introduce the
        // same newcomer (possible when it solicits a second intro
        // before the first response arrives). The score managers must
        // catch the second grant.
        let mut book = IntroductionBook::new();
        let r1 = book
            .request(PeerId(10), PeerId(1), true, SimTime(0), 10)
            .unwrap();
        assert!(book.resolve(PeerId(10), SimTime(10)).is_some());
        book.record_grant(PeerId(10), r1.request).unwrap();
        assert!(book.granted.contains_key(&PeerId(10)));

        let r2 = book
            .request(PeerId(10), PeerId(2), true, SimTime(100), 10)
            .unwrap();
        let err = book.record_grant(PeerId(10), r2.request).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::DuplicateIntroduction {
                newcomer: PeerId(10)
            }
        );
    }

    #[test]
    fn grants_of_distinct_peers_are_independent() {
        let mut book = IntroductionBook::new();
        let a = book
            .request(PeerId(1), PeerId(0), true, SimTime(0), 1)
            .unwrap();
        let b = book
            .request(PeerId(2), PeerId(0), true, SimTime(0), 1)
            .unwrap();
        book.record_grant(PeerId(1), a.request).unwrap();
        book.record_grant(PeerId(2), b.request).unwrap();
        assert!(book.granted.contains_key(&PeerId(1)));
        assert!(book.granted.contains_key(&PeerId(2)));
    }

    #[test]
    fn resolution_after_wait_even_much_later() {
        let mut book = IntroductionBook::new();
        book.request(PeerId(1), PeerId(0), true, SimTime(0), 10)
            .unwrap();
        assert!(book.resolve(PeerId(1), SimTime(99_999)).is_some());
    }
}
