//! The message-level introduction protocol (§2, "Multiple
//! introduction requests").
//!
//! The paper specifies the loan as an explicit message flow:
//!
//! > *"It sends a signed message to its score managers telling them
//! > to deduct the lent amount from its reputation. … These score
//! > managers then send a message to each of the score managers of
//! > the new peer telling them to credit the new peer with this
//! > amount. Since each score manager of the introducer sends
//! > messages to each score manager of the new peer, **redundancy is
//! > introduced in the system in case a score manager crashes** before
//! > being able to contact the new peer's score managers."*
//!
//! `MessageBus` models that flow: `numSM × numSM` credit messages
//! per introduction, per-message loss injection (a crashed sender
//! never sends), and **idempotent application** at the receiving
//! score managers — each receiving replica applies a given
//! `RequestId` at most once, no matter how many of the `numSM` copies
//! reach it. The community uses the bus for every loan, so message
//! counts and loss tolerance are measurable; the net effect is then
//! applied to the reputation engine exactly once.

use rand::Rng;
use replend_types::hash::PeerSet;
use replend_types::{PeerId, RequestId};
use serde::{Deserialize, Serialize};

/// Per-kind delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageCounters {
    /// Introduction pleas sent.
    pub introduction_requests: u64,
    /// Stake-deduction messages sent to introducer SMs.
    pub deduct_stake: u64,
    /// Credit messages sent between SM sets (before loss).
    pub credit_sent: u64,
    /// Credit messages actually delivered.
    pub credit_delivered: u64,
    /// Credit messages that were duplicates at the receiving replica.
    pub credit_duplicates: u64,
    /// Decision notifications.
    pub responses: u64,
    /// Audit verdict messages.
    pub audit_verdicts: u64,
}

/// Outcome of the credit fan-out of one introduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CreditOutcome {
    /// Receiving replicas that applied the credit (0..=num_sm).
    pub replicas_credited: usize,
    /// True when at least one replica received the credit — the
    /// introduction survives SM crashes.
    pub delivered: bool,
}

/// The in-process message bus of one community.
///
/// Messages are delivered instantly (§3: no transmission delays or
/// losses on the network path); what *can* fail is a score manager
/// crashing before forwarding, modelled by `sender_crash_prob`.
#[derive(Clone, Debug)]
pub(crate) struct MessageBus {
    num_sm: usize,
    sender_crash_prob: f64,
    counters: MessageCounters,
    /// (receiving replica slot, request) pairs already applied —
    /// the idempotence memory of the newcomer-side score managers.
    applied: PeerSet<(PeerId, usize, RequestId)>,
}

impl MessageBus {
    /// A bus for communities with `num_sm` score managers per peer
    /// and the given per-sender crash probability.
    ///
    /// # Panics
    /// If `num_sm` is zero or the probability is outside `[0, 1]`.
    pub(crate) fn new(num_sm: usize, sender_crash_prob: f64) -> Self {
        assert!(num_sm > 0, "need at least one score manager");
        assert!(
            (0.0..=1.0).contains(&sender_crash_prob),
            "crash probability must be in [0, 1]"
        );
        MessageBus {
            num_sm,
            sender_crash_prob,
            counters: MessageCounters::default(),
            applied: PeerSet::default(),
        }
    }

    /// Current counters.
    pub(crate) fn counters(&self) -> MessageCounters {
        self.counters
    }

    /// Records the newcomer's introduction plea.
    pub(crate) fn send_introduction_request(&mut self) {
        self.counters.introduction_requests += 1;
    }

    /// Records the introducer's decision notification.
    pub(crate) fn send_response(&mut self) {
        self.counters.responses += 1;
    }

    /// Records the audit-verdict fan-out (newcomer SMs → introducer
    /// SMs, one message per pair).
    pub(crate) fn send_audit_verdict(&mut self) {
        self.counters.audit_verdicts += (self.num_sm * self.num_sm) as u64;
    }

    /// Performs the full loan fan-out for `request` crediting
    /// `newcomer`:
    ///
    /// 1. the introducer sends `DeductStake` to each of its `numSM`
    ///    score managers;
    /// 2. each introducer-SM that does not crash sends
    ///    `CreditNewcomer` to each of the newcomer's `numSM` SMs;
    /// 3. each receiving SM applies the credit **once** (duplicates
    ///    from the redundancy are detected via the unique request
    ///    id).
    pub(crate) fn fan_out_credit<R: Rng + ?Sized>(
        &mut self,
        request: RequestId,
        newcomer: PeerId,
        rng: &mut R,
    ) -> CreditOutcome {
        self.counters.deduct_stake += self.num_sm as u64;
        let mut replicas_credited = 0usize;
        for sender in 0..self.num_sm {
            let crashed = self.sender_crash_prob > 0.0 && rng.gen::<f64>() < self.sender_crash_prob;
            if crashed {
                // A crashed SM sends nothing — this is exactly the
                // failure the numSM-fold redundancy exists to mask.
                let _ = sender;
                continue;
            }
            for receiver in 0..self.num_sm {
                self.counters.credit_sent += 1;
                self.counters.credit_delivered += 1;
                if self.applied.insert((newcomer, receiver, request)) {
                    replicas_credited += 1;
                } else {
                    self.counters.credit_duplicates += 1;
                }
            }
        }
        CreditOutcome {
            replicas_credited,
            delivered: replicas_credited > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bus(num_sm: usize, crash: f64) -> (MessageBus, StdRng) {
        (MessageBus::new(num_sm, crash), StdRng::seed_from_u64(1))
    }

    #[test]
    #[should_panic(expected = "at least one score manager")]
    fn zero_sm_rejected() {
        MessageBus::new(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "crash probability")]
    fn bad_probability_rejected() {
        MessageBus::new(6, 1.5);
    }

    #[test]
    fn fan_out_without_crashes_credits_every_replica_once() {
        let (mut bus, mut rng) = bus(6, 0.0);
        let out = bus.fan_out_credit(RequestId(1), PeerId(9), &mut rng);
        assert!(out.delivered);
        assert_eq!(out.replicas_credited, 6);
        let c = bus.counters();
        assert_eq!(c.deduct_stake, 6);
        assert_eq!(c.credit_sent, 36, "numSM × numSM redundancy");
        // 36 arrive, 6 are first-at-their-replica, 30 are duplicates.
        assert_eq!(c.credit_duplicates, 30);
    }

    #[test]
    fn redundancy_masks_partial_crashes() {
        // With 6 senders and 50% crash probability, at least one
        // sender almost surely survives; every surviving sender
        // reaches every receiver, so all replicas get credited.
        let (mut bus, mut rng) = bus(6, 0.5);
        for r in 0..100u64 {
            let out = bus.fan_out_credit(RequestId(r), PeerId(r), &mut rng);
            if out.delivered {
                assert_eq!(
                    out.replicas_credited, 6,
                    "one surviving sender suffices for all replicas"
                );
            }
        }
        let c = bus.counters();
        assert!(c.credit_sent < 3600, "crashes suppressed some sends");
        assert!(c.credit_sent > 0);
    }

    #[test]
    fn total_crash_loses_the_credit() {
        let (mut bus, mut rng) = bus(3, 1.0);
        let out = bus.fan_out_credit(RequestId(1), PeerId(2), &mut rng);
        assert!(!out.delivered);
        assert_eq!(out.replicas_credited, 0);
        assert_eq!(bus.counters().credit_sent, 0);
        assert_eq!(bus.counters().deduct_stake, 3, "stake deduction still sent");
    }

    #[test]
    fn repeat_request_is_fully_deduplicated() {
        // Re-delivering the same request id (e.g. a retransmit)
        // credits nothing.
        let (mut bus, mut rng) = bus(4, 0.0);
        let first = bus.fan_out_credit(RequestId(7), PeerId(1), &mut rng);
        assert_eq!(first.replicas_credited, 4);
        let second = bus.fan_out_credit(RequestId(7), PeerId(1), &mut rng);
        assert_eq!(second.replicas_credited, 0, "idempotence");
        assert!(!second.delivered);
    }

    #[test]
    fn distinct_requests_are_independent() {
        let (mut bus, mut rng) = bus(2, 0.0);
        let a = bus.fan_out_credit(RequestId(1), PeerId(1), &mut rng);
        let b = bus.fan_out_credit(RequestId(2), PeerId(1), &mut rng);
        assert_eq!(a.replicas_credited, 2);
        assert_eq!(b.replicas_credited, 2);
    }

    #[test]
    fn counters_track_auxiliary_messages() {
        let (mut bus, _) = bus(6, 0.0);
        bus.send_introduction_request();
        bus.send_response();
        bus.send_audit_verdict();
        let c = bus.counters();
        assert_eq!(c.introduction_requests, 1);
        assert_eq!(c.responses, 1);
        assert_eq!(c.audit_verdicts, 36);
    }

    proptest! {
        /// Delivery is all-or-nothing per replica set: if any sender
        /// survives, every replica is credited exactly once.
        #[test]
        fn survivor_implies_full_credit(
            num_sm in 1usize..8,
            crash in 0.0f64..=1.0,
            seed in proptest::num::u64::ANY,
        ) {
            let mut bus = MessageBus::new(num_sm, crash);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = bus.fan_out_credit(RequestId(0), PeerId(0), &mut rng);
            if out.delivered {
                prop_assert_eq!(out.replicas_credited, num_sm);
            } else {
                prop_assert_eq!(out.replicas_credited, 0);
            }
        }

        /// Credit messages sent is always a multiple of numSM
        /// (surviving senders × receivers).
        #[test]
        fn sends_are_multiples_of_num_sm(
            num_sm in 1usize..8,
            crash in 0.0f64..=1.0,
            seed in proptest::num::u64::ANY,
        ) {
            let mut bus = MessageBus::new(num_sm, crash);
            let mut rng = StdRng::seed_from_u64(seed);
            bus.fan_out_credit(RequestId(0), PeerId(0), &mut rng);
            prop_assert_eq!(bus.counters().credit_sent % num_sm as u64, 0);
        }
    }
}
