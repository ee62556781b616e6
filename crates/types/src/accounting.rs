//! Incremental-accounting vocabulary: feedback batches, reputation
//! deltas, and compensated accumulators.
//!
//! The community samples its headline quantities (population mix,
//! mean cooperative/uncooperative reputation) every tick. Maintaining
//! them incrementally requires the reputation engine to *tell* the
//! state layer what changed instead of being polled per member:
//!
//! * [`Feedback`] — one post-transaction opinion, so a tick's reports
//!   can be handed to the engine as a single batch;
//! * [`ReputationDelta`] — "subject `s` moved from `old` to `new`",
//!   emitted by every engine mutation (reports, lending credits and
//!   debits, crash-recovery re-homings) and drained by the community
//!   to keep its aggregates in sync;
//! * [`KahanSum`] / [`MeanAcc`] — Neumaier-compensated accumulators,
//!   so millions of tiny `+delta`/`-delta` updates stay within a few
//!   ULPs of a from-scratch recount (the churn-oracle property test
//!   in `replend-core` pins this down).
//!
//! Everything here is deterministic: no hashing, no iteration-order
//! dependence — a requirement inherited from the workspace's
//! byte-identical same-seed guarantee.

use crate::id::PeerId;
use crate::reputation::Reputation;
use serde::{Deserialize, Serialize};

/// One post-transaction opinion, ready for batched delivery.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Feedback {
    /// The peer reporting the opinion.
    pub reporter: PeerId,
    /// The peer the opinion is about.
    pub subject: PeerId,
    /// The opinion value in `[0, 1]`.
    pub opinion: f64,
}

impl Feedback {
    /// A new feedback record.
    pub fn new(reporter: PeerId, subject: PeerId, opinion: f64) -> Self {
        Feedback {
            reporter,
            subject,
            opinion,
        }
    }
}

/// An observed change of one subject's aggregate reputation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReputationDelta {
    /// The subject whose aggregate moved.
    pub subject: PeerId,
    /// The aggregate before the mutation.
    pub old: Reputation,
    /// The aggregate after the mutation.
    pub new: Reputation,
}

impl ReputationDelta {
    /// True when the mutation left the aggregate bit-identical (such
    /// deltas may be skipped by consumers).
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.old.value().to_bits() == self.new.value().to_bits()
    }
}

/// Neumaier-compensated running sum.
///
/// Plain `f64` `+=`/`-=` accounting drifts by ~1 ULP per update; over
/// the millions of updates of a paper-scale run that adds up. The
/// compensation term keeps the running sum within a few ULPs of the
/// mathematically exact value at O(1) cost per update, and the update
/// sequence is deterministic, preserving same-seed byte-identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KahanSum {
    sum: f64,
    /// Running compensation for lost low-order bits.
    c: f64,
}

impl KahanSum {
    /// Adds `x` (use a negative value to subtract).
    #[inline]
    pub(crate) fn add(&mut self, x: f64) {
        let t = self.sum + x;
        // Neumaier's branch: compensate from whichever operand lost
        // precision.
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.c
    }

    /// Resets to zero.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A compensated mean over a dynamic population: supports adding a
/// member, removing a member, and shifting one member's value by a
/// delta — each O(1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanAcc {
    sum: KahanSum,
    n: usize,
}

impl MeanAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Includes a new member currently holding `value`.
    #[inline]
    pub fn insert(&mut self, value: f64) {
        self.sum.add(value);
        self.n += 1;
    }

    /// Excludes a member currently holding `value`.
    ///
    /// # Panics
    /// If the accumulator is empty (an accounting bug upstream).
    #[inline]
    pub fn remove(&mut self, value: f64) {
        assert!(self.n > 0, "MeanAcc::remove on empty accumulator");
        self.sum.add(-value);
        self.n -= 1;
        if self.n == 0 {
            // No members: clear residual compensation so the next
            // population starts exact.
            self.sum.reset();
        }
    }

    /// Applies a member's value change `new − old`.
    #[inline]
    pub fn shift(&mut self, old: f64, new: f64) {
        self.sum.add(new - old);
    }

    /// The current mean; `None` when empty.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum.value() / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_round_trip() {
        let f = Feedback::new(PeerId(1), PeerId(2), 0.75);
        assert_eq!(f.reporter, PeerId(1));
        assert_eq!(f.subject, PeerId(2));
        assert_eq!(f.opinion, 0.75);
    }

    #[test]
    fn delta_change_and_noop() {
        let d = ReputationDelta {
            subject: PeerId(3),
            old: Reputation::new(0.25),
            new: Reputation::new(0.75),
        };
        assert!(!d.is_noop());
        let same = ReputationDelta {
            subject: PeerId(3),
            old: Reputation::new(0.5),
            new: Reputation::new(0.5),
        };
        assert!(same.is_noop());
    }

    #[test]
    fn kahan_beats_naive_on_pathological_sums() {
        // 1 + 2^-60 added a million times, then -1: the naive sum
        // loses every tiny addend; Kahan keeps them.
        let tiny = (2.0f64).powi(-60);
        let mut k = KahanSum::default();
        let mut naive = 0.0f64;
        k.add(1.0);
        naive += 1.0;
        for _ in 0..1_000_000 {
            k.add(tiny);
            naive += tiny;
        }
        k.add(-1.0);
        naive -= 1.0;
        let exact = tiny * 1e6;
        assert!((k.value() - exact).abs() < exact * 1e-9, "kahan {k:?}");
        assert!(
            (naive - exact).abs() > exact * 1e-3,
            "naive should have lost precision, got {naive}"
        );
    }

    #[test]
    fn mean_acc_tracks_membership() {
        let mut m = MeanAcc::new();
        assert_eq!(m.mean(), None);
        m.insert(1.0);
        m.insert(0.5);
        assert_eq!(m.n, 2);
        assert!((m.mean().unwrap() - 0.75).abs() < 1e-12);
        m.shift(0.5, 0.9);
        assert!((m.mean().unwrap() - 0.95).abs() < 1e-12);
        m.remove(0.9);
        assert!((m.mean().unwrap() - 1.0).abs() < 1e-12);
        m.remove(1.0);
        assert_eq!(m.mean(), None);
        assert_eq!(m.sum.value(), 0.0, "emptied accumulator resets exactly");
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn mean_acc_remove_from_empty_panics() {
        MeanAcc::new().remove(0.5);
    }

    #[test]
    fn mean_acc_survives_heavy_churn_near_recount() {
        // Simulated churn: values inserted, shifted and removed in a
        // deterministic pattern; the accumulator must stay within a
        // few ULPs of a recount.
        let mut m = MeanAcc::new();
        let mut live: Vec<f64> = Vec::new();
        let mut x = 0.123456789f64;
        for step in 0..100_000usize {
            x = (x * 997.0 + 0.618).fract();
            match step % 3 {
                0 => {
                    live.push(x);
                    m.insert(x);
                }
                1 if !live.is_empty() => {
                    let i = step % live.len();
                    let old = live[i];
                    live[i] = x;
                    m.shift(old, x);
                }
                _ if !live.is_empty() => {
                    let i = step % live.len();
                    let v = live.swap_remove(i);
                    m.remove(v);
                }
                _ => {}
            }
        }
        let recount: f64 = live.iter().sum();
        assert_eq!(m.n, live.len());
        assert!(
            (m.sum.value() - recount).abs() <= 1e-9 * recount.abs().max(1.0),
            "sum {} vs recount {recount}",
            m.sum.value()
        );
    }
}
