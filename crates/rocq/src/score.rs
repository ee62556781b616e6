//! Per-subject score state held by one score-manager replica.
//!
//! A replica's view of a subject is a bounded-mass weighted average:
//! each report contributes its opinion with weight `credibility ×
//! quality`, and the total evidence mass is capped so the aggregate
//! stays responsive. Direct credits/debits — the lending protocol's
//! stakes, repayments, rewards and penalties — shift the aggregate by
//! exactly the requested amount (clamped to `[0, 1]`), which is the
//! semantics §3 of the paper assigns to them ("deduct the lent amount
//! from its reputation", "credit the new peer with this amount").

use replend_types::Reputation;
use serde::{Deserialize, Serialize};

/// One replica's aggregate for one subject.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct ScoreState {
    /// Current aggregate reputation.
    r: f64,
    /// Accumulated evidence mass (capped).
    w: f64,
}

impl ScoreState {
    /// A fresh subject with the given starting reputation and prior
    /// evidence mass.
    pub fn new(initial: Reputation, prior_weight: f64) -> Self {
        ScoreState {
            r: initial.value(),
            w: prior_weight.max(0.0),
        }
    }

    /// The replica's current aggregate.
    #[inline]
    pub fn reputation(&self) -> Reputation {
        Reputation::new(self.r)
    }

    /// Folds in one report with the given opinion and weight
    /// (`credibility × quality`), capping the evidence mass at
    /// `weight_cap`. The reference layout runs this once per replica
    /// per feedback; the arena engine's slab runs a branchless copy
    /// of it (`ScoreSlab::report`) that must stay bit-identical.
    #[inline]
    pub fn report(&mut self, opinion: f64, weight: f64, weight_cap: f64) {
        let opinion = opinion.clamp(0.0, 1.0);
        let weight = weight.max(0.0);
        if weight == 0.0 {
            return;
        }
        let denom = self.w + weight;
        if denom <= 0.0 {
            // No prior mass: the report defines the aggregate.
            self.r = opinion;
        } else {
            self.r = (self.r * self.w + opinion * weight) / denom;
        }
        self.w = denom.min(weight_cap.max(1.0));
    }

    /// Directly adds `amount` (may be negative) to the aggregate,
    /// clamped to `[0, 1]`. Evidence mass is unchanged — a lending
    /// credit is a transfer, not new evidence.
    #[inline]
    pub fn adjust(&mut self, amount: f64) {
        self.r = (self.r + amount).clamp(0.0, 1.0);
    }

    /// Overwrites this replica's state (anti-entropy copy from a
    /// sibling replica after re-homing).
    pub(crate) fn overwrite_from(&mut self, other: &ScoreState) {
        *self = *other;
    }

    /// The raw `(r, w)` pair, bit-for-bit — the slab's branchless
    /// report ([`crate::slab::ScoreSlab`]) and checkpoint export
    /// round-trip states through this without any clamping or
    /// renormalisation.
    #[inline]
    pub(crate) fn raw_parts(&self) -> (f64, f64) {
        (self.r, self.w)
    }

    /// Rebuilds a state from raw parts (inverse of
    /// [`ScoreState::raw_parts`]; no validation on purpose).
    #[inline]
    pub(crate) fn from_raw_parts(r: f64, w: f64) -> Self {
        ScoreState { r, w }
    }
}

impl Default for ScoreState {
    fn default() -> Self {
        ScoreState::new(Reputation::ZERO, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_state_reports_initial() {
        let s = ScoreState::new(Reputation::new(0.1), 10.0);
        assert!((s.reputation().value() - 0.1).abs() < 1e-12);
        assert_eq!(s.w, 10.0);
    }

    #[test]
    fn zero_weight_report_is_ignored() {
        let mut s = ScoreState::new(Reputation::new(0.3), 5.0);
        s.report(1.0, 0.0, 40.0);
        assert!((s.reputation().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn first_report_with_no_prior_mass_defines_aggregate() {
        let mut s = ScoreState::new(Reputation::ZERO, 0.0);
        s.report(0.8, 0.5, 40.0);
        assert!((s.reputation().value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reports_move_average_toward_opinion() {
        let mut s = ScoreState::new(Reputation::new(0.1), 10.0);
        for _ in 0..200 {
            s.report(1.0, 0.9, 40.0);
        }
        assert!(
            s.reputation().value() > 0.95,
            "sustained good service should approach 1, got {}",
            s.reputation()
        );
    }

    #[test]
    fn weight_cap_bounds_mass_and_keeps_responsiveness() {
        let mut s = ScoreState::new(Reputation::ONE, 10.0);
        for _ in 0..500 {
            s.report(1.0, 1.0, 40.0);
        }
        assert!(s.w <= 40.0 + 1e-9);
        // Now the subject turns bad: reputation must fall below 0.5
        // within ~40 bad reports despite the long good history.
        for _ in 0..40 {
            s.report(0.0, 1.0, 40.0);
        }
        assert!(
            s.reputation().value() < 0.5,
            "capped mass must stay responsive, got {}",
            s.reputation()
        );
    }

    #[test]
    fn adjust_shifts_exactly_and_clamps() {
        let mut s = ScoreState::new(Reputation::new(0.6), 20.0);
        s.adjust(-0.1);
        assert!((s.reputation().value() - 0.5).abs() < 1e-12);
        s.adjust(0.7);
        assert_eq!(s.reputation(), Reputation::ONE, "clamped at 1");
        s.adjust(-2.0);
        assert_eq!(s.reputation(), Reputation::ZERO, "clamped at 0");
    }

    #[test]
    fn overwrite_copies_everything() {
        let mut a = ScoreState::new(Reputation::new(0.2), 1.0);
        let b = ScoreState::new(Reputation::new(0.9), 30.0);
        a.overwrite_from(&b);
        assert_eq!(a, b);
    }

    proptest! {
        /// The aggregate never leaves [0, 1] and the mass never
        /// exceeds the cap, under arbitrary report/adjust sequences.
        #[test]
        fn invariants_hold(
            initial in 0.0f64..=1.0,
            prior in 0.0f64..=20.0,
            ops in proptest::collection::vec(
                (proptest::bool::ANY, -1.0f64..=1.0, 0.0f64..=1.0), 0..100),
        ) {
            let cap = 40.0;
            let mut s = ScoreState::new(Reputation::new(initial), prior);
            for (is_report, a, b) in ops {
                if is_report {
                    s.report((a + 1.0) / 2.0, b, cap);
                } else {
                    s.adjust(a);
                }
                let r = s.reputation().value();
                prop_assert!((0.0..=1.0).contains(&r));
                prop_assert!(s.w <= cap.max(prior) + 1e-9);
            }
        }

        /// A report's influence is a convex combination: the new
        /// aggregate lies between the old aggregate and the opinion.
        #[test]
        fn report_is_convex(
            initial in 0.0f64..=1.0,
            prior in 0.1f64..=20.0,
            opinion in 0.0f64..=1.0,
            weight in 0.0001f64..=1.0,
        ) {
            let mut s = ScoreState::new(Reputation::new(initial), prior);
            let before = s.reputation().value();
            s.report(opinion, weight, 40.0);
            let after = s.reputation().value();
            let (lo, hi) = if before <= opinion { (before, opinion) } else { (opinion, before) };
            prop_assert!(after >= lo - 1e-9 && after <= hi + 1e-9);
        }
    }
}
