//! The clamped reputation value type.
//!
//! §2 of the paper: *"If the system is functioning as desired, the
//! reputation value of all cooperative peers should tend to 1 whereas
//! that of uncooperative peers should tend to zero."* Every reputation
//! in the system therefore lives in `[0, 1]`; [`Reputation`] makes the
//! invariant unrepresentable-to-violate by clamping at construction
//! and providing only saturating arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;

/// A reputation value, always within `[0.0, 1.0]`.
///
/// The paper's protocol constantly adds and subtracts reputation
/// (lending `introAmt`, paying rewards, audit penalties) with explicit
/// clamping rules — e.g. §3: *"update the reputation value of the
/// introducer **subject to the reputation not exceeding 1**"* and
/// *"reduce the stored reputation of the new entrant by introAmt
/// **subject to a minimum of 0**."* [`Reputation::saturating_add`] and
/// [`Reputation::saturating_sub`] encode exactly those rules.
#[derive(Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Reputation(f64);

impl Reputation {
    /// The minimum reputation — a brand-new, un-introduced entrant
    /// (§2 "Bootstrap": new entrants start at 0, "equivalent to the
    /// new entrant being uncooperative").
    pub const ZERO: Reputation = Reputation(0.0);

    /// The maximum reputation — a fully trusted peer.
    pub const ONE: Reputation = Reputation(1.0);

    /// Mid-scale reputation: neither trusted nor distrusted.
    pub const HALF: Reputation = Reputation(0.5);

    /// Creates a reputation, clamping the argument into `[0, 1]`.
    ///
    /// `NaN` is mapped to `0.0` (the least trusted value) so that the
    /// ordering invariants of the type always hold.
    #[inline]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            return Reputation(0.0);
        }
        Reputation(value.clamp(0.0, 1.0))
    }

    /// Returns the inner value (guaranteed within `[0, 1]`).
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Adds, saturating at `1.0`.
    #[inline]
    #[must_use]
    pub fn saturating_add(self, delta: f64) -> Self {
        Reputation::new(self.0 + delta)
    }

    /// Subtracts, saturating at `0.0`.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, delta: f64) -> Self {
        Reputation::new(self.0 - delta)
    }
}

impl Default for Reputation {
    /// The default reputation is **zero** — the paper's bootstrap rule
    /// for entrants that have not been introduced.
    fn default() -> Self {
        Reputation::ZERO
    }
}

impl fmt::Debug for Reputation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rep({:.4})", self.0)
    }
}

impl fmt::Display for Reputation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<f64> for Reputation {
    fn from(v: f64) -> Self {
        Reputation::new(v)
    }
}

impl Sum<Reputation> for f64 {
    fn sum<I: Iterator<Item = Reputation>>(iter: I) -> f64 {
        iter.map(|r| r.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_clamps_out_of_range() {
        assert_eq!(Reputation::new(-0.5), Reputation::ZERO);
        assert_eq!(Reputation::new(1.5), Reputation::ONE);
        assert_eq!(Reputation::new(0.25).value(), 0.25);
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Reputation::new(f64::NAN), Reputation::ZERO);
    }

    #[test]
    fn default_is_zero_per_bootstrap_rule() {
        assert_eq!(Reputation::default(), Reputation::ZERO);
    }

    #[test]
    fn saturating_add_caps_at_one() {
        // §3: introducer repayment "subject to the reputation not
        // exceeding 1".
        let r = Reputation::new(0.95);
        assert_eq!(r.saturating_add(0.12), Reputation::ONE);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        // §3: entrant penalty "subject to a minimum of 0".
        let r = Reputation::new(0.05);
        assert_eq!(r.saturating_sub(0.1), Reputation::ZERO);
    }

    #[test]
    fn add_negative_delta_subtracts() {
        let r = Reputation::new(0.5);
        assert!((r.saturating_add(-0.2).value() - 0.3).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn constructor_always_in_range(v in proptest::num::f64::ANY) {
            let r = Reputation::new(v);
            prop_assert!((0.0..=1.0).contains(&r.value()));
        }

        #[test]
        fn saturating_ops_preserve_invariant(
            base in 0.0f64..=1.0,
            delta in -10.0f64..=10.0,
        ) {
            let r = Reputation::new(base);
            let added = r.saturating_add(delta);
            let subbed = r.saturating_sub(delta);
            prop_assert!((0.0..=1.0).contains(&added.value()));
            prop_assert!((0.0..=1.0).contains(&subbed.value()));
        }

        #[test]
        fn add_then_sub_never_underflows_past_original(
            base in 0.0f64..=1.0,
            delta in 0.0f64..=1.0,
        ) {
            // Lending then repaying the same amount never leaves the
            // peer better off than the cap nor worse than zero.
            let r = Reputation::new(base);
            let roundtrip = r.saturating_sub(delta).saturating_add(delta);
            prop_assert!(roundtrip.value() <= 1.0 + 1e-12);
            prop_assert!(roundtrip.value() + 1e-12 >= base.min(1.0).min(roundtrip.value() + 1.0));
        }
    }
}
