//! Report quality: the reporter's confidence in its own opinion.
//!
//! In ROCQ the reporter attaches a *quality* value to each opinion,
//! reflecting how much first-hand evidence backs it. We use the
//! saturating ramp `q(n) = max(min_quality, n / (n + η))` where `n`
//! is the number of the reporter's previous transactions with the
//! subject — a reporter's tenth opinion about the same partner is
//! worth more than its first.
//!
//! The arena [`RocqEngine`](crate::engine::RocqEngine) keeps `n` in
//! the reporter's row of the subject's
//! [`CredibilityBook`](crate::credibility::CredibilityBook), tagged
//! with the reporter's registration incarnation; the seed-layout
//! [`ReferenceEngine`](crate::reference::ReferenceEngine) keeps a
//! pairwise log. Both forget a departed reporter's counts.

/// The quality ramp.
#[inline]
pub(crate) fn quality_from_count(n: u32, eta: f64, min_quality: f64) -> f64 {
    let q = n as f64 / (n as f64 + eta);
    q.max(min_quality).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quality_ramp_values() {
        // η = 2: q(0) floored, q(2) = 0.5, q(∞) → 1.
        assert_eq!(quality_from_count(0, 2.0, 0.2), 0.2);
        assert!((quality_from_count(2, 2.0, 0.2) - 0.5).abs() < 1e-12);
        assert!((quality_from_count(18, 2.0, 0.2) - 0.9).abs() < 1e-12);
        assert!(quality_from_count(1_000_000, 2.0, 0.2) < 1.0 + 1e-12);
    }

    #[test]
    fn quality_monotone_in_count() {
        let mut prev = 0.0;
        for n in 0..100 {
            let q = quality_from_count(n, 2.0, 0.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    proptest! {
        #[test]
        fn quality_always_in_unit_interval(
            n in proptest::num::u32::ANY,
            eta in 0.0f64..100.0,
            floor in 0.0f64..1.0,
        ) {
            let q = quality_from_count(n, eta, floor);
            prop_assert!((0.0..=1.0).contains(&q));
            prop_assert!(q >= floor - 1e-12);
        }
    }
}
