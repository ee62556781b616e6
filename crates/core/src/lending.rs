//! The pure arithmetic of the lending protocol (§2–3).
//!
//! These functions are deliberately free of simulation state so the
//! protocol rules can be tested (and property-tested) in isolation:
//!
//! * an introducer must hold at least `minIntro` reputation to lend
//!   (the loan itself — `introAmt` debited from the introducer and
//!   credited to the newcomer — is performed by the community through
//!   the engine);
//! * a **satisfactory** audit returns the stake plus `rwd` to the
//!   introducer (clamped at 1) — *"the introducer is given back the
//!   reputation that it had lent along with a small reward for
//!   introducing an honest peer"*;
//! * an **unsatisfactory** audit burns the stake and additionally
//!   debits the newcomer by `introAmt` (clamped at 0) — *"the
//!   introducer loses the lent reputation … The score managers of the
//!   new peer also reduce the stored reputation of the new entrant by
//!   introAmt subject to a minimum of 0."*

use replend_types::{LendingParams, Reputation};

/// Can `introducer_rep` currently introduce anyone?
///
/// §3: *"We do not allow peers whose reputation goes below a certain
/// threshold minIntro to introduce anyone into the system."*
#[inline]
pub(crate) fn may_introduce(params: &LendingParams, introducer_rep: Reputation) -> bool {
    introducer_rep.value() >= params.min_intro()
}

/// Is the audited newcomer's performance satisfactory?
#[inline]
pub(crate) fn audit_verdict(params: &LendingParams, newcomer_rep: Reputation) -> bool {
    newcomer_rep.value() >= params.audit_threshold
}

/// Reputation delta paid to the introducer on a **satisfactory**
/// audit: the returned stake plus the reward (the engine clamps the
/// resulting reputation at 1).
#[inline]
pub(crate) fn settlement_on_success(params: &LendingParams) -> f64 {
    params.intro_amt + params.reward
}

/// Reputation delta applied to the **newcomer** on an unsatisfactory
/// audit (the engine clamps at 0). The introducer receives nothing —
/// its stake is simply never returned.
#[inline]
pub(crate) fn newcomer_penalty_on_failure(params: &LendingParams) -> f64 {
    params.intro_amt
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> LendingParams {
        LendingParams::default()
    }

    #[test]
    fn threshold_gates_introduction() {
        let p = params(); // minIntro = 2·introAmt = 0.2
        assert!(may_introduce(&p, Reputation::new(0.2)));
        assert!(may_introduce(&p, Reputation::ONE));
        assert!(!may_introduce(&p, Reputation::new(0.1999)));
        assert!(!may_introduce(&p, Reputation::ZERO));
    }

    #[test]
    fn audit_verdict_boundary() {
        let p = params(); // audit_threshold = 0.5
        assert!(audit_verdict(&p, Reputation::new(0.5)));
        assert!(audit_verdict(&p, Reputation::ONE));
        assert!(!audit_verdict(&p, Reputation::new(0.4999)));
    }

    #[test]
    fn success_settlement_includes_reward() {
        let p = params();
        assert!((settlement_on_success(&p) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn failure_penalty_is_the_stake() {
        let p = params();
        assert!((newcomer_penalty_on_failure(&p) - 0.1).abs() < 1e-12);
    }

    proptest! {
        /// may_introduce is monotone in reputation.
        #[test]
        fn gate_is_monotone(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = params();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if may_introduce(&p, Reputation::new(lo)) {
                prop_assert!(may_introduce(&p, Reputation::new(hi)));
            }
        }
    }
}
