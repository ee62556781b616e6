//! The pure arithmetic of the lending protocol (§2–3).
//!
//! These functions are deliberately free of simulation state so the
//! protocol rules can be tested (and property-tested) in isolation:
//!
//! * an introducer must hold at least `minIntro` reputation to lend;
//! * lending transfers exactly `introAmt` from introducer to newcomer;
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

/// The reputations after the introducer lends `introAmt` to the
/// newcomer: `(introducer_after, newcomer_initial)`.
///
/// # Panics
/// In debug builds, if the introducer was below `minIntro` (callers
/// must gate on [`may_introduce`]).
#[inline]
#[cfg(test)]
pub(crate) fn apply_loan(
    params: &LendingParams,
    introducer_rep: Reputation,
) -> (Reputation, Reputation) {
    debug_assert!(
        may_introduce(params, introducer_rep),
        "loan from an under-threshold introducer"
    );
    let after = introducer_rep.saturating_sub(params.intro_amt);
    let newcomer = Reputation::new(params.intro_amt);
    (after, newcomer)
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
    fn loan_transfers_exactly_intro_amt() {
        let p = params();
        let (after, newcomer) = apply_loan(&p, Reputation::new(0.8));
        assert!((after.value() - 0.7).abs() < 1e-12);
        assert!((newcomer.value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loan_cannot_drive_introducer_negative() {
        // minIntro > introAmt guarantees this (§3); check at the
        // boundary.
        let p = params();
        let (after, _) = apply_loan(&p, Reputation::new(0.2));
        assert!(after.value() >= 0.0);
        assert!((after.value() - 0.1).abs() < 1e-12);
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
        /// Conservation: on a successful audit the system-wide
        /// reputation change of the whole episode is exactly `rwd`
        /// (before the ≤ 1 clamp): introducer pays `introAmt`,
        /// newcomer receives `introAmt`, introducer is repaid
        /// `introAmt + rwd`.
        #[test]
        fn successful_episode_creates_exactly_the_reward(
            intro_amt in 0.01f64..=0.45,
            reward_frac in 0.0f64..=1.0,
            introducer in 0.9f64..=1.0,
        ) {
            let p = LendingParams {
                intro_amt,
                reward: reward_frac * intro_amt,
                ..LendingParams::default()
            };
            prop_assume!(p.validate().is_ok());
            let r0 = Reputation::new(introducer);
            prop_assume!(may_introduce(&p, r0));
            let (after, newcomer) = apply_loan(&p, r0);
            // Unclamped net change:
            let net = (after.value() - r0.value())       // -introAmt
                + newcomer.value()                        // +introAmt
                + settlement_on_success(&p) - intro_amt;  // +rwd
            prop_assert!((net - p.reward).abs() < 1e-9);
        }

        /// On a failed audit the episode destroys between introAmt
        /// and 2·introAmt of reputation (the newcomer may not have
        /// the full stake left to burn).
        #[test]
        fn failed_episode_destroys_reputation(
            intro_amt in 0.01f64..=0.45,
            introducer in 0.9f64..=1.0,
            newcomer_at_audit in 0.0f64..=1.0,
        ) {
            let p = LendingParams {
                intro_amt,
                reward: 0.2 * intro_amt,
                ..LendingParams::default()
            };
            prop_assume!(p.validate().is_ok());
            let r0 = Reputation::new(introducer);
            prop_assume!(may_introduce(&p, r0));
            let (after, _) = apply_loan(&p, r0);
            let nc = Reputation::new(newcomer_at_audit);
            let nc_after = nc.saturating_sub(newcomer_penalty_on_failure(&p));
            let destroyed =
                (r0.value() - after.value()) + (nc.value() - nc_after.value());
            prop_assert!(destroyed >= intro_amt - 1e-9);
            prop_assert!(destroyed <= 2.0 * intro_amt + 1e-9);
        }

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
