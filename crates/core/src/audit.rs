//! The performance audit (§3, "Performance audit").
//!
//! *"After the new peer completed `auditTrans` number of transactions
//! its score managers will audit its performance. If the performance
//! is deemed satisfactory based on its reputation value, the
//! introducer is given back the reputation that it had lent along
//! with a small reward … If the performance of the new peer is
//! unsatisfactory, the introducer loses the lent reputation … The
//! score managers of the new peer also reduce the stored reputation
//! of the new entrant by introAmt subject to a minimum of 0."*
//!
//! The transaction countdown lives in
//! [`PeerRecord::record_transaction`](crate::peer::PeerRecord::record_transaction);
//! this module evaluates the verdict and produces the settlement that
//! the community applies through its reputation engine.

use crate::lending;
use replend_types::{LendingParams, PeerId, Reputation};

/// The settlement decided by an audit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditSettlement {
    /// The audited newcomer.
    pub newcomer: PeerId,
    /// Its introducer.
    pub introducer: PeerId,
    /// Verdict: was the newcomer's performance satisfactory?
    pub satisfactory: bool,
    /// Reputation credited to the introducer (stake + reward on
    /// success, 0 on failure).
    pub introducer_credit: f64,
    /// Reputation debited from the newcomer (0 on success, the stake
    /// on failure).
    pub newcomer_debit: f64,
}

/// Evaluates the audit of `newcomer` (currently holding
/// `newcomer_rep`) introduced by `introducer`.
pub(crate) fn perform_audit(
    params: &LendingParams,
    newcomer: PeerId,
    introducer: PeerId,
    newcomer_rep: Reputation,
) -> AuditSettlement {
    let satisfactory = lending::audit_verdict(params, newcomer_rep);
    if satisfactory {
        AuditSettlement {
            newcomer,
            introducer,
            satisfactory,
            introducer_credit: lending::settlement_on_success(params),
            newcomer_debit: 0.0,
        }
    } else {
        AuditSettlement {
            newcomer,
            introducer,
            satisfactory,
            introducer_credit: 0.0,
            newcomer_debit: lending::newcomer_penalty_on_failure(params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> LendingParams {
        LendingParams::default()
    }

    #[test]
    fn satisfactory_audit_repays_with_reward() {
        let s = perform_audit(&params(), PeerId(2), PeerId(1), Reputation::new(0.8));
        assert!(s.satisfactory);
        assert!((s.introducer_credit - 0.12).abs() < 1e-12);
        assert_eq!(s.newcomer_debit, 0.0);
        assert_eq!(s.newcomer, PeerId(2));
        assert_eq!(s.introducer, PeerId(1));
    }

    #[test]
    fn unsatisfactory_audit_burns_stake_and_penalizes_newcomer() {
        let s = perform_audit(&params(), PeerId(2), PeerId(1), Reputation::new(0.2));
        assert!(!s.satisfactory);
        assert_eq!(s.introducer_credit, 0.0);
        assert!((s.newcomer_debit - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdict_boundary_is_inclusive() {
        let s = perform_audit(&params(), PeerId(2), PeerId(1), Reputation::new(0.5));
        assert!(s.satisfactory);
    }

    proptest! {
        /// Exactly one side of the settlement is ever non-zero.
        #[test]
        fn settlement_is_one_sided(rep in 0.0f64..=1.0) {
            let s = perform_audit(&params(), PeerId(2), PeerId(1), Reputation::new(rep));
            if s.satisfactory {
                prop_assert!(s.introducer_credit > 0.0);
                prop_assert_eq!(s.newcomer_debit, 0.0);
            } else {
                prop_assert_eq!(s.introducer_credit, 0.0);
                prop_assert!(s.newcomer_debit > 0.0);
            }
        }
    }
}
