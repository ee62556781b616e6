//! Tunables of the ROCQ engine.
//!
//! The lending paper delegates these to the earlier ROCQ reports
//! ([7, 8]); the defaults below reproduce the qualitative behaviour
//! those reports demand (cooperative reputations → 1, uncooperative
//! → 0, liars marginalized) and are exercised by the integration
//! tests.

use serde::{Deserialize, Serialize};

/// Configuration of [`RocqEngine`](crate::engine::RocqEngine).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocqParams {
    /// Credibility learning rate `γ`: agreement moves credibility by
    /// `γ·(1−C)`, disagreement by `−γ·C`.
    pub gamma: f64,
    /// Agreement threshold `θ`: a report agrees with the aggregate
    /// when `|opinion − R| ≤ θ`.
    pub agreement_threshold: f64,
    /// Initial credibility of an unknown reporter.
    pub initial_credibility: f64,
    /// Quality ramp constant `η`: a reporter with `n` prior first-hand
    /// interactions with the subject reports quality `n/(n+η)`,
    /// floored at `min_quality`.
    pub eta: f64,
    /// Floor on report quality (a first-ever interaction still counts
    /// a little).
    pub min_quality: f64,
    /// Cap on a replica's accumulated evidence weight. Bounding the
    /// mass keeps reputations responsive: a direct debit (the lending
    /// stake) can be recouped in ~`weight_cap` good transactions,
    /// matching §3's "the introducer can recoup its reputation in
    /// time by behaving cooperatively".
    pub weight_cap: f64,
    /// Evidence weight granted to the initial (credited) reputation of
    /// a newly registered peer, so a single hostile report cannot wipe
    /// out an introduction.
    pub prior_weight: f64,
    /// Probability that a replica re-homed by churn loses its state
    /// instead of copying from a surviving sibling.
    pub crash_prob: f64,
}

impl RocqParams {
    /// Validates ranges.
    pub(crate) fn validate(&self) -> Result<(), replend_types::ConfigError> {
        use replend_types::ConfigError;
        for (name, v, lo, hi) in [
            ("gamma", self.gamma, 0.0, 1.0),
            ("agreement_threshold", self.agreement_threshold, 0.0, 1.0),
            ("initial_credibility", self.initial_credibility, 0.0, 1.0),
            ("min_quality", self.min_quality, 0.0, 1.0),
            ("crash_prob", self.crash_prob, 0.0, 1.0),
        ] {
            if !(lo..=hi).contains(&v) || !v.is_finite() {
                return Err(ConfigError::OutOfRange {
                    param: name,
                    value: v,
                    expected: "[0, 1]",
                });
            }
        }
        if !(self.eta.is_finite() && self.eta >= 0.0) {
            return Err(ConfigError::OutOfRange {
                param: "eta",
                value: self.eta,
                expected: "[0, ∞)",
            });
        }
        if !(self.weight_cap.is_finite() && self.weight_cap >= 1.0) {
            return Err(ConfigError::OutOfRange {
                param: "weight_cap",
                value: self.weight_cap,
                expected: "[1, ∞)",
            });
        }
        if !(self.prior_weight.is_finite() && self.prior_weight >= 0.0) {
            return Err(ConfigError::OutOfRange {
                param: "prior_weight",
                value: self.prior_weight,
                expected: "[0, ∞)",
            });
        }
        Ok(())
    }
}

impl Default for RocqParams {
    fn default() -> Self {
        // Tuned so that the audit window of the lending paper works:
        // a cooperative newcomer admitted with reputation `introAmt`
        // must clear the 0.5 audit threshold within ~20 transactions
        // (§3, `auditTrans`), while an uncooperative one must not.
        RocqParams {
            gamma: 0.1,
            agreement_threshold: 0.5,
            initial_credibility: 0.5,
            eta: 2.0,
            min_quality: 0.5,
            weight_cap: 40.0,
            prior_weight: 0.5,
            crash_prob: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        RocqParams::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_gamma() {
        let p = RocqParams {
            gamma: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_small_weight_cap() {
        let p = RocqParams {
            weight_cap: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_nan_eta() {
        let p = RocqParams {
            eta: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_negative_prior_weight() {
        let p = RocqParams {
            prior_weight: -1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
