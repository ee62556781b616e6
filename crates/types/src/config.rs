//! Simulation configuration mirroring **Table 1** of the paper.
//!
//! ```text
//! Parameter     Description                                        Default
//! numInit       Initial number of peers in the system              500
//! numTrans      Number of transactions                             500 000
//! numSM         Number of score managers                           6
//! λ             Rate of new peer arrival (per time unit)           0.01
//! f_u           Fraction of new entrants who are uncooperative     0.25
//! f_n           Fraction of cooperative peers who are naive        0.3
//! err_sel       Fraction of selective introductions that are wrong 10%
//! topology      Network topology (Random, Powerlaw)                Powerlaw
//! T             Waiting period for introductions                   1000
//! auditTrans    Transactions after which a new node is audited     20
//! introAmt      Amount of reputation an introducer gives up        0.1
//! rwd           Reward for introducing a cooperative peer          0.02
//! minIntro      Minimum reputation required to introduce a peer    2·introAmt†
//! ```
//!
//! † The `minIntro` formula is unreadable in the surviving copy of the
//! paper; the text constrains it to be *greater than* `introAmt` (so
//! reputations cannot go negative) and large enough that uncooperative
//! peers "never manage to raise their reputation beyond the threshold
//! required to recommend new peers" (§4.5), while cooperative
//! newcomers must clear it quickly (Figure 6 shows near-total
//! admission of cooperative arrivals). `2·introAmt` satisfies all
//! three; see DESIGN.md §4.

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// Which interaction topology drives respondent / introducer choice
/// (§3: *"We model two different topologies: 1) random and 2)
/// scale-free"*).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum TopologyKind {
    /// All nodes equally likely to be chosen as respondent.
    Random,
    /// Node chosen with probability distributed according to a
    /// power law (degree-proportional over a Barabási–Albert graph).
    /// Table-1 default.
    #[default]
    Powerlaw,
    /// Alternative literal reading of §3's power law: probability
    /// proportional to `(arrival rank + 1)^-1` with no graph
    /// structure (Zipf over seniority). Compared against the
    /// Barabási–Albert reading by the `ablation_topology` bench.
    Zipf,
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyKind::Random => write!(f, "random"),
            TopologyKind::Powerlaw => write!(f, "powerlaw"),
            TopologyKind::Zipf => write!(f, "zipf"),
        }
    }
}

/// Parameters of the reputation-lending protocol itself (§2–3).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LendingParams {
    /// `introAmt` — reputation the introducer stakes on a newcomer.
    pub intro_amt: f64,
    /// `rwd` — reward paid to the introducer when the audited
    /// newcomer turns out cooperative.
    pub reward: f64,
    /// `T` — waiting period (ticks) between an introduction request
    /// and the response.
    pub wait_period: u64,
    /// `auditTrans` — number of transactions the newcomer must
    /// complete before its score managers audit it.
    pub audit_trans: u32,
    /// Reputation the newcomer must hold at audit time for the
    /// verdict to be "satisfactory" (see DESIGN.md §4 — the paper
    /// says only *"deemed satisfactory based on its reputation
    /// value"*).
    pub audit_threshold: f64,
    /// Explicit `minIntro` override. When `None`, the derived default
    /// `2·introAmt` is used.
    pub min_intro_override: Option<f64>,
}

impl LendingParams {
    /// `minIntro` — minimum reputation an introducer must hold.
    ///
    /// Defaults to `2·introAmt` (0.2 at the Table-1 defaults): the
    /// paper's constraints are that it exceed `introAmt` (reputations
    /// must not go negative, §3) and that uncooperative peers (whose
    /// reputation settles well below `introAmt`) never reach it
    /// (§4.5), while cooperative newcomers must reach it quickly —
    /// Figure 6 shows ~98% admission when all entrants are
    /// cooperative.
    #[inline]
    pub fn min_intro(&self) -> f64 {
        self.min_intro_override.unwrap_or(2.0 * self.intro_amt)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.intro_amt) {
            return Err(ConfigError::OutOfRange {
                param: "intro_amt",
                value: self.intro_amt,
                expected: "[0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.reward) {
            return Err(ConfigError::OutOfRange {
                param: "reward",
                value: self.reward,
                expected: "[0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.audit_threshold) {
            return Err(ConfigError::OutOfRange {
                param: "audit_threshold",
                value: self.audit_threshold,
                expected: "[0, 1]",
            });
        }
        let min_intro = self.min_intro();
        if !(0.0..=1.0).contains(&min_intro) {
            return Err(ConfigError::OutOfRange {
                param: "min_intro",
                value: min_intro,
                expected: "[0, 1]",
            });
        }
        // §3: "By keeping minIntro greater than introAmt we also
        // prevent peer reputation value from going below zero."
        if min_intro <= self.intro_amt {
            return Err(ConfigError::Inconsistent {
                what: "min_intro must be strictly greater than intro_amt",
            });
        }
        if self.audit_trans == 0 {
            return Err(ConfigError::Inconsistent {
                what: "audit_trans must be at least 1",
            });
        }
        Ok(())
    }
}

impl Default for LendingParams {
    /// The Table-1 defaults.
    fn default() -> Self {
        LendingParams {
            intro_amt: 0.1,
            reward: 0.02,
            wait_period: 1000,
            audit_trans: 20,
            audit_threshold: 0.5,
            min_intro_override: None,
        }
    }
}

/// Population / workload parameters of a simulation run.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimParams {
    /// `numInit` — peers present (all cooperative) at time zero.
    pub num_init: usize,
    /// `numTrans` — simulation length in transaction ticks.
    pub num_trans: u64,
    /// `numSM` — score-manager replicas per peer.
    pub num_sm: usize,
    /// `λ` — Poisson arrival rate of new peers per tick.
    pub arrival_rate: f64,
    /// `f_u` — fraction of new entrants that are uncooperative.
    pub f_uncoop: f64,
    /// `f_n` — fraction of cooperative peers that are naive
    /// introducers (applies both to the initial population and to
    /// cooperative entrants; §4 preamble).
    pub f_naive: f64,
    /// `err_sel` — fraction of selective introductions of dishonest
    /// applicants that are (incorrectly) granted.
    pub err_sel: f64,
    /// Interaction topology.
    pub topology: TopologyKind,
}

impl SimParams {
    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.num_init == 0 {
            return Err(ConfigError::Inconsistent {
                what: "num_init must be at least 1",
            });
        }
        if self.num_sm == 0 {
            return Err(ConfigError::Inconsistent {
                what: "num_sm must be at least 1",
            });
        }
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(ConfigError::OutOfRange {
                param: "arrival_rate",
                value: self.arrival_rate,
                expected: "[0, ∞)",
            });
        }
        for (name, v) in [
            ("f_uncoop", self.f_uncoop),
            ("f_naive", self.f_naive),
            ("err_sel", self.err_sel),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::OutOfRange {
                    param: name,
                    value: v,
                    expected: "[0, 1]",
                });
            }
        }
        Ok(())
    }
}

impl Default for SimParams {
    /// The Table-1 defaults.
    fn default() -> Self {
        SimParams {
            num_init: 500,
            num_trans: 500_000,
            num_sm: 6,
            arrival_rate: 0.01,
            f_uncoop: 0.25,
            f_naive: 0.3,
            err_sel: 0.10,
            topology: TopologyKind::Powerlaw,
        }
    }
}

/// The complete Table-1 configuration: workload plus protocol.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Table1 {
    /// Population / workload parameters.
    pub sim: SimParams,
    /// Lending-protocol parameters.
    pub lending: LendingParams,
}

impl Table1 {
    /// The paper's defaults, exactly as printed in Table 1.
    pub fn paper_defaults() -> Self {
        Table1::default()
    }

    /// Builder-style update of the arrival rate `λ`.
    #[must_use]
    pub fn with_arrival_rate(mut self, lambda: f64) -> Self {
        self.sim.arrival_rate = lambda;
        self
    }

    /// Builder-style update of the run length `numTrans`.
    #[must_use]
    pub fn with_num_trans(mut self, n: u64) -> Self {
        self.sim.num_trans = n;
        self
    }

    /// Builder-style update of the topology.
    #[must_use]
    pub fn with_topology(mut self, t: TopologyKind) -> Self {
        self.sim.topology = t;
        self
    }

    /// Builder-style update of the uncooperative entrant fraction.
    #[must_use]
    pub fn with_f_uncoop(mut self, f: f64) -> Self {
        self.sim.f_uncoop = f;
        self
    }

    /// Builder-style update of the naive-introducer fraction.
    #[must_use]
    pub fn with_f_naive(mut self, f: f64) -> Self {
        self.sim.f_naive = f;
        self
    }

    /// Builder-style update of `introAmt` (leaves `rwd` untouched).
    #[must_use]
    pub fn with_intro_amt(mut self, amt: f64) -> Self {
        self.lending.intro_amt = amt;
        self
    }

    /// Builder-style update of `introAmt` that also re-derives
    /// `rwd = 0.2 · introAmt`, as §4.3 does for the Figure-4/5 sweep.
    #[must_use]
    pub fn with_intro_amt_scaled_reward(mut self, amt: f64) -> Self {
        self.lending.intro_amt = amt;
        self.lending.reward = 0.2 * amt;
        self
    }

    /// Builder-style update of the initial population size.
    #[must_use]
    pub fn with_num_init(mut self, n: usize) -> Self {
        self.sim.num_init = n;
        self
    }

    /// Builder-style update of the score-manager count.
    #[must_use]
    pub fn with_num_sm(mut self, n: usize) -> Self {
        self.sim.num_sm = n;
        self
    }

    /// Validates both halves of the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.sim.validate()?;
        self.lending.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = Table1::paper_defaults();
        assert_eq!(c.sim.num_init, 500);
        assert_eq!(c.sim.num_trans, 500_000);
        assert_eq!(c.sim.num_sm, 6);
        assert!((c.sim.arrival_rate - 0.01).abs() < 1e-12);
        assert!((c.sim.f_uncoop - 0.25).abs() < 1e-12);
        assert!((c.sim.f_naive - 0.3).abs() < 1e-12);
        assert!((c.sim.err_sel - 0.10).abs() < 1e-12);
        assert_eq!(c.sim.topology, TopologyKind::Powerlaw);
        assert_eq!(c.lending.wait_period, 1000);
        assert_eq!(c.lending.audit_trans, 20);
        assert!((c.lending.intro_amt - 0.1).abs() < 1e-12);
        assert!((c.lending.reward - 0.02).abs() < 1e-12);
    }

    #[test]
    fn defaults_validate() {
        Table1::paper_defaults().validate().unwrap();
    }

    #[test]
    fn default_min_intro_is_twice_intro_amt() {
        assert!((LendingParams::default().min_intro() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn min_intro_scales_with_large_intro_amt() {
        // At introAmt = 0.45 (top of the Figure-4 sweep): 0.9.
        let p = LendingParams {
            intro_amt: 0.45,
            ..LendingParams::default()
        };
        assert!((p.min_intro() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn min_intro_override_wins() {
        let p = LendingParams {
            min_intro_override: Some(0.7),
            ..LendingParams::default()
        };
        assert!((p.min_intro() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn min_intro_not_above_intro_amt_is_rejected() {
        let p = LendingParams {
            intro_amt: 0.4,
            min_intro_override: Some(0.3),
            ..LendingParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn scaled_reward_builder() {
        let c = Table1::paper_defaults().with_intro_amt_scaled_reward(0.25);
        assert!((c.lending.intro_amt - 0.25).abs() < 1e-12);
        assert!((c.lending.reward - 0.05).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_fractions() {
        assert!(Table1::paper_defaults()
            .with_f_uncoop(1.5)
            .validate()
            .is_err());
        assert!(Table1::paper_defaults()
            .with_f_naive(-0.1)
            .validate()
            .is_err());
        assert!(Table1::paper_defaults()
            .with_arrival_rate(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn rejects_zero_audit_trans() {
        let mut c = Table1::paper_defaults();
        c.lending.audit_trans = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_empty_population_or_no_sms() {
        assert!(Table1::paper_defaults()
            .with_num_init(0)
            .validate()
            .is_err());
        assert!(Table1::paper_defaults().with_num_sm(0).validate().is_err());
    }

    #[test]
    fn error_messages_render() {
        let err = Table1::paper_defaults()
            .with_f_uncoop(2.0)
            .validate()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("f_uncoop"), "got: {msg}");
    }

    #[test]
    fn table1_default_reward_is_20pct_of_intro_amt() {
        // Table 1's rwd = 0.02 is exactly 0.2 · introAmt (0.1) — the
        // relationship §4.3 makes explicit.
        let c = Table1::paper_defaults();
        assert!((c.lending.reward - 0.2 * c.lending.intro_amt).abs() < 1e-12);
    }
}
