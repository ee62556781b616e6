//! The scenario vocabulary: serde types describing an attack
//! scenario — who arrives, who misbehaves, and what breaks when.
//!
//! A [`Scenario`] composes a base community configuration with an
//! arrival curve, a set of adversary **cohorts** (each an instance of
//! an [`AdversaryClass`]) and a **fault schedule** ([`FaultEvent`]s
//! firing at absolute ticks). Everything is plain data: scenarios
//! encode to versioned `.scn` files over `replend-wire` (see
//! [`crate::file`]) and drive a community through the deterministic
//! [`crate::ScenarioRunner`].
//!
//! Validation is strict and named: every way a scenario can be
//! malformed maps to a distinct [`ScenarioError`] variant so the CLI
//! can reject bad files at parse time instead of panicking mid-run.

use replend_core::serve::StatusPolicy;
use replend_core::BootstrapPolicy;
use replend_types::{ConfigError, Table1};
use replend_wire::WireError;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A step of the arrival curve: from `at_tick` on, newcomers arrive
/// at Poisson rate `rate` (replacing the configured λ).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrivalPhase {
    /// Tick at which the new rate takes effect.
    pub at_tick: u64,
    /// The new Poisson arrival rate per tick.
    pub rate: f64,
}

/// One adversary cohort: a named instance of an adversary class. The
/// runner tracks every identity the cohort ever assumes — across
/// whitewashing rejoins and behaviour flips — so the metrics can
/// tell honest from adversarial peers even after identity changes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Cohort label, used in observations and reports.
    pub label: String,
    /// What the cohort does.
    pub class: AdversaryClass,
}

/// The adversary models expressible in the DSL.
///
/// Each variant compiles to a deterministic per-tick script inside
/// the runner; the scripts reproduce the legacy attack examples
/// bit-for-bit when given the legacy parameters (see
/// `crate::builtins`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AdversaryClass {
    /// §1's collusion attack: a mole joins through founder
    /// `introducer`, behaves honestly for `honest_ticks`, then
    /// vouches uncooperative friends in up to `waves` waves spaced
    /// `wave_gap` audit ticks apart, until its reputation falls below
    /// `minIntro`. With `duplicate_probe`, an admitted colluder then
    /// runs the §2 duplicate-introduction attack through founders
    /// `introducer + 1` and `introducer + 2`.
    CollusionRing {
        /// Tick of the mole's introduction request.
        at_tick: u64,
        /// Founder index vouching for the mole.
        introducer: u64,
        /// Honest-participation ticks before the first wave.
        honest_ticks: u64,
        /// Maximum colluder waves.
        waves: u32,
        /// Ticks between waves (audit settlement time).
        wave_gap: u64,
        /// Run the duplicate-introduction probe afterwards.
        duplicate_probe: bool,
    },
    /// §1's whitewashing attack: one attacker cycling through fresh
    /// uncooperative identities, each living `life` ticks. Under
    /// reputation lending each identity asks founder
    /// `(wave * introducer_stride) % numInit` for an introduction;
    /// under immediate-admission policies it just joins. With
    /// `depart_between_waves`, the old identity *leaves* before the
    /// next one arrives (the literal depart-and-rejoin exploit).
    Whitewash {
        /// Tick of the first identity's arrival.
        at_tick: u64,
        /// Fresh identities to cycle through.
        waves: u32,
        /// Ticks each identity lives before being discarded.
        life: u64,
        /// Founder-rotation stride for introduction requests.
        introducer_stride: u64,
        /// Explicitly depart each identity at end of life.
        depart_between_waves: bool,
    },
    /// A burst of uncooperative identities: starting at `at_tick`,
    /// `per_tick` arrivals per tick until `size` have been injected.
    SybilFlood {
        /// First arrival tick.
        at_tick: u64,
        /// Total sybil identities.
        size: u32,
        /// Arrival attempts per tick.
        per_tick: u32,
    },
    /// Oscillating behaviour: `size` cooperative-looking peers join
    /// at `at_tick`, then the whole cohort flips behaviour every
    /// `period` ticks, `flips` times (0 = keep flipping forever).
    Oscillator {
        /// Arrival tick of the cohort.
        at_tick: u64,
        /// Cohort size.
        size: u32,
        /// Ticks between behaviour flips.
        period: u64,
        /// Number of flips; 0 means unbounded.
        flips: u32,
    },
    /// Reputation milking: `size` peers join cooperative at
    /// `at_tick`, build reputation for `milk_after` ticks, then flip
    /// uncooperative for good and spend what they earned.
    Milker {
        /// Arrival tick of the cohort.
        at_tick: u64,
        /// Cohort size.
        size: u32,
        /// Honest ticks before the flip.
        milk_after: u64,
    },
    /// Plain freeriders: `size` uncooperative arrivals, one every
    /// `every` ticks starting at `at_tick` — background pressure for
    /// composing with other cohorts and faults.
    Freeriders {
        /// First arrival tick.
        at_tick: u64,
        /// Total freerider identities.
        size: u32,
        /// Ticks between arrivals.
        every: u64,
    },
}

impl AdversaryClass {
    /// Stable lowercase name of the class (CLI listings, docs).
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryClass::CollusionRing { .. } => "collusion-ring",
            AdversaryClass::Whitewash { .. } => "whitewash",
            AdversaryClass::SybilFlood { .. } => "sybil-flood",
            AdversaryClass::Oscillator { .. } => "oscillator",
            AdversaryClass::Milker { .. } => "milker",
            AdversaryClass::Freeriders { .. } => "freeriders",
        }
    }

    /// The tick at which the cohort first acts.
    pub(crate) fn start_tick(&self) -> u64 {
        match *self {
            AdversaryClass::CollusionRing { at_tick, .. }
            | AdversaryClass::Whitewash { at_tick, .. }
            | AdversaryClass::SybilFlood { at_tick, .. }
            | AdversaryClass::Oscillator { at_tick, .. }
            | AdversaryClass::Milker { at_tick, .. }
            | AdversaryClass::Freeriders { at_tick, .. } => at_tick,
        }
    }
}

/// A scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute tick at which the fault fires (must be `< horizon`).
    pub at_tick: u64,
    /// What happens.
    pub action: FaultAction,
}

/// The fault vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Crash-storm: `fraction` of the current members (rounded down,
    /// spread evenly over the member index) depart at once.
    KillFraction {
        /// Fraction of members to kill, in `[0, 1]`.
        fraction: f64,
    },
    /// Splits the topology into `groups` components (peer `p` lands
    /// in component `p mod groups`); cross-component transactions are
    /// dropped until healed.
    Partition {
        /// Number of components (≥ 2).
        groups: u32,
    },
    /// Heals any active partition.
    Heal,
    /// Flips the behaviour of every current member identity of
    /// cohort `cohort` (index into [`Scenario::cohorts`]).
    FlipCohort {
        /// Cohort index.
        cohort: u32,
    },
    /// Re-rates the Poisson arrival process (an arrival-curve step
    /// expressed as a fault; [`Scenario::arrival_curve`] is sugar for
    /// a sequence of these).
    SetArrivalRate {
        /// New arrival rate per tick.
        rate: f64,
    },
}

impl FaultAction {
    /// Stable lowercase name of the action (errors, docs).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultAction::KillFraction { .. } => "kill-fraction",
            FaultAction::Partition { .. } => "partition",
            FaultAction::Heal => "heal",
            FaultAction::FlipCohort { .. } => "flip-cohort",
            FaultAction::SetArrivalRate { .. } => "set-arrival-rate",
        }
    }
}

/// A complete scenario: base configuration, adversaries, faults.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (also names the metrics CSV).
    pub name: String,
    /// One-line description for `replend scenario list`.
    pub description: String,
    /// Community RNG seed — equal seeds give byte-identical runs.
    pub seed: u64,
    /// Ticks to simulate.
    pub horizon: u64,
    /// Metrics-sampling interval in ticks.
    pub metrics_every: u64,
    /// The Table-1 configuration of the base community.
    pub config: Table1,
    /// Bootstrap policy of the base community.
    pub policy: BootstrapPolicy,
    /// Status tiers used for the metrics census.
    pub status: StatusPolicy,
    /// Poisson departure rate (steady background churn).
    pub departure_rate: f64,
    /// Arrival-rate steps applied on top of the configured λ.
    pub arrival_curve: Vec<ArrivalPhase>,
    /// Adversary cohorts.
    pub cohorts: Vec<CohortSpec>,
    /// Scheduled faults.
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// A minimal valid scenario around `config`: no adversaries, no
    /// faults, paper status tiers, sampling every 1 000 ticks.
    pub fn baseline(name: &str, config: Table1, seed: u64, horizon: u64) -> Self {
        Scenario {
            name: name.to_string(),
            description: String::new(),
            seed,
            horizon,
            metrics_every: 1_000,
            config,
            policy: BootstrapPolicy::ReputationLending,
            status: StatusPolicy::default(),
            departure_rate: 0.0,
            arrival_curve: Vec::new(),
            cohorts: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Validates the scenario, naming the first problem found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        if self.horizon == 0 {
            return Err(ScenarioError::ZeroHorizon);
        }
        if self.metrics_every == 0 {
            return Err(ScenarioError::ZeroMetricsEvery);
        }
        self.config.validate().map_err(ScenarioError::Config)?;
        self.status.validate().map_err(ScenarioError::Status)?;
        check_rate("departure_rate", self.departure_rate)?;
        match self.policy {
            BootstrapPolicy::OpenAdmission { initial } => {
                check_fraction("policy.initial", initial)?;
            }
            BootstrapPolicy::FixedCredit { credit } => {
                check_fraction("policy.credit", credit)?;
            }
            _ => {}
        }
        for phase in &self.arrival_curve {
            check_rate("arrival_curve.rate", phase.rate)?;
            if phase.at_tick >= self.horizon {
                return Err(ScenarioError::FaultPastHorizon {
                    what: "arrival_curve",
                    at_tick: phase.at_tick,
                    horizon: self.horizon,
                });
            }
        }
        for cohort in &self.cohorts {
            cohort_checks(cohort, self.horizon)?;
        }
        for (index, fault) in self.faults.iter().enumerate() {
            if fault.at_tick >= self.horizon {
                return Err(ScenarioError::FaultPastHorizon {
                    what: fault.action.name(),
                    at_tick: fault.at_tick,
                    horizon: self.horizon,
                });
            }
            match fault.action {
                FaultAction::KillFraction { fraction } => {
                    check_fraction("kill-fraction", fraction)?;
                }
                FaultAction::Partition { groups } => {
                    if groups < 2 {
                        return Err(ScenarioError::PartitionGroups { index, groups });
                    }
                }
                FaultAction::FlipCohort { cohort } => {
                    if cohort as usize >= self.cohorts.len() {
                        return Err(ScenarioError::UnknownCohort {
                            index,
                            cohort,
                            cohorts: self.cohorts.len(),
                        });
                    }
                }
                FaultAction::SetArrivalRate { rate } => {
                    check_rate("set-arrival-rate", rate)?;
                }
                FaultAction::Heal => {}
            }
        }
        Ok(())
    }
}

fn check_fraction(what: &'static str, value: f64) -> Result<(), ScenarioError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(ScenarioError::FractionOutOfRange { what, value });
    }
    Ok(())
}

fn check_rate(what: &'static str, value: f64) -> Result<(), ScenarioError> {
    if !value.is_finite() || value < 0.0 {
        return Err(ScenarioError::NegativeRate { what, value });
    }
    Ok(())
}

fn zero_check(cohort: &str, field: &'static str, value: u64) -> Result<(), ScenarioError> {
    if value == 0 {
        return Err(ScenarioError::ZeroField {
            cohort: cohort.to_string(),
            field,
        });
    }
    Ok(())
}

fn cohort_checks(cohort: &CohortSpec, horizon: u64) -> Result<(), ScenarioError> {
    let start = cohort.class.start_tick();
    if start >= horizon {
        return Err(ScenarioError::CohortPastHorizon {
            cohort: cohort.label.clone(),
            at_tick: start,
            horizon,
        });
    }
    let label = cohort.label.as_str();
    match cohort.class {
        AdversaryClass::CollusionRing {
            waves, wave_gap, ..
        } => {
            zero_check(label, "waves", waves as u64)?;
            zero_check(label, "wave_gap", wave_gap)?;
        }
        AdversaryClass::Whitewash { waves, life, .. } => {
            zero_check(label, "waves", waves as u64)?;
            zero_check(label, "life", life)?;
        }
        AdversaryClass::SybilFlood { size, per_tick, .. } => {
            zero_check(label, "size", size as u64)?;
            zero_check(label, "per_tick", per_tick as u64)?;
        }
        AdversaryClass::Oscillator { size, period, .. } => {
            zero_check(label, "size", size as u64)?;
            zero_check(label, "period", period)?;
        }
        AdversaryClass::Milker {
            size, milk_after, ..
        } => {
            zero_check(label, "size", size as u64)?;
            zero_check(label, "milk_after", milk_after)?;
        }
        AdversaryClass::Freeriders { size, every, .. } => {
            zero_check(label, "size", size as u64)?;
            zero_check(label, "every", every)?;
        }
    }
    Ok(())
}

/// A malformed scenario, rejected at parse time. Every variant names
/// the offending field so the CLI's `UsageError`s stay actionable.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The bytes were not a decodable scenario file (bad magic,
    /// version mismatch, truncation, or an unknown adversary class /
    /// fault kind reported by the wire decoder).
    Wire(WireError),
    /// The scenario name is empty.
    EmptyName,
    /// A zero-tick horizon.
    ZeroHorizon,
    /// A zero metrics-sampling interval.
    ZeroMetricsEvery,
    /// The embedded Table-1 configuration failed validation.
    Config(ConfigError),
    /// The embedded status policy failed validation.
    Status(String),
    /// A fraction parameter fell outside `[0, 1]`.
    FractionOutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A rate parameter was negative or not finite.
    NegativeRate {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A cohort parameter that must be positive was zero.
    ZeroField {
        /// The cohort's label.
        cohort: String,
        /// Which field.
        field: &'static str,
    },
    /// A cohort starts at or past the horizon.
    CohortPastHorizon {
        /// The cohort's label.
        cohort: String,
        /// Its start tick.
        at_tick: u64,
        /// The scenario horizon.
        horizon: u64,
    },
    /// A fault (or arrival-curve step) is scheduled at or past the
    /// horizon and could never fire.
    FaultPastHorizon {
        /// The fault kind.
        what: &'static str,
        /// Its scheduled tick.
        at_tick: u64,
        /// The scenario horizon.
        horizon: u64,
    },
    /// A partition fault with fewer than two groups.
    PartitionGroups {
        /// Index into the fault schedule.
        index: usize,
        /// The offending group count.
        groups: u32,
    },
    /// A flip-cohort fault referencing a cohort that does not exist.
    UnknownCohort {
        /// Index into the fault schedule.
        index: usize,
        /// The referenced cohort index.
        cohort: u32,
        /// How many cohorts the scenario has.
        cohorts: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Wire(e) => write!(f, "undecodable scenario: {e}"),
            ScenarioError::EmptyName => write!(f, "scenario name must not be empty"),
            ScenarioError::ZeroHorizon => write!(f, "horizon must be at least 1 tick"),
            ScenarioError::ZeroMetricsEvery => write!(f, "metrics_every must be at least 1 tick"),
            ScenarioError::Config(e) => write!(f, "invalid community configuration: {e}"),
            ScenarioError::Status(msg) => write!(f, "invalid status policy: {msg}"),
            ScenarioError::FractionOutOfRange { what, value } => {
                write!(f, "{what} must lie in [0, 1], got {value}")
            }
            ScenarioError::NegativeRate { what, value } => {
                write!(f, "{what} must be a finite non-negative rate, got {value}")
            }
            ScenarioError::ZeroField { cohort, field } => {
                write!(f, "cohort {cohort:?}: {field} must be at least 1")
            }
            ScenarioError::CohortPastHorizon {
                cohort,
                at_tick,
                horizon,
            } => write!(
                f,
                "cohort {cohort:?} starts at tick {at_tick}, at or past the horizon {horizon}"
            ),
            ScenarioError::FaultPastHorizon {
                what,
                at_tick,
                horizon,
            } => write!(
                f,
                "{what} scheduled at tick {at_tick}, at or past the horizon {horizon}"
            ),
            ScenarioError::PartitionGroups { index, groups } => write!(
                f,
                "fault #{index}: a partition needs at least 2 groups, got {groups}"
            ),
            ScenarioError::UnknownCohort {
                index,
                cohort,
                cohorts,
            } => write!(
                f,
                "fault #{index}: unknown cohort {cohort} (scenario has {cohorts})"
            ),
        }
    }
}

impl Error for ScenarioError {}

impl From<WireError> for ScenarioError {
    fn from(e: WireError) -> Self {
        ScenarioError::Wire(e)
    }
}
