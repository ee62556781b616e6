//! The shipped scenarios.
//!
//! Three of them (`collusion_legacy`, `whitewash_complaints` /
//! `whitewash_lending`, `file_sharing_open` / `file_sharing_lending`)
//! re-express the legacy hard-coded attack examples as data — their
//! cohort parameters are byte-for-byte the constants the old examples
//! used, so running them reproduces the old outputs exactly. The
//! rest showcase the adversary classes and fault kinds the legacy
//! examples could not express.
//!
//! Every builtin is encoded into `examples/scenarios/<name>.scn`
//! (regenerate with `replend scenario export <name>`), run at reduced
//! scale in CI, and golden-diffed against
//! `tests/golden/scenarios/<name>.csv`.

use crate::dsl::{AdversaryClass, ArrivalPhase, CohortSpec, FaultAction, FaultEvent, Scenario};
use replend_core::BootstrapPolicy;
use replend_types::Table1;
use std::path::PathBuf;

/// Names of all shipped scenarios, in listing order.
pub const BUILTIN_NAMES: [&str; 8] = [
    "collusion_legacy",
    "whitewash_complaints",
    "whitewash_lending",
    "file_sharing_open",
    "file_sharing_lending",
    "sybil_flood",
    "oscillating_milkers",
    "churn_storm",
];

/// The shipped scenario of the given name.
pub fn builtin(name: &str) -> Option<Scenario> {
    match name {
        "collusion_legacy" => Some(collusion_legacy()),
        "whitewash_complaints" => Some(whitewash(BootstrapPolicy::ComplaintsOnly)),
        "whitewash_lending" => Some(whitewash(BootstrapPolicy::ReputationLending)),
        "file_sharing_open" => Some(file_sharing(BootstrapPolicy::OpenAdmission {
            initial: 0.5,
        })),
        "file_sharing_lending" => Some(file_sharing(BootstrapPolicy::ReputationLending)),
        "sybil_flood" => Some(sybil_flood()),
        "oscillating_milkers" => Some(oscillating_milkers()),
        "churn_storm" => Some(churn_storm()),
        _ => None,
    }
}

/// All shipped scenarios, in listing order.
pub fn builtins() -> Vec<Scenario> {
    BUILTIN_NAMES
        .iter()
        .map(|n| builtin(n).expect("listed builtin exists"))
        .collect()
}

/// Where the shipped `.scn` files live
/// (`examples/scenarios/<name>.scn` at the workspace root).
pub(crate) fn shipped_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("examples")
        .join("scenarios")
}

/// Path of a shipped scenario file.
pub fn shipped_path(name: &str) -> PathBuf {
    shipped_dir().join(format!("{name}.scn"))
}

/// The legacy `collusion_attack` example as data: seed 99, a
/// 300-founder community with arrivals off, the mole through founder
/// 0, 40 000 honest ticks, twenty colluder waves 3 000 ticks apart,
/// then the duplicate-introduction probe.
fn collusion_legacy() -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.0)
        .with_num_trans(200_000);
    let mut scenario = Scenario::baseline("collusion_legacy", config, 99, 130_000);
    scenario.description =
        "the §1 collusion attack of the legacy collusion_attack example, as data".to_string();
    scenario.metrics_every = 5_000;
    scenario.cohorts = vec![CohortSpec {
        label: "ring".to_string(),
        class: AdversaryClass::CollusionRing {
            at_tick: 0,
            introducer: 0,
            honest_ticks: 40_000,
            waves: 20,
            wave_gap: 3_000,
            duplicate_probe: true,
        },
    }];
    scenario
}

/// The legacy `whitewashing` campaign as data: seed 1312, twenty
/// fresh freerider identities of 10 000 ticks each, founders rotated
/// with stride 7 under lending.
fn whitewash(policy: BootstrapPolicy) -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.0)
        .with_num_trans(u64::MAX / 2);
    let name = match policy {
        BootstrapPolicy::ReputationLending => "whitewash_lending",
        _ => "whitewash_complaints",
    };
    let mut scenario = Scenario::baseline(name, config, 1312, 230_000);
    scenario.description =
        "the serial whitewasher of the legacy whitewashing example, as data".to_string();
    scenario.metrics_every = 5_000;
    scenario.policy = policy;
    scenario.cohorts = vec![CohortSpec {
        label: "whitewasher".to_string(),
        class: AdversaryClass::Whitewash {
            at_tick: 0,
            waves: 20,
            life: 10_000,
            introducer_stride: 7,
            depart_between_waves: false,
        },
    }];
    scenario
}

/// The legacy `file_sharing` swarm as data: seed 777, λ = 0.05, half
/// of all newcomers freeriders, 60 000 ticks — no scripted cohorts,
/// the pressure comes from the arrival mix itself.
fn file_sharing(policy: BootstrapPolicy) -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.05)
        .with_f_uncoop(0.5)
        .with_num_trans(60_000);
    let name = match policy {
        BootstrapPolicy::ReputationLending => "file_sharing_lending",
        _ => "file_sharing_open",
    };
    let mut scenario = Scenario::baseline(name, config, 777, 60_000);
    scenario.description =
        "the legacy file-sharing swarm under freerider pressure, as data".to_string();
    scenario.metrics_every = 5_000;
    scenario.policy = policy;
    scenario
}

/// A sybil flood against a lending community: 150 freerider
/// identities injected at 10 per tick into a 300-founder community.
fn sybil_flood() -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.01)
        .with_num_trans(30_000);
    let mut scenario = Scenario::baseline("sybil_flood", config, 4242, 30_000);
    scenario.description =
        "150 sybil identities burst-injected at tick 5000, 10 per tick".to_string();
    scenario.metrics_every = 1_000;
    scenario.cohorts = vec![CohortSpec {
        label: "sybils".to_string(),
        class: AdversaryClass::SybilFlood {
            at_tick: 5_000,
            size: 150,
            per_tick: 10,
        },
    }];
    scenario
}

/// Oscillating and milking adversaries side by side: one cohort
/// flips behaviour every 4 000 ticks, the other builds reputation
/// for 10 000 ticks and then defects for good.
fn oscillating_milkers() -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.01)
        .with_num_trans(30_000);
    let mut scenario = Scenario::baseline("oscillating_milkers", config, 2718, 30_000);
    scenario.description =
        "an oscillator cohort (flip every 4000 ticks) next to a reputation-milking cohort"
            .to_string();
    scenario.metrics_every = 1_000;
    scenario.cohorts = vec![
        CohortSpec {
            label: "oscillators".to_string(),
            class: AdversaryClass::Oscillator {
                at_tick: 2_000,
                size: 20,
                period: 4_000,
                flips: 4,
            },
        },
        CohortSpec {
            label: "milkers".to_string(),
            class: AdversaryClass::Milker {
                at_tick: 2_000,
                size: 20,
                milk_after: 10_000,
            },
        },
    ];
    scenario
}

/// The kitchen sink: steady background churn, an arrival-curve step,
/// a freerider drip, a 30% crash storm, a three-way partition that
/// later heals, and a scheduled behaviour flip of the freerider
/// cohort — every fault kind in one run.
fn churn_storm() -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(300)
        .with_arrival_rate(0.02)
        .with_num_trans(30_000);
    let mut scenario = Scenario::baseline("churn_storm", config, 1618, 30_000);
    scenario.description =
        "churn storm: kill 30% at 8000, partition 3-way at 12000, heal at 18000, flip cohort at 20000"
            .to_string();
    scenario.metrics_every = 1_000;
    scenario.departure_rate = 0.002;
    scenario.arrival_curve = vec![
        ArrivalPhase {
            at_tick: 10_000,
            rate: 0.05,
        },
        ArrivalPhase {
            at_tick: 20_000,
            rate: 0.01,
        },
    ];
    scenario.cohorts = vec![CohortSpec {
        label: "freeriders".to_string(),
        class: AdversaryClass::Freeriders {
            at_tick: 1_000,
            size: 30,
            every: 50,
        },
    }];
    scenario.faults = vec![
        FaultEvent {
            at_tick: 8_000,
            action: FaultAction::KillFraction { fraction: 0.3 },
        },
        FaultEvent {
            at_tick: 12_000,
            action: FaultAction::Partition { groups: 3 },
        },
        FaultEvent {
            at_tick: 18_000,
            action: FaultAction::Heal,
        },
        FaultEvent {
            at_tick: 20_000,
            action: FaultAction::FlipCohort { cohort: 0 },
        },
    ];
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_validate() {
        for scenario in builtins() {
            scenario.validate().unwrap_or_else(|e| {
                panic!("builtin {} failed validation: {e}", scenario.name);
            });
        }
    }

    #[test]
    fn builtin_names_match_scenario_names() {
        for name in BUILTIN_NAMES {
            assert_eq!(builtin(name).unwrap().name, name);
        }
        assert!(builtin("no_such_scenario").is_none());
    }

    #[test]
    fn legacy_builtins_carry_the_legacy_constants() {
        // The parity tests pin path equivalence at reduced scale;
        // this pins that the shipped files run the *full-scale*
        // legacy scripts.
        let collusion = builtin("collusion_legacy").unwrap();
        assert_eq!(collusion.seed, 99);
        assert_eq!(
            collusion.cohorts[0].class,
            AdversaryClass::CollusionRing {
                at_tick: 0,
                introducer: 0,
                honest_ticks: 40_000,
                waves: 20,
                wave_gap: 3_000,
                duplicate_probe: true,
            }
        );
        let white = builtin("whitewash_lending").unwrap();
        assert_eq!(white.seed, 1312);
        assert_eq!(
            white.cohorts[0].class,
            AdversaryClass::Whitewash {
                at_tick: 0,
                waves: 20,
                life: 10_000,
                introducer_stride: 7,
                depart_between_waves: false,
            }
        );
        let swarm = builtin("file_sharing_open").unwrap();
        assert_eq!(swarm.seed, 777);
        assert_eq!(swarm.horizon, 60_000);
        assert_eq!(swarm.config.sim.f_uncoop, 0.5);
    }
}
