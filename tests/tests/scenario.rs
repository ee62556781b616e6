//! The scenario subsystem's integration suite.
//!
//! Three pillars:
//!
//! 1. **Legacy parity** — the `CollusionRing` / `Whitewash` cohort
//!    scripts and the bare-swarm scenario perform exactly the
//!    community calls of the old hard-coded attack examples, pinned
//!    by replaying the legacy code paths inline (at reduced scale)
//!    and byte-diffing the rendered reports.
//! 2. **Determinism** — equal scenarios give byte-identical metrics
//!    CSVs, including under proptest-generated random well-formed
//!    scenarios.
//! 3. **Shipped files** — every `.scn` under `examples/scenarios/`
//!    decodes to its builtin definition and re-encodes to the exact
//!    bytes on disk.

use proptest::prelude::*;
use replend_core::community::CommunityBuilder;
use replend_core::peer::PeerStatus;
use replend_core::BootstrapPolicy;
use replend_scenario::{
    builtin, builtins, report, AdversaryClass, ArrivalPhase, CohortSpec, FaultAction, FaultEvent,
    RunOptions, Scenario, ScenarioRunner, BUILTIN_NAMES,
};
use replend_types::{IntroducerPolicy, PeerId, PeerProfile, Reputation, Table1};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Legacy parity
// ---------------------------------------------------------------------------

/// The legacy collusion_attack example body, verbatim except for the
/// scale parameters and printing into a string.
fn legacy_collusion(
    num_init: usize,
    seed: u64,
    honest_ticks: u64,
    waves: u32,
    wave_gap: u64,
) -> String {
    let mut out = String::new();
    let config = Table1::paper_defaults()
        .with_num_init(num_init)
        .with_arrival_rate(0.0)
        .with_num_trans(200_000);
    let mut community = CommunityBuilder::new(config).seed(seed).build();
    let wait = community.config().lending.wait_period;

    let mole = community
        .arrival_with_chosen_introducer(
            PeerProfile::cooperative(IntroducerPolicy::Naive),
            PeerId(0),
        )
        .expect("founder 0 is a member");
    community.run(wait + 1);
    assert!(community.peer(mole).unwrap().status.is_member());
    writeln!(
        out,
        "mole admitted with reputation {:.3}",
        community.reputation(mole).unwrap().value()
    )
    .unwrap();

    community.run(honest_ticks);
    let mole_rep = community.reputation(mole).unwrap();
    writeln!(
        out,
        "after honest phase, mole reputation = {:.3}",
        mole_rep.value()
    )
    .unwrap();

    let min_intro = community.config().lending.min_intro();
    let mut admitted = 0usize;
    let mut refused = 0usize;
    for wave in 0..waves {
        match community.arrival_with_chosen_introducer(PeerProfile::uncooperative(), mole) {
            Ok(friend) => {
                community.run(wait + 1);
                match community.peer(friend).unwrap().status {
                    PeerStatus::Member => admitted += 1,
                    _ => refused += 1,
                }
            }
            Err(_) => refused += 1,
        }
        community.run(wave_gap);
        let rep = community.reputation(mole).unwrap().value();
        if rep < min_intro {
            writeln!(
                out,
                "wave {:>2}: mole reputation {:.3} fell below minIntro = {:.2} — vouching power gone",
                wave + 1,
                rep,
                min_intro
            )
            .unwrap();
            break;
        }
    }
    writeln!(
        out,
        "colluders admitted: {admitted}, refused: {refused}; mole reputation now {:.3}",
        community.reputation(mole).unwrap().value()
    )
    .unwrap();
    writeln!(
        out,
        "each failed audit burned introAmt = {}; the attack is self-limiting\n",
        community.config().lending.intro_amt
    )
    .unwrap();

    let greedy = community
        .arrival_with_chosen_introducer(
            PeerProfile::cooperative(IntroducerPolicy::Naive),
            PeerId(1),
        )
        .expect("founder 1 is a member");
    community.run(wait + 1);
    assert!(community.peer(greedy).unwrap().status.is_member());
    community
        .solicit_duplicate_introduction(greedy, PeerId(2))
        .expect("both are members");
    community.run(wait + 1);
    assert_eq!(community.peer(greedy).unwrap().status, PeerStatus::Flagged);
    assert_eq!(community.reputation(greedy), Some(Reputation::ZERO));
    writeln!(
        out,
        "duplicate-introduction attack: peer {greedy:?} flagged malicious, reputation zeroed"
    )
    .unwrap();
    out
}

fn scaled_collusion_scenario(
    num_init: usize,
    seed: u64,
    honest_ticks: u64,
    waves: u32,
    wave_gap: u64,
) -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(num_init)
        .with_arrival_rate(0.0)
        .with_num_trans(200_000);
    let horizon = 1_001 + honest_ticks + waves as u64 * (1_001 + wave_gap) + 3_000;
    let mut scenario = Scenario::baseline("collusion_scaled", config, seed, horizon);
    scenario.metrics_every = horizon;
    scenario.cohorts = vec![CohortSpec {
        label: "ring".to_string(),
        class: AdversaryClass::CollusionRing {
            at_tick: 0,
            introducer: 0,
            honest_ticks,
            waves,
            wave_gap,
            duplicate_probe: true,
        },
    }];
    scenario
}

#[test]
fn collusion_scenario_reproduces_legacy_output() {
    let (num_init, seed, honest, waves, gap) = (150, 99, 6_000, 6, 1_500);
    let legacy = legacy_collusion(num_init, seed, honest, waves, gap);
    let scenario = scaled_collusion_scenario(num_init, seed, honest, waves, gap);
    let outcome = ScenarioRunner::new(scenario.clone()).unwrap().run();
    let report = report::collusion_report(&scenario, &outcome);
    assert_eq!(legacy, report, "scenario path diverged from legacy path");
}

/// The legacy whitewashing campaign, verbatim at reduced scale.
fn legacy_whitewash_campaign(
    policy: BootstrapPolicy,
    num_init: usize,
    seed: u64,
    waves: usize,
    life: u64,
) -> (usize, f64) {
    let config = Table1::paper_defaults()
        .with_num_init(num_init)
        .with_arrival_rate(0.0)
        .with_num_trans(u64::MAX / 2);
    let mut community = CommunityBuilder::new(config)
        .policy(policy)
        .seed(seed)
        .build();
    let wait = community.config().lending.wait_period;

    let mut admitted = 0usize;
    let mut rep_sum = 0.0;
    let mut rep_n = 0usize;
    for wave in 0..waves {
        let identity = match policy {
            BootstrapPolicy::ReputationLending => {
                let introducer = PeerId((wave as u64 * 7) % num_init as u64);
                match community
                    .arrival_with_chosen_introducer(PeerProfile::uncooperative(), introducer)
                {
                    Ok(id) => {
                        community.run(wait + 1);
                        id
                    }
                    Err(_) => continue,
                }
            }
            _ => community.arrival_with_profile(PeerProfile::uncooperative()),
        };
        if community.peer(identity).unwrap().status == PeerStatus::Member {
            admitted += 1;
            community.run(life);
            if let Some(r) = community.reputation(identity) {
                rep_sum += r.value();
                rep_n += 1;
            }
        }
    }
    (
        admitted,
        if rep_n > 0 {
            rep_sum / rep_n as f64
        } else {
            0.0
        },
    )
}

fn scaled_whitewash_scenario(
    policy: BootstrapPolicy,
    num_init: usize,
    seed: u64,
    waves: u32,
    life: u64,
) -> Scenario {
    let config = Table1::paper_defaults()
        .with_num_init(num_init)
        .with_arrival_rate(0.0)
        .with_num_trans(u64::MAX / 2);
    let horizon = waves as u64 * (1_001 + life) + 1_000;
    let mut scenario = Scenario::baseline("whitewash_scaled", config, seed, horizon);
    scenario.metrics_every = horizon;
    scenario.policy = policy;
    scenario.cohorts = vec![CohortSpec {
        label: "whitewasher".to_string(),
        class: AdversaryClass::Whitewash {
            at_tick: 0,
            waves,
            life,
            introducer_stride: 7,
            depart_between_waves: false,
        },
    }];
    scenario
}

#[test]
fn whitewash_scenario_reproduces_legacy_campaigns() {
    let (num_init, seed, waves, life) = (150, 1312, 5u32, 1_500u64);
    for policy in [
        BootstrapPolicy::ComplaintsOnly,
        BootstrapPolicy::ReputationLending,
    ] {
        let legacy = legacy_whitewash_campaign(policy, num_init, seed, waves as usize, life);
        let scenario = scaled_whitewash_scenario(policy, num_init, seed, waves, life);
        let outcome = ScenarioRunner::new(scenario.clone()).unwrap().run();
        let summary = report::campaign_summary(&scenario, &outcome);
        assert_eq!(
            legacy, summary,
            "whitewash campaign diverged under {policy:?}"
        );
    }
}

/// The legacy file_sharing swarm section, verbatim at reduced scale.
fn legacy_file_sharing(policy: BootstrapPolicy, label: &str, ticks: u64) -> String {
    let config = Table1::paper_defaults()
        .with_num_init(150)
        .with_arrival_rate(0.05)
        .with_f_uncoop(0.5)
        .with_num_trans(ticks);
    let mut swarm = CommunityBuilder::new(config)
        .policy(policy)
        .seed(777)
        .build();
    swarm.run(ticks);

    let stats = swarm.stats();
    let pop = swarm.population();
    let leech_share = pop.uncooperative as f64 / pop.members.max(1) as f64;
    let mut out = String::new();
    writeln!(out, "--- {label} ---").unwrap();
    writeln!(
        out,
        "  swarm size {:>5}   seeders {:>5}   leechers {:>5}   leecher share {:>5.1}%",
        pop.members,
        pop.cooperative,
        pop.uncooperative,
        leech_share * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  correct serve/deny decisions by honest peers: {:.2}%",
        stats.success_rate().unwrap_or(0.0) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  freeriders admitted: {} of {} that tried",
        stats.admitted_uncooperative, stats.arrived_uncooperative
    )
    .unwrap();
    writeln!(
        out,
        "  honest peers admitted: {} of {} that tried\n",
        stats.admitted_cooperative, stats.arrived_cooperative
    )
    .unwrap();
    out
}

#[test]
fn file_sharing_scenario_reproduces_legacy_swarm() {
    let ticks = 12_000u64;
    for (policy, label) in [
        (
            BootstrapPolicy::OpenAdmission { initial: 0.5 },
            "open swarm (no introductions — everyone joins)",
        ),
        (
            BootstrapPolicy::ReputationLending,
            "introduction-gated swarm (reputation lending)",
        ),
    ] {
        let legacy = legacy_file_sharing(policy, label, ticks);
        let config = Table1::paper_defaults()
            .with_num_init(150)
            .with_arrival_rate(0.05)
            .with_f_uncoop(0.5)
            .with_num_trans(ticks);
        let mut scenario = Scenario::baseline("swarm_scaled", config, 777, ticks);
        scenario.metrics_every = ticks;
        scenario.policy = policy;
        let outcome = ScenarioRunner::new(scenario).unwrap().run();
        let report = report::file_sharing_report(label, &outcome);
        assert_eq!(legacy, report, "swarm diverged under {policy:?}");
    }
}

// ---------------------------------------------------------------------------
// Shipped files
// ---------------------------------------------------------------------------

#[test]
fn shipped_files_match_builtins_and_reencode_identically() {
    for name in BUILTIN_NAMES {
        let path = replend_scenario::shipped_path(name);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing shipped scenario {}: {e}", path.display()));
        let decoded = replend_scenario::decode_scenario(&bytes)
            .unwrap_or_else(|e| panic!("shipped scenario {name} undecodable: {e}"));
        let expected = builtin(name).unwrap();
        assert_eq!(decoded, expected, "shipped {name} drifted from builtin");
        let reencoded = replend_scenario::encode_scenario(&decoded).unwrap();
        assert_eq!(reencoded, bytes, "shipped {name} bytes not canonical");
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

fn run_csv(scenario: &Scenario, ticks: u64) -> String {
    let options = RunOptions {
        max_ticks: Some(ticks),
        sample_every: Some((ticks / 4).max(1)),
    };
    ScenarioRunner::new(scenario.clone())
        .unwrap()
        .run_with(options)
        .to_csv()
}

#[test]
fn builtins_are_seed_deterministic() {
    for scenario in builtins() {
        let ticks = 600u64;
        let base = run_csv(&scenario, ticks);
        let again = run_csv(&scenario, ticks);
        assert_eq!(base, again, "{} not deterministic", scenario.name);
    }
}

#[test]
fn faults_actually_fire() {
    // The kitchen-sink builtin at a scale where every fault has
    // fired: members drop at the kill, the partition blocks
    // transactions, and the cohort flip converts freeriders.
    let mut scenario = builtin("churn_storm").unwrap();
    scenario.horizon = 22_000; // all faults fire by tick 20 000
    let outcome = ScenarioRunner::new(scenario).unwrap().run();
    assert!(
        outcome.partition_blocked > 0,
        "partition never blocked a transaction"
    );
    let kills = outcome
        .observations
        .iter()
        .filter_map(|o| match o.event {
            replend_scenario::CohortEvent::FaultApplied {
                action: FaultAction::KillFraction { .. },
                affected,
            } => Some(affected),
            _ => None,
        })
        .sum::<u32>();
    assert!(kills > 50, "kill fault removed only {kills} members");
    assert!(
        outcome.final_stats.departures as u32 >= kills,
        "departure accounting missed the storm"
    );
    let flipped = outcome.observations.iter().any(|o| {
        matches!(
            o.event,
            replend_scenario::CohortEvent::FaultApplied {
                action: FaultAction::FlipCohort { .. },
                affected: 1..,
            }
        )
    });
    assert!(flipped, "cohort flip affected nobody");
}

// ---------------------------------------------------------------------------
// Random well-formed scenarios (proptest)
// ---------------------------------------------------------------------------

fn any_small_scenario() -> impl Strategy<Value = Scenario> {
    let cohort = prop_oneof![
        (0u64..100, 1u32..6, 1u32..4).prop_map(|(at_tick, size, per_tick)| {
            AdversaryClass::SybilFlood {
                at_tick,
                size,
                per_tick,
            }
        }),
        (0u64..100, 1u32..5, 20u64..60, 0u32..3).prop_map(|(at_tick, size, period, flips)| {
            AdversaryClass::Oscillator {
                at_tick,
                size,
                period,
                flips,
            }
        }),
        (0u64..100, 1u32..5, 20u64..60).prop_map(|(at_tick, size, milk_after)| {
            AdversaryClass::Milker {
                at_tick,
                size,
                milk_after,
            }
        }),
        (0u64..100, 1u32..4, 10u64..40).prop_map(|(at_tick, size, every)| {
            AdversaryClass::Freeriders {
                at_tick,
                size,
                every,
            }
        }),
        (0u64..50, 1u32..3, 30u64..80).prop_map(|(at_tick, waves, life)| {
            AdversaryClass::Whitewash {
                at_tick,
                waves,
                life,
                introducer_stride: 7,
                depart_between_waves: true,
            }
        }),
    ];
    let fault = prop_oneof![
        (0.0f64..=1.0).prop_map(|fraction| FaultAction::KillFraction { fraction }),
        (2u32..5).prop_map(|groups| FaultAction::Partition { groups }),
        Just(FaultAction::Heal),
        (0.0f64..0.1).prop_map(|rate| FaultAction::SetArrivalRate { rate }),
    ];
    (
        proptest::collection::vec(cohort, 0..3),
        proptest::collection::vec((0u64..200, fault), 0..3),
        proptest::collection::vec((0u64..200, 0.0f64..0.1), 0..2),
        0u64..1_000,
        30usize..60,
    )
        .prop_map(|(classes, faults, curve, seed, num_init)| {
            let config = Table1::paper_defaults()
                .with_num_init(num_init)
                .with_arrival_rate(0.01)
                .with_num_trans(10_000);
            let mut scenario = Scenario::baseline("random", config, seed, 200);
            scenario.metrics_every = 50;
            scenario.cohorts = classes
                .into_iter()
                .enumerate()
                .map(|(i, class)| CohortSpec {
                    label: format!("cohort{i}"),
                    class,
                })
                .collect();
            scenario.faults = faults
                .into_iter()
                .map(|(at_tick, action)| FaultEvent { at_tick, action })
                .collect();
            scenario.arrival_curve = curve
                .into_iter()
                .map(|(at_tick, rate)| ArrivalPhase { at_tick, rate })
                .collect();
            scenario
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random well-formed scenarios validate, run, and are
    /// seed-deterministic.
    #[test]
    fn random_scenarios_are_seed_deterministic(scenario in any_small_scenario()) {
        prop_assert!(scenario.validate().is_ok());
        let base = run_csv(&scenario, 200);
        let again = run_csv(&scenario, 200);
        prop_assert_eq!(&base, &again, "not deterministic");
    }
}
