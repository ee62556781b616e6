//! Engine and policy integration: the ROCQ engine drives the
//! community correctly, masks crashes, and the bootstrap policies order
//! as the §1 discussion predicts.

use replend_core::{BootstrapPolicy, EngineKind};
use replend_rocq::RocqParams;
use replend_tests::{growth_config, run_community};

const TICKS: u64 = 15_000;

#[test]
fn rocq_community_ranks_cooperative_above_uncooperative() {
    let c = run_community(
        growth_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::default(),
        31,
        TICKS,
    );
    assert!(c.stats().admitted_total() > 0, "engine admitted no one");
    let coop = c.mean_cooperative_reputation().unwrap();
    assert!(coop > 0.4, "cooperative mean {coop} too low");
    if let Some(uncoop) = c.mean_uncooperative_reputation() {
        assert!(uncoop < coop, "uncooperative above cooperative");
    }
}

#[test]
fn rocq_crash_tolerance_end_to_end() {
    // With the default 6 score managers, even a 50% crash probability
    // on replica re-homings must not visibly corrupt reputations.
    let clean = run_community(
        growth_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::Rocq(RocqParams::default()),
        32,
        TICKS,
    );
    let crashy = run_community(
        growth_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::Rocq(RocqParams {
            crash_prob: 0.5,
            ..RocqParams::default()
        }),
        32,
        TICKS,
    );
    let a = clean.mean_cooperative_reputation().unwrap();
    let b = crashy.mean_cooperative_reputation().unwrap();
    assert!(
        (a - b).abs() < 0.1,
        "replication failed to mask crashes: clean {a}, crashy {b}"
    );
}

#[test]
fn lending_admits_fewest_uncooperative() {
    let mut shares = Vec::new();
    for policy in [
        BootstrapPolicy::ReputationLending,
        BootstrapPolicy::OpenAdmission { initial: 0.5 },
        BootstrapPolicy::FixedCredit { credit: 0.1 },
        BootstrapPolicy::ComplaintsOnly,
    ] {
        let c = run_community(growth_config(), policy, EngineKind::default(), 33, TICKS);
        let s = c.stats();
        let share = s.admitted_uncooperative as f64 / s.arrived_uncooperative.max(1) as f64;
        shares.push((policy.name(), share));
    }
    let lending = shares[0].1;
    for (name, share) in &shares[1..] {
        assert!(
            lending < share - 0.2,
            "lending ({lending}) should admit far fewer uncooperative than {name} ({share})"
        );
    }
}

#[test]
fn positive_only_freezes_newcomers_out_of_service() {
    // §1: with positive-only feedback a new peer "may find itself
    // frozen out". Newcomers start at 0 ⇒ their requests are denied;
    // they only climb by serving. Cooperative mean stays depressed
    // relative to lending.
    let positive = run_community(
        growth_config(),
        BootstrapPolicy::PositiveOnly,
        EngineKind::default(),
        34,
        TICKS,
    );
    let lending = run_community(
        growth_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::default(),
        34,
        TICKS,
    );
    let p = positive.mean_cooperative_reputation().unwrap();
    let l = lending.mean_cooperative_reputation().unwrap();
    assert!(
        p < l,
        "positive-only ({p}) should depress cooperative reputations vs lending ({l})"
    );
}

#[test]
fn complaints_only_gives_freeriders_a_head_start() {
    // §1: complaints-based trust admits newcomers fully trusted —
    // uncooperative members keep a higher reputation early on than
    // under lending, where they enter at introAmt.
    let complaints = run_community(
        growth_config(),
        BootstrapPolicy::ComplaintsOnly,
        EngineKind::default(),
        35,
        6_000,
    );
    let lending = run_community(
        growth_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::default(),
        35,
        6_000,
    );
    let c = complaints.mean_uncooperative_reputation().unwrap_or(0.0);
    let l = lending.mean_uncooperative_reputation().unwrap_or(0.0);
    assert!(
        c > l,
        "complaints-only should leave freeriders better off early: {c} vs {l}"
    );
}
