//! Legacy-format reports rendered from scenario outcomes.
//!
//! The three attack examples used to print their findings while
//! running hard-coded scripts; now the scripts are data and the
//! findings are [`Observation`](crate::Observation)s, these functions render the *same
//! text, byte for byte* from a [`ScenarioOutcome`] — the example
//! wrappers print them, and the parity tests diff them against the
//! legacy code paths.

use crate::dsl::{AdversaryClass, Scenario};
use crate::metrics::{CohortEvent, ScenarioOutcome};
use replend_types::PeerId;
use std::fmt::Write;

/// The legacy `collusion_attack` stdout, rendered from observations.
///
/// # Panics
/// If the run violated the legacy example's assertions (mole not
/// admitted, duplicate introduction not flagged/zeroed) or the
/// outcome carries no collusion observations.
pub fn collusion_report(scenario: &Scenario, outcome: &ScenarioOutcome) -> String {
    let label = &scenario.cohorts[0].label;
    let min_intro = scenario.config.lending.min_intro();
    let intro_amt = scenario.config.lending.intro_amt;
    let mut out = String::new();
    for event in outcome.events_of(label) {
        match *event {
            CohortEvent::MoleAdmitted { member, reputation } => {
                assert!(member, "mole must be admitted");
                writeln!(out, "mole admitted with reputation {reputation:.3}").unwrap();
            }
            CohortEvent::HonestPhaseDone { reputation } => {
                writeln!(out, "after honest phase, mole reputation = {reputation:.3}").unwrap();
            }
            CohortEvent::VouchingPowerLost { wave, reputation } => {
                writeln!(
                    out,
                    "wave {:>2}: mole reputation {:.3} fell below minIntro = {:.2} — vouching power gone",
                    wave + 1,
                    reputation,
                    min_intro
                )
                .unwrap();
            }
            CohortEvent::WavesDone {
                admitted,
                refused,
                reputation,
            } => {
                writeln!(
                    out,
                    "colluders admitted: {admitted}, refused: {refused}; mole reputation now {reputation:.3}"
                )
                .unwrap();
                writeln!(
                    out,
                    "each failed audit burned introAmt = {intro_amt}; the attack is self-limiting\n"
                )
                .unwrap();
            }
            CohortEvent::DuplicateProbe {
                peer,
                flagged,
                reputation_zeroed,
            } => {
                assert!(flagged, "duplicate introduction must be flagged");
                assert!(
                    reputation_zeroed,
                    "duplicate introduction must zero reputation"
                );
                let greedy = PeerId(peer);
                writeln!(
                    out,
                    "duplicate-introduction attack: peer {greedy:?} flagged malicious, reputation zeroed"
                )
                .unwrap();
            }
            _ => {}
        }
    }
    assert!(
        out.contains("duplicate-introduction"),
        "collusion script did not complete within the horizon"
    );
    out
}

/// One whitewashing campaign's summary: identities admitted and the
/// mean end-of-life reputation (in wave order, like the legacy
/// accumulation).
pub fn campaign_summary(scenario: &Scenario, outcome: &ScenarioOutcome) -> (usize, f64) {
    let label = &scenario.cohorts[0].label;
    let mut admitted = 0usize;
    let mut rep_sum = 0.0f64;
    let mut rep_n = 0usize;
    for event in outcome.events_of(label) {
        match *event {
            CohortEvent::IdentityResolved { admitted: true, .. } => admitted += 1,
            CohortEvent::IdentityRetired {
                reputation: Some(r),
                ..
            } => {
                rep_sum += r;
                rep_n += 1;
            }
            _ => {}
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

/// The legacy `whitewashing` stdout, rendered from both campaigns'
/// outcomes (complaints-only first, lending second).
///
/// # Panics
/// If lending failed to blunt the whitewasher (the legacy assert).
pub fn whitewashing_report(
    complaints: (&Scenario, &ScenarioOutcome),
    lending: (&Scenario, &ScenarioOutcome),
) -> String {
    let AdversaryClass::Whitewash { waves, life, .. } = complaints.0.cohorts[0].class else {
        panic!("whitewashing report needs a whitewash cohort");
    };
    let (c_admitted, c_rep) = campaign_summary(complaints.0, complaints.1);
    let (l_admitted, l_rep) = campaign_summary(lending.0, lending.1);
    let mut out = String::new();
    writeln!(
        out,
        "serial whitewasher: {waves} fresh identities, {life} ticks each\n"
    )
    .unwrap();
    writeln!(
        out,
        "complaints-only : {c_admitted:>2}/{waves} identities admitted, \
         mean end-of-life reputation {c_rep:.3}"
    )
    .unwrap();
    writeln!(
        out,
        "                  every new identity starts fully trusted — whitewashing works\n"
    )
    .unwrap();
    writeln!(
        out,
        "lending         : {l_admitted:>2}/{waves} identities admitted, \
         mean end-of-life reputation {l_rep:.3}"
    )
    .unwrap();
    writeln!(
        out,
        "                  each identity costs an introducer introAmt up front and a\n\
         \x20                 failed audit later; founders burned by earlier waves drop\n\
         \x20                 below minIntro and refuse, so re-entry gets harder each time"
    )
    .unwrap();
    assert!(c_rep > l_rep, "lending must blunt whitewashing");
    out
}

/// One legacy `file_sharing` swarm section, rendered from the final
/// aggregates.
pub fn file_sharing_report(label: &str, outcome: &ScenarioOutcome) -> String {
    let stats = &outcome.final_stats;
    let pop = &outcome.final_population;
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
