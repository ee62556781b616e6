//! The deterministic scenario runner.
//!
//! [`ScenarioRunner`] drives one [`Community`] through a validated
//! [`Scenario`]: each tick it (1) advances every cohort's script,
//! (2) applies scheduled faults and arrival-curve steps due at that
//! tick, (3) steps the community, and (4) samples the metrics row
//! when the sampling interval elapses. All cohort scripts are
//! deterministic state machines keyed on absolute ticks, so a run is
//! a pure function of the scenario — equal scenarios give
//! byte-identical CSVs.
//!
//! The cohort scripts for [`AdversaryClass::CollusionRing`] and
//! [`AdversaryClass::Whitewash`] perform *exactly* the community
//! calls of the legacy `collusion_attack` / `whitewashing` examples
//! at the same ticks, which is what makes the shipped legacy
//! scenarios reproduce the old outputs bit-for-bit (pinned by the
//! parity tests).

use crate::dsl::{AdversaryClass, FaultAction, Scenario};
use crate::metrics::{CohortEvent, MetricsRow, Observation, ScenarioOutcome};
use crate::ScenarioError;
use replend_core::community::{Community, CommunityBuilder};
use replend_core::peer::PeerStatus;
use replend_core::serve::{StatusPolicy, SubjectStatus};
use replend_types::env::env_count;
use replend_types::{IntroducerPolicy, PeerId, PeerProfile, Reputation};

/// Overrides applied at run time (not part of the scenario).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Simulate at most this many ticks (reduced-scale CI smokes).
    pub max_ticks: Option<u64>,
    /// Override the scenario's sampling interval.
    pub sample_every: Option<u64>,
}

/// Run options honouring the `REPLEND_TICKS` cap: when the cap is
/// below the scenario's horizon, the run is truncated to the cap and
/// resampled at `max(1, cap / 8)` ticks so reduced-scale smokes still
/// produce a useful (and deterministic) number of rows. A cap that is
/// not a positive integer is refused with the message the figure
/// binaries give.
pub fn capped_options(scenario: &Scenario) -> Result<RunOptions, String> {
    Ok(match env_count("REPLEND_TICKS")? {
        Some(cap) if cap < scenario.horizon => RunOptions {
            max_ticks: Some(cap),
            sample_every: Some((cap / 8).max(1)),
        },
        _ => RunOptions::default(),
    })
}

/// Drives a community through a scenario.
pub struct ScenarioRunner {
    scenario: Scenario,
    community: Community,
    drivers: Vec<Driver>,
    /// Identities each cohort has assumed, in spawn order.
    cohort_ids: Vec<Vec<PeerId>>,
    /// Dense adversary mark per peer index — survives identity
    /// changes because every identity a cohort spawns is marked.
    adversary: Vec<bool>,
    observations: Vec<Observation>,
    /// Merged fault + arrival-curve schedule, sorted by tick.
    schedule: Vec<(u64, FaultAction)>,
}

impl ScenarioRunner {
    /// Validates the scenario and builds the community, which is
    /// fully determined by the scenario.
    pub fn new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let community = CommunityBuilder::new(scenario.config)
            .policy(scenario.policy)
            .seed(scenario.seed)
            .departure_rate(scenario.departure_rate)
            .build();
        let drivers: Vec<Driver> = scenario
            .cohorts
            .iter()
            .map(|c| Driver::new(c.label.clone(), c.class, &community))
            .collect();
        let mut schedule: Vec<(u64, FaultAction)> = scenario
            .arrival_curve
            .iter()
            .map(|p| (p.at_tick, FaultAction::SetArrivalRate { rate: p.rate }))
            .chain(scenario.faults.iter().map(|f| (f.at_tick, f.action)))
            .collect();
        // Stable: within a tick, arrival-curve steps fire before
        // faults, faults in declaration order.
        schedule.sort_by_key(|&(t, _)| t);
        let cohort_count = drivers.len();
        Ok(ScenarioRunner {
            scenario,
            community,
            drivers,
            cohort_ids: vec![Vec::new(); cohort_count],
            adversary: Vec::new(),
            observations: Vec::new(),
            schedule,
        })
    }

    /// Runs the full scenario horizon.
    pub fn run(self) -> ScenarioOutcome {
        self.run_with(RunOptions::default())
    }

    /// Runs with overrides; consumes the runner (a scenario run is
    /// one-shot by construction — rerunning would need the same
    /// fresh community).
    pub fn run_with(mut self, options: RunOptions) -> ScenarioOutcome {
        let horizon = options
            .max_ticks
            .map_or(self.scenario.horizon, |m| m.min(self.scenario.horizon));
        let every = options
            .sample_every
            .unwrap_or(self.scenario.metrics_every)
            .max(1);
        let mut rows = Vec::with_capacity((horizon / every + 2) as usize);
        rows.push(sample(
            0,
            &self.community,
            &self.adversary,
            self.scenario.status,
        ));
        let mut next_fault = 0usize;
        for t in 0..horizon {
            for (driver, ids) in self.drivers.iter_mut().zip(self.cohort_ids.iter_mut()) {
                driver.on_tick(
                    t,
                    &mut self.community,
                    ids,
                    &mut self.adversary,
                    &mut self.observations,
                );
            }
            while next_fault < self.schedule.len() && self.schedule[next_fault].0 == t {
                let action = self.schedule[next_fault].1;
                next_fault += 1;
                self.apply_fault(t, action);
            }
            self.community.step();
            if (t + 1) % every == 0 {
                rows.push(sample(
                    t + 1,
                    &self.community,
                    &self.adversary,
                    self.scenario.status,
                ));
            }
        }
        ScenarioOutcome {
            name: self.scenario.name,
            ticks_run: horizon,
            rows,
            observations: self.observations,
            final_population: self.community.population(),
            final_stats: *self.community.stats(),
            partition_blocked: self.community.partition_blocked(),
        }
    }

    fn apply_fault(&mut self, t: u64, action: FaultAction) {
        let affected = match action {
            FaultAction::KillFraction { fraction } => {
                let ids: Vec<PeerId> = self.community.members().map(|r| r.id).collect();
                let n = ids.len();
                let k = (fraction * n as f64).floor() as usize;
                let mut killed = 0u32;
                // Spread victims evenly over the member index (j·n/k
                // is strictly increasing for k ≤ n) — deterministic
                // and RNG-free.
                for j in 0..k {
                    if self.community.depart_member(ids[j * n / k]).is_ok() {
                        killed += 1;
                    }
                }
                killed
            }
            FaultAction::Partition { groups } => {
                self.community.set_partition(Some(groups));
                0
            }
            FaultAction::Heal => {
                self.community.set_partition(None);
                0
            }
            FaultAction::FlipCohort { cohort } => {
                let mut flipped = 0u32;
                for &id in &self.cohort_ids[cohort as usize] {
                    if self.community.flip_behavior(id).is_ok() {
                        flipped += 1;
                    }
                }
                flipped
            }
            FaultAction::SetArrivalRate { rate } => {
                self.community.set_arrival_rate(rate);
                0
            }
        };
        self.observations.push(Observation {
            tick: t,
            cohort: "fault".to_string(),
            event: CohortEvent::FaultApplied { action, affected },
        });
    }
}

/// Samples one metrics row — a read-only pass over the member index
/// (no RNG use, so sampling never perturbs the simulation).
fn sample(
    tick: u64,
    community: &Community,
    adversary: &[bool],
    status: StatusPolicy,
) -> MetricsRow {
    let mut honest = 0u64;
    let mut adversaries = 0u64;
    let mut honest_sum = 0.0f64;
    let mut adversary_sum = 0.0f64;
    let mut whitelisted = 0u64;
    let mut throttled = 0u64;
    let mut banned = 0u64;
    let mut false_positives = 0u64;
    let mut false_negatives = 0u64;
    for record in community.members() {
        let rep = community.reputation(record.id).unwrap_or(Reputation::ZERO);
        let is_adversary = adversary.get(record.id.index()).copied().unwrap_or(false);
        let tier = status.classify(rep, record.transactions);
        match tier {
            SubjectStatus::Whitelisted => whitelisted += 1,
            SubjectStatus::Throttled => throttled += 1,
            SubjectStatus::Banned => banned += 1,
        }
        if is_adversary {
            adversaries += 1;
            adversary_sum += rep.value();
            if tier == SubjectStatus::Whitelisted {
                false_negatives += 1;
            }
        } else {
            honest += 1;
            honest_sum += rep.value();
            if tier != SubjectStatus::Whitelisted {
                false_positives += 1;
            }
        }
    }
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    MetricsRow {
        tick,
        members: honest + adversaries,
        honest,
        adversaries,
        honest_mean: (honest > 0).then(|| honest_sum / honest as f64),
        adversary_mean: (adversaries > 0).then(|| adversary_sum / adversaries as f64),
        whitelisted,
        throttled,
        banned,
        false_positive_rate: ratio(false_positives, honest),
        false_negative_rate: ratio(false_negatives, adversaries),
    }
}

// ---------------------------------------------------------------------------
// Cohort drivers
// ---------------------------------------------------------------------------

fn mark(adversary: &mut Vec<bool>, ids: &mut Vec<PeerId>, id: PeerId) {
    let i = id.index();
    if adversary.len() <= i {
        adversary.resize(i + 1, false);
    }
    adversary[i] = true;
    ids.push(id);
}

fn observe(obs: &mut Vec<Observation>, tick: u64, label: &str, event: CohortEvent) {
    obs.push(Observation {
        tick,
        cohort: label.to_string(),
        event,
    });
}

/// A cohort's compiled script: a state machine firing at absolute
/// ticks. `next == None` means the script is done.
struct Driver {
    label: String,
    class: AdversaryClass,
    /// Waiting period of the community's lending config.
    wait: u64,
    /// `minIntro` of the community's lending config.
    min_intro: f64,
    /// Founding population size (whitewash introducer rotation).
    num_init: u64,
    /// Whether the community admits by reputation lending.
    lending: bool,
    next: Option<u64>,
    stage: Stage,
    // Collusion/whitewash counters.
    admitted: u32,
    refused: u32,
    mole: PeerId,
    /// Identities spawned so far (flood/freerider cohorts).
    spawned: u32,
    /// Behaviour flips performed so far (oscillator).
    flips_done: u32,
}

#[derive(Clone, Copy, Debug)]
enum Stage {
    Start,
    // Collusion ring.
    MoleCheck,
    HonestDone,
    WaveArrive { wave: u32 },
    WaveCheck { wave: u32, friend: PeerId },
    WaveSettle { wave: u32 },
    WaveSummary,
    GreedyCheck { greedy: PeerId },
    DuplicateCheck { greedy: PeerId },
    // Whitewash.
    IdentityArrive { wave: u32 },
    IdentityCheck { wave: u32, id: PeerId },
    IdentityEnd { wave: u32, id: PeerId },
    // Flip-based cohorts.
    Flip,
    Done,
}

impl Driver {
    fn new(label: String, class: AdversaryClass, community: &Community) -> Self {
        let lending_cfg = community.config().lending;
        Driver {
            label,
            class,
            wait: lending_cfg.wait_period,
            min_intro: lending_cfg.min_intro(),
            num_init: community.config().sim.num_init as u64,
            lending: matches!(
                community.policy(),
                replend_core::BootstrapPolicy::ReputationLending
            ),
            next: Some(class.start_tick()),
            stage: Stage::Start,
            admitted: 0,
            refused: 0,
            mole: PeerId(0),
            spawned: 0,
            flips_done: 0,
        }
    }

    fn on_tick(
        &mut self,
        t: u64,
        community: &mut Community,
        ids: &mut Vec<PeerId>,
        adversary: &mut Vec<bool>,
        obs: &mut Vec<Observation>,
    ) {
        // A transition may schedule the next one at the same tick
        // (the legacy examples chain calls without stepping), so loop
        // until the driver yields to the clock.
        while self.next == Some(t) {
            self.advance(t, community, ids, adversary, obs);
        }
    }

    fn advance(
        &mut self,
        t: u64,
        community: &mut Community,
        ids: &mut Vec<PeerId>,
        adversary: &mut Vec<bool>,
        obs: &mut Vec<Observation>,
    ) {
        match self.class {
            AdversaryClass::CollusionRing { .. } => {
                self.advance_collusion(t, community, ids, adversary, obs)
            }
            AdversaryClass::Whitewash { .. } => {
                self.advance_whitewash(t, community, ids, adversary, obs)
            }
            AdversaryClass::SybilFlood { size, per_tick, .. } => {
                let burst = per_tick.min(size - self.spawned);
                for _ in 0..burst {
                    let id = community.arrival_with_profile(PeerProfile::uncooperative());
                    mark(adversary, ids, id);
                }
                self.spawned += burst;
                if self.spawned < size {
                    self.next = Some(t + 1);
                } else {
                    observe(
                        obs,
                        t,
                        &self.label,
                        CohortEvent::CohortSpawned {
                            count: self.spawned,
                        },
                    );
                    self.finish();
                }
            }
            AdversaryClass::Freeriders { size, every, .. } => {
                let id = community.arrival_with_profile(PeerProfile::uncooperative());
                mark(adversary, ids, id);
                self.spawned += 1;
                if self.spawned < size {
                    self.next = Some(t + every);
                } else {
                    observe(
                        obs,
                        t,
                        &self.label,
                        CohortEvent::CohortSpawned {
                            count: self.spawned,
                        },
                    );
                    self.finish();
                }
            }
            AdversaryClass::Oscillator {
                size,
                period,
                flips,
                ..
            } => match self.stage {
                Stage::Start => {
                    self.spawn_cooperative(size, community, ids, adversary, obs, t);
                    self.stage = Stage::Flip;
                    self.next = Some(t + period);
                }
                _ => {
                    let flipped = flip_members(community, ids);
                    observe(
                        obs,
                        t,
                        &self.label,
                        CohortEvent::CohortFlipped { members: flipped },
                    );
                    self.flips_done += 1;
                    if flips == 0 || self.flips_done < flips {
                        self.next = Some(t + period);
                    } else {
                        self.finish();
                    }
                }
            },
            AdversaryClass::Milker {
                size, milk_after, ..
            } => match self.stage {
                Stage::Start => {
                    self.spawn_cooperative(size, community, ids, adversary, obs, t);
                    self.stage = Stage::Flip;
                    self.next = Some(t + milk_after);
                }
                _ => {
                    let flipped = flip_members(community, ids);
                    observe(
                        obs,
                        t,
                        &self.label,
                        CohortEvent::CohortFlipped { members: flipped },
                    );
                    self.finish();
                }
            },
        }
    }

    fn spawn_cooperative(
        &mut self,
        size: u32,
        community: &mut Community,
        ids: &mut Vec<PeerId>,
        adversary: &mut Vec<bool>,
        obs: &mut Vec<Observation>,
        t: u64,
    ) {
        for _ in 0..size {
            let id =
                community.arrival_with_profile(PeerProfile::cooperative(IntroducerPolicy::Naive));
            mark(adversary, ids, id);
        }
        observe(
            obs,
            t,
            &self.label,
            CohortEvent::CohortSpawned { count: size },
        );
    }

    fn finish(&mut self) {
        self.stage = Stage::Done;
        self.next = None;
    }

    /// The legacy `collusion_attack` script, tick for tick.
    fn advance_collusion(
        &mut self,
        t: u64,
        community: &mut Community,
        ids: &mut Vec<PeerId>,
        adversary: &mut Vec<bool>,
        obs: &mut Vec<Observation>,
    ) {
        let AdversaryClass::CollusionRing {
            introducer,
            honest_ticks,
            waves,
            wave_gap,
            duplicate_probe,
            ..
        } = self.class
        else {
            unreachable!("collusion driver with non-collusion class");
        };
        match self.stage {
            Stage::Start => {
                match community.arrival_with_chosen_introducer(
                    PeerProfile::cooperative(IntroducerPolicy::Naive),
                    PeerId(introducer),
                ) {
                    Ok(mole) => {
                        self.mole = mole;
                        mark(adversary, ids, mole);
                        self.stage = Stage::MoleCheck;
                        self.next = Some(t + self.wait + 1);
                    }
                    Err(_) => {
                        observe(
                            obs,
                            t,
                            &self.label,
                            CohortEvent::MoleAdmitted {
                                member: false,
                                reputation: 0.0,
                            },
                        );
                        self.finish();
                    }
                }
            }
            Stage::MoleCheck => {
                let member = community
                    .peer(self.mole)
                    .is_some_and(|p| p.status.is_member());
                let reputation = rep_of(community, self.mole);
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::MoleAdmitted { member, reputation },
                );
                if member {
                    self.stage = Stage::HonestDone;
                    self.next = Some(t + honest_ticks);
                } else {
                    self.finish();
                }
            }
            Stage::HonestDone => {
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::HonestPhaseDone {
                        reputation: rep_of(community, self.mole),
                    },
                );
                self.stage = Stage::WaveArrive { wave: 0 };
                self.next = Some(t);
            }
            Stage::WaveArrive { wave } => {
                match community
                    .arrival_with_chosen_introducer(PeerProfile::uncooperative(), self.mole)
                {
                    Ok(friend) => {
                        mark(adversary, ids, friend);
                        self.stage = Stage::WaveCheck { wave, friend };
                        self.next = Some(t + self.wait + 1);
                    }
                    Err(_) => {
                        self.refused += 1;
                        self.stage = Stage::WaveSettle { wave };
                        self.next = Some(t + wave_gap);
                    }
                }
            }
            Stage::WaveCheck { wave, friend } => {
                let admitted = community.peer(friend).unwrap().status == PeerStatus::Member;
                if admitted {
                    self.admitted += 1;
                } else {
                    self.refused += 1;
                }
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::WaveResolved { wave, admitted },
                );
                self.stage = Stage::WaveSettle { wave };
                self.next = Some(t + wave_gap);
            }
            Stage::WaveSettle { wave } => {
                let reputation = rep_of(community, self.mole);
                if reputation < self.min_intro {
                    observe(
                        obs,
                        t,
                        &self.label,
                        CohortEvent::VouchingPowerLost { wave, reputation },
                    );
                    self.stage = Stage::WaveSummary;
                } else if wave + 1 < waves {
                    self.stage = Stage::WaveArrive { wave: wave + 1 };
                } else {
                    self.stage = Stage::WaveSummary;
                }
                self.next = Some(t);
            }
            Stage::WaveSummary => {
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::WavesDone {
                        admitted: self.admitted,
                        refused: self.refused,
                        reputation: rep_of(community, self.mole),
                    },
                );
                if !duplicate_probe {
                    self.finish();
                    return;
                }
                match community.arrival_with_chosen_introducer(
                    PeerProfile::cooperative(IntroducerPolicy::Naive),
                    PeerId((introducer + 1) % self.num_init),
                ) {
                    Ok(greedy) => {
                        mark(adversary, ids, greedy);
                        self.stage = Stage::GreedyCheck { greedy };
                        self.next = Some(t + self.wait + 1);
                    }
                    Err(_) => self.finish(),
                }
            }
            Stage::GreedyCheck { greedy } => {
                let _ = community.solicit_duplicate_introduction(
                    greedy,
                    PeerId((introducer + 2) % self.num_init),
                );
                self.stage = Stage::DuplicateCheck { greedy };
                self.next = Some(t + self.wait + 1);
            }
            Stage::DuplicateCheck { greedy } => {
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::DuplicateProbe {
                        peer: greedy.raw(),
                        flagged: community.peer(greedy).unwrap().status == PeerStatus::Flagged,
                        reputation_zeroed: community.reputation(greedy) == Some(Reputation::ZERO),
                    },
                );
                self.finish();
            }
            _ => unreachable!("invalid collusion stage"),
        }
    }

    /// The legacy `whitewashing` campaign script, tick for tick.
    fn advance_whitewash(
        &mut self,
        t: u64,
        community: &mut Community,
        ids: &mut Vec<PeerId>,
        adversary: &mut Vec<bool>,
        obs: &mut Vec<Observation>,
    ) {
        let AdversaryClass::Whitewash {
            waves,
            life,
            introducer_stride,
            depart_between_waves,
            ..
        } = self.class
        else {
            unreachable!("whitewash driver with non-whitewash class");
        };
        match self.stage {
            Stage::Start => {
                self.stage = Stage::IdentityArrive { wave: 0 };
                self.next = Some(t);
            }
            Stage::IdentityArrive { wave } => {
                if wave >= waves {
                    self.finish();
                    return;
                }
                if self.lending {
                    let founder = PeerId((wave as u64 * introducer_stride) % self.num_init);
                    match community
                        .arrival_with_chosen_introducer(PeerProfile::uncooperative(), founder)
                    {
                        Ok(id) => {
                            mark(adversary, ids, id);
                            self.stage = Stage::IdentityCheck { wave, id };
                            self.next = Some(t + self.wait + 1);
                        }
                        Err(_) => {
                            observe(
                                obs,
                                t,
                                &self.label,
                                CohortEvent::IdentityResolved {
                                    wave,
                                    admitted: false,
                                },
                            );
                            self.stage = Stage::IdentityArrive { wave: wave + 1 };
                            self.next = Some(t);
                        }
                    }
                } else {
                    let id = community.arrival_with_profile(PeerProfile::uncooperative());
                    mark(adversary, ids, id);
                    self.stage = Stage::IdentityCheck { wave, id };
                    self.next = Some(t);
                }
            }
            Stage::IdentityCheck { wave, id } => {
                let admitted = community.peer(id).unwrap().status == PeerStatus::Member;
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::IdentityResolved { wave, admitted },
                );
                if admitted {
                    self.admitted += 1;
                    self.stage = Stage::IdentityEnd { wave, id };
                    self.next = Some(t + life);
                } else {
                    self.stage = Stage::IdentityArrive { wave: wave + 1 };
                    self.next = Some(t);
                }
            }
            Stage::IdentityEnd { wave, id } => {
                observe(
                    obs,
                    t,
                    &self.label,
                    CohortEvent::IdentityRetired {
                        wave,
                        reputation: community.reputation(id).map(|r| r.value()),
                    },
                );
                if depart_between_waves {
                    let _ = community.depart_member(id);
                }
                self.stage = Stage::IdentityArrive { wave: wave + 1 };
                self.next = Some(t);
            }
            _ => unreachable!("invalid whitewash stage"),
        }
    }
}

fn rep_of(community: &Community, id: PeerId) -> f64 {
    community.reputation(id).unwrap_or(Reputation::ZERO).value()
}

fn flip_members(community: &mut Community, ids: &[PeerId]) -> u32 {
    let mut flipped = 0u32;
    for &id in ids {
        if community.flip_behavior(id).is_ok() {
            flipped += 1;
        }
    }
    flipped
}
