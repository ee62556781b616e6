//! Runner outputs: the per-sample metrics rows, the cohort
//! observation stream, and the [`ScenarioOutcome`] bundling both with
//! the community's final aggregates.
//!
//! All types are serde-encodable over `replend-wire` so outcomes can
//! cross process boundaries the same way summaries and host profiles
//! do, and so the wire test suite can pin their encodings.

use crate::dsl::FaultAction;
use replend_core::stats::{CommunityStats, Population};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One sampled row of the metrics CSV.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsRow {
    /// Simulation tick of the sample.
    pub tick: u64,
    /// Current members.
    pub members: u64,
    /// … of which honest (never part of any adversary cohort).
    pub honest: u64,
    /// … of which adversarial (any identity a cohort ever assumed).
    pub adversaries: u64,
    /// Mean reputation over honest members; `None` when there are
    /// none.
    pub honest_mean: Option<f64>,
    /// Mean reputation over adversary members; `None` when there are
    /// none.
    pub adversary_mean: Option<f64>,
    /// Members the status policy whitelists.
    pub whitelisted: u64,
    /// Members the status policy throttles.
    pub throttled: u64,
    /// Members the status policy bans.
    pub banned: u64,
    /// Honest members throttled or banned, over honest members
    /// (`None` when there are no honest members).
    pub false_positive_rate: Option<f64>,
    /// Adversary members whitelisted, over adversary members
    /// (`None` when there are no adversary members).
    pub false_negative_rate: Option<f64>,
}

/// Column headers of the metrics CSV, in order.
pub(crate) const CSV_HEADERS: [&str; 11] = [
    "tick",
    "members",
    "honest",
    "adversaries",
    "honest_mean_rep",
    "adversary_mean_rep",
    "whitelisted",
    "throttled",
    "banned",
    "false_positive_rate",
    "false_negative_rate",
];

fn fmt_mean(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.6}"),
        None => "n/a".to_string(),
    }
}

impl MetricsRow {
    /// The row as a CSV line (no trailing newline). Fixed six-decimal
    /// formatting keeps golden files byte-stable.
    pub(crate) fn to_csv_line(self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            self.tick,
            self.members,
            self.honest,
            self.adversaries,
            fmt_mean(self.honest_mean),
            fmt_mean(self.adversary_mean),
            self.whitelisted,
            self.throttled,
            self.banned,
            fmt_mean(self.false_positive_rate),
            fmt_mean(self.false_negative_rate),
        )
    }
}

/// A timestamped cohort (or fault) event recorded by the runner —
/// the raw material the legacy-format reports are rendered from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Tick at which the event was observed.
    pub tick: u64,
    /// Label of the cohort that produced it (`"fault"` for fault
    /// applications).
    pub cohort: String,
    /// What happened.
    pub event: CohortEvent,
}

/// The cohort event vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CohortEvent {
    /// The collusion mole's introduction resolved.
    MoleAdmitted {
        /// Whether the mole became a member.
        member: bool,
        /// Its reputation at that point.
        reputation: f64,
    },
    /// The mole's honest-participation phase ended.
    HonestPhaseDone {
        /// Its reputation after behaving honestly.
        reputation: f64,
    },
    /// A colluder wave's introduction resolved.
    WaveResolved {
        /// Wave index (0-based).
        wave: u32,
        /// Whether the colluder was admitted.
        admitted: bool,
    },
    /// The mole's reputation fell below `minIntro`.
    VouchingPowerLost {
        /// Wave index (0-based) after which it happened.
        wave: u32,
        /// The mole's reputation at that point.
        reputation: f64,
    },
    /// The collusion wave phase ended.
    WavesDone {
        /// Colluders admitted.
        admitted: u32,
        /// Colluders refused.
        refused: u32,
        /// The mole's final reputation.
        reputation: f64,
    },
    /// Outcome of the duplicate-introduction probe.
    DuplicateProbe {
        /// Raw id of the greedy peer.
        peer: u64,
        /// Whether the score managers flagged it.
        flagged: bool,
        /// Whether its reputation was zeroed.
        reputation_zeroed: bool,
    },
    /// A whitewashing identity's introduction resolved.
    IdentityResolved {
        /// Wave index (0-based).
        wave: u32,
        /// Whether the identity was admitted.
        admitted: bool,
    },
    /// A whitewashing identity reached end of life.
    IdentityRetired {
        /// Wave index (0-based).
        wave: u32,
        /// Its reputation at end of life, if still known.
        reputation: Option<f64>,
    },
    /// A cohort finished spawning identities.
    CohortSpawned {
        /// Identities injected.
        count: u32,
    },
    /// A cohort's (current-member) identities flipped behaviour.
    CohortFlipped {
        /// Identities actually flipped.
        members: u32,
    },
    /// A scheduled fault fired.
    FaultApplied {
        /// The action.
        action: FaultAction,
        /// Peers it affected (killed, flipped, …; 0 for rate and
        /// partition changes).
        affected: u32,
    },
}

/// Everything a scenario run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub name: String,
    /// Ticks actually simulated (may be capped below the horizon).
    pub ticks_run: u64,
    /// Sampled metrics rows, starting with the tick-0 census.
    pub rows: Vec<MetricsRow>,
    /// Cohort and fault events in tick order.
    pub observations: Vec<Observation>,
    /// Final population mix.
    pub final_population: Population,
    /// Final protocol counters.
    pub final_stats: CommunityStats,
    /// Transactions dropped by partitions over the whole run.
    pub partition_blocked: u64,
}

impl ScenarioOutcome {
    /// Renders the metrics rows as a CSV document (headers + one line
    /// per sample, trailing newline).
    pub fn to_csv(&self) -> String {
        let mut out = CSV_HEADERS.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.to_csv_line());
            out.push('\n');
        }
        out
    }

    /// Events recorded by the cohort with the given label, in order.
    pub(crate) fn events_of<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a CohortEvent> + 'a {
        self.observations
            .iter()
            .filter(move |o| o.cohort == label)
            .map(|o| &o.event)
    }
}

/// The workspace `results/` directory (same resolution as the bench
/// crate: relative to this crate's manifest, so it works from any
/// working directory).
pub(crate) fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}

/// Writes the outcome's metrics CSV to
/// `results/scenario_<name>.csv`; returns the path written.
pub fn write_metrics_csv(outcome: &ScenarioOutcome) -> io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("scenario_{}.csv", outcome.name));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(outcome.to_csv().as_bytes())?;
    Ok(path)
}
