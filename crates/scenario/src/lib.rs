//! # replend-scenario — data-driven attack scenarios
//!
//! The paper's claim is *defense*: reputation lending must hold up
//! under collusion (§1), whitewashing (§1), duplicate introductions
//! (§2) and churn (§6). This crate turns the attack coverage from
//! hard-coded examples into data:
//!
//! * a [`Scenario`] (serde types over `replend-wire`, shipped as
//!   versioned `.scn` files) composes a base community with an
//!   arrival curve, adversary **cohorts** — six classes, from
//!   collusion rings to reputation milkers — and a **fault
//!   schedule** (kill a fraction of peers, partition the topology,
//!   flip a cohort's behaviour, re-rate arrivals);
//! * the [`ScenarioRunner`] drives a `Community` through it
//!   deterministically — equal scenarios give byte-identical metrics
//!   CSVs — tracking every identity each cohort
//!   ever assumes, so whitewashing rejoins stay attributed;
//! * each sample row reports honest vs adversary mean reputation,
//!   the status-tier census, and false-positive / false-negative
//!   classification rates under the scenario's `StatusPolicy`.
//!
//! The legacy `collusion_attack`, `whitewashing` and `file_sharing`
//! examples are shipped as scenario files (see [`builtins()`]) whose
//! runs reproduce the old outputs bit-for-bit; the old example
//! binaries are thin wrappers that load them and print
//! [`report`]-rendered text.

mod builtins;
mod dsl;
mod file;
mod metrics;
pub mod report;
mod runner;

pub use builtins::{builtin, builtins, shipped_path, BUILTIN_NAMES};
pub use dsl::{
    AdversaryClass, ArrivalPhase, CohortSpec, FaultAction, FaultEvent, Scenario, ScenarioError,
};
pub use file::{decode_scenario, encode_scenario, load_scenario, SCENARIO_MAGIC};
pub use metrics::{write_metrics_csv, CohortEvent, MetricsRow, Observation, ScenarioOutcome};
pub use runner::{capped_options, RunOptions, ScenarioRunner};
