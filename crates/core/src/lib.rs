//! # replend-core
//!
//! **Reputation lending for virtual communities** — the primary
//! contribution of Garg, Montresor & Battiti (DIT-05-086 / ICDE
//! 2006), reproduced as a Rust library.
//!
//! A new peer enters the community with reputation **zero** and can
//! only begin consuming resources after an existing member *lends* it
//! `introAmt` of its own reputation. The introducer is later audited
//! on the newcomer's behaviour: cooperative newcomers earn the
//! introducer its stake back plus a reward; freeriders forfeit it.
//!
//! ## Crate layout
//!
//! * `lending` (crate-private) — the pure protocol arithmetic (stake, repayment,
//!   penalty, thresholds), unit-testable without a simulation;
//! * `introduction` (crate-private) — the request / wait-`T` / resolve state
//!   machine, including duplicate-introduction detection (§2's
//!   "multiple introduction requests" attack);
//! * [`messages`] — the §2 message flow (signed stake deduction,
//!   `numSM × numSM` credit fan-out, idempotent application) with
//!   crash-loss injection;
//! * `audit` (crate-private) — the per-newcomer transaction countdown and verdict;
//! * [`log`] — an optional bounded event log ("why was peer X
//!   refused?") for observability;
//! * [`peer`] — runtime peer records (profile, admission status);
//! * `peer_table` (crate-private) — the indexed peer store maintaining the
//!   population counters, mean-reputation accumulators and the member
//!   reputation histogram incrementally, so per-tick sampling is O(1)
//!   instead of O(members);
//! * [`policy`] — the [`BootstrapPolicy`]
//!   alternatives compared in the ablations (open admission, fixed
//!   credit à la BitTorrent/Scrivener, positive-only,
//!   complaints-only);
//! * [`community`] — the façade wiring ROCQ + DHT + topology +
//!   Poisson arrivals into the paper's one-transaction-per-tick
//!   simulator;
//! * [`cluster`] — K independent communities run in parallel on the
//!   rayon pool and merged from their per-community reports;
//! * [`serve`] — the online service layer: a concurrently-readable
//!   engine facade with whitelist/throttle/ban status tiers and an
//!   append-only write-ahead feedback journal for crash-consistent
//!   restart;
//! * [`stats`] — the admission ledger, population counts, and the
//!   §4.1 decision success-rate metric.
//!
//! ## Quickstart
//!
//! ```
//! use replend_core::community::{Community, CommunityBuilder};
//!
//! let mut community = CommunityBuilder::paper_defaults()
//!     .seed(42)
//!     .build();
//! community.run(5_000);
//! let stats = community.stats();
//! println!(
//!     "admitted {} cooperative / {} uncooperative peers",
//!     stats.admitted_cooperative, stats.admitted_uncooperative
//! );
//! assert!(community.population().members >= 500);
//! ```

mod audit;
pub mod cluster;
pub mod community;
mod introduction;
mod lending;
pub mod log;
pub mod messages;
pub mod peer;
mod peer_table;
pub mod policy;
pub mod serve;
pub mod stats;

pub use cluster::{CommunityCluster, CommunityReport, CommunitySummary};
pub use community::{Community, CommunityBuilder};
pub use policy::{BootstrapPolicy, EngineKind};
pub use serve::{
    ReputationService, ServeConfig, ServeError, StatusCensus, StatusPolicy, SubjectStatus,
};
