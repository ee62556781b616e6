//! # replend-rocq
//!
//! A from-scratch implementation of **ROCQ** — the Reputation /
//! Opinion / Credibility / Quality scheme of Garg, Battiti & Cascella
//! (refs [7, 8, 10] of the paper) — plus the score-manager replication
//! layer it runs on.
//!
//! ## The ROCQ model, as implemented
//!
//! After each transaction both partners send their **opinion**
//! (satisfied = 1, unsatisfied = 0) to the other partner's **score
//! managers** (§2 of the lending paper). Each score-manager replica
//! maintains, per subject peer:
//!
//! * an aggregated **reputation** `R` — the credibility-and-quality-
//!   weighted running average of received opinions,
//! * a per-reporter **credibility** `C ∈ (0, 1]` — raised when a
//!   report agrees with the current aggregate, decayed otherwise, so
//!   that liars (uncooperative peers always report 0) lose influence,
//! * the reporter-supplied **quality** `Q ∈ [0, 1]` — the reporter's
//!   confidence, growing with its first-hand interaction count.
//!
//! The aggregation weight of one report is `C · Q`, and the evidence
//! mass is capped so reputations stay responsive (and lending
//! penalties can be "recouped … by behaving cooperatively", §3).
//!
//! ## Replication and churn
//!
//! Each subject has `numSM` replicas hosted at the DHT successors of
//! its salted replica keys (the private `ring` module: a Chord-style
//! identifier ring plus the replica-key function; the private `overlay`
//! module adds the replica-key index and the crash model).
//! Joins and leaves of overlay nodes re-home replicas; with a
//! configurable crash probability a re-homed replica loses its state
//! and copies it back from a surviving sibling (anti-entropy) —
//! *"redundancy is introduced in the system in case a score manager
//! crashes"* (§2). Reads combine the replicas' values. A re-homing
//! without a crash changes nothing, so [`RocqEngine`] simulates the
//! overlay only when the crash probability is positive.
//!
//! The replicas of a subject can never differ: they see the same
//! reports with the same credibilities, and the sibling a lost replica
//! copies is already bit-equal. So [`RocqEngine`] stores one score lane
//! and one credibility per (reporter, subject) whatever `numSM` is,
//! and a crash loss changes state only when `numSM = 1`. The aggregate
//! still sums `numSM` copies and divides, so every result bit matches
//! the [`reference`] layout, which keeps real per-replica tables.
//!
//! ## Engines
//!
//! [`RocqEngine`] is the engine the community and the service run.
//! The [`reference`] module preserves the pre-arena memory layout as a
//! semantic oracle, and the [`ReputationEngine`] trait is the seam
//! through which the oracle suites drive both engines identically.
//!
//! ## Hot-path layout
//!
//! [`RocqEngine`] stores subjects in a dense slot arena (the hot score
//! lanes and cached aggregates split struct-of-arrays from the cold
//! subject ids and credibility books) and keeps every batch-path
//! buffer as reusable scratch, so a steady-state
//! [`ReputationEngine::report_batch`] performs zero heap allocations
//! — see the crate README and the `engine` module docs for the
//! layout, the invariants, and where it is measured.

pub mod concurrent;
mod credibility;
pub mod engine;
mod overlay;
pub mod params;
mod quality;
pub mod reference;
mod ring;
mod score;
mod slab;
pub mod snapshot;
pub mod state;

pub use concurrent::ConcurrentEngine;
pub use engine::{ReputationEngine, RocqEngine};
pub use params::RocqParams;
pub use reference::ReferenceEngine;
pub use snapshot::SnapshotSlab;

/// Worker threads the rayon pool will actually run: the same rule as
/// the pool itself (`RAYON_NUM_THREADS` when set and positive,
/// otherwise `available_parallelism`). Reported beside any measurement
/// whose result depends on threads.
pub fn pool_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => cores,
    }
}
