//! # replend-types
//!
//! Shared vocabulary for the `replend` workspace — the reproduction of
//! *"Reputation Lending for Virtual Communities"* (Garg, Montresor,
//! Battiti; DIT-05-086 / ICDE 2006).
//!
//! This crate deliberately has no dependencies beyond `serde` so that
//! every other crate in the workspace can agree on:
//!
//! * strongly-typed identifiers ([`PeerId`], [`NodeId`], [`RequestId`]),
//! * the clamped [`Reputation`] value type (invariant: always in `[0, 1]`),
//! * simulation time ([`SimTime`]),
//! * the behaviour model of the paper ([`Behavior`], [`IntroducerPolicy`]),
//! * the full simulation configuration mirroring **Table 1** of the paper
//!   ([`config::Table1`], [`config::LendingParams`]),
//! * deterministic, dependency-free hashing ([`hash`]),
//! * dense slot-arena primitives for allocation-free hot paths
//!   ([`arena`]: [`Handle`], [`SlotAllocator`]).
//!
//! ## Design notes
//!
//! The newtype discipline follows the database-engineering guides used
//! for this project: identifiers are opaque `u64` wrappers so that a
//! peer id can never be confused with a DHT node id or a simulation
//! timestamp, and reputation arithmetic is *saturating* so the
//! `[0, 1]` invariant can never be violated by protocol code.

pub mod accounting;
pub mod arena;
pub mod behavior;
pub mod config;
pub mod error;
pub mod hash;
pub mod id;
pub mod reputation;
pub mod time;

pub use accounting::{Feedback, KahanSum, MeanAcc, ReputationDelta};
pub use arena::{Handle, SlotAlloc, SlotAllocator};
pub use behavior::{Behavior, IntroducerPolicy, PeerProfile};
pub use config::{LendingParams, SimParams, Table1, TopologyKind};
pub use error::{ConfigError, ProtocolError};
pub use id::{NodeId, PeerId, RequestId};
pub use reputation::Reputation;
pub use time::SimTime;
