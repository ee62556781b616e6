//! # replend-sim
//!
//! The discrete-event simulation substrate of the reproduction.
//!
//! §3 of the paper: *"We implemented a discrete event simulator where
//! exactly one resource transaction is scheduled in each unit of
//! simulation time. We do not model transmission delays or losses and
//! all messages are delivered instantly."* and *"The arrival of new
//! peers is modeled as a Poisson process with the arrival rate equal
//! to λ."*
//!
//! This crate provides the domain-independent pieces:
//!
//! * [`events`] — a deterministic event queue with FIFO tie-breaking,
//!   used for waiting-period expiries and audits;
//! * [`arrivals`] — the Poisson arrival process (exponential
//!   inter-arrival times via inverse-CDF, no external distribution
//!   crates);
//! * `dist` (crate-private) — the exponential sampler behind the arrival process;
//! * [`series`] — fixed-interval time-series recording plus averaging
//!   across runs (the paper samples cooperative reputation every
//!   5 000 ticks and averages 10 runs);
//! * [`runner`] — seeded multi-run execution, optionally fanned out
//!   over threads (each run is independent, so parallelism cannot
//!   change results).

pub mod arrivals;
mod dist;
pub mod events;
pub mod runner;
pub mod series;
pub mod stats;

pub use arrivals::PoissonProcess;
pub use events::EventQueue;
pub use runner::{run_many, run_many_parallel};
pub use series::TimeSeries;
pub use stats::Histogram;
