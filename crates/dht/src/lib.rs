//! # replend-dht
//!
//! A Chord-style identifier ring, built from scratch as the
//! score-manager-placement substrate assumed by the paper:
//!
//! > *"We assume the existence of a structured overlay that uses
//! > distributed hash tables for routing and for selecting score
//! > managers that keep track of all feedback pertaining to a peer."*
//! > (§2)
//!
//! The overlay is simulated in-process: there are no sockets, and
//! "messages" are delivered instantly, exactly as in the paper's
//! simulator (§3). What *is* modelled faithfully:
//!
//! * a 64-bit identifier [`ring`](ring::Ring) with successor ownership,
//! * [`score-manager placement`](managers) via salted replica keys —
//!   the `numSM`-fold redundancy of §2: replica `i` of a peer lives at
//!   the successor of [`replica_key`](managers::replica_key)`(peer, i)`,
//! * churn: joins and leaves emit [`HandoffEvent`]s so the reputation
//!   layer can migrate score state, and a crash model drops state to
//!   exercise the redundancy (*"redundancy is introduced in the system
//!   in case a score manager crashes"*, §2).
//!
//! ## Quick example
//!
//! ```
//! use replend_dht::ring::Ring;
//! use replend_types::PeerId;
//!
//! let mut ring = Ring::new();
//! for p in 0..16u64 {
//!     ring.join(PeerId(p).node_id());
//! }
//! // Every key has exactly one owner: its clockwise successor.
//! let key = PeerId(3).node_id();
//! let owner = ring.successor(key).unwrap();
//! assert!(ring.contains(owner));
//! ```

pub mod managers;
pub mod ring;

pub use ring::{HandoffEvent, Ring};
