//! Strongly-typed identifiers.
//!
//! All identifiers are opaque 64-bit values. [`PeerId`] names a
//! participant of the virtual community, [`NodeId`] is a position on
//! the DHT identifier ring (derived from a `PeerId` by hashing), and
//! [`RequestId`] uniquely names one introduction request so that score
//! managers can deduplicate the "multiple introduction" attack of §2.

use crate::hash::splitmix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a peer in the virtual community.
///
/// Peer ids are dense (assigned sequentially by the community), which
/// lets simulation state use `Vec`-indexed storage, but the type is
/// opaque so call-sites cannot accidentally index with the wrong
/// number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub u64);

impl PeerId {
    /// Returns the raw numeric id.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the id as a `usize` index for dense storage.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Derives the DHT ring position for this peer.
    ///
    /// The mapping is a fixed bijective mix so that sequentially
    /// assigned peer ids land uniformly on the ring, as a real DHT
    /// would achieve by hashing a public key.
    #[inline]
    pub fn node_id(self) -> NodeId {
        NodeId(splitmix64(self.0 ^ 0x9e37_79b9_7f4a_7c15))
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl From<u64> for PeerId {
    fn from(v: u64) -> Self {
        PeerId(v)
    }
}

/// A position on the 64-bit DHT identifier ring.
///
/// Arithmetic on the ring is modular; [`NodeId::distance_to`] gives the
/// clockwise distance used by Chord-style routing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the raw ring coordinate.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Clockwise distance from `self` to `other` on the ring.
    #[inline]
    pub const fn distance_to(self, other: NodeId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// True if `self` lies in the half-open clockwise interval
    /// `(from, to]` on the ring.
    ///
    /// This is the interval test used by Chord's successor logic; it is
    /// well-defined even when the interval wraps around zero. When
    /// `from == to` the interval is the whole ring, so the test is
    /// always true.
    #[inline]
    pub fn in_interval(self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        from.distance_to(self) <= from.distance_to(to) && self != from
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{:016x}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{:016x}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// Unique identifier of a single introduction request.
///
/// §2 of the paper: *"The introduction request carries the identity of
/// both the introducer and the new peer to whom this amount is being
/// lent **as well as a unique id to prevent duplicate requests**."*
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Monotonic generator of [`RequestId`]s.
///
/// Kept deliberately simple (not thread-safe) — each simulated
/// community owns exactly one generator, and determinism matters more
/// than concurrency here.
#[derive(Debug, Default, Clone)]
pub struct RequestIdGen {
    next: u64,
}

impl RequestIdGen {
    /// Returns a fresh, never-before-issued request id.
    pub fn next_id(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_id_roundtrip() {
        let p = PeerId(42);
        assert_eq!(p.raw(), 42);
        assert_eq!(p.index(), 42);
        assert_eq!(PeerId::from(42), p);
        assert_eq!(format!("{p}"), "peer#42");
        assert_eq!(format!("{p:?}"), "peer#42");
    }

    #[test]
    fn node_ids_of_distinct_peers_differ() {
        let a = PeerId(0).node_id();
        let b = PeerId(1).node_id();
        assert_ne!(a, b);
    }

    #[test]
    fn node_id_mapping_is_deterministic() {
        assert_eq!(PeerId(7).node_id(), PeerId(7).node_id());
    }

    #[test]
    fn distance_wraps_around() {
        let a = NodeId(u64::MAX - 1);
        let b = NodeId(3);
        assert_eq!(a.distance_to(b), 5);
        assert_eq!(b.distance_to(a), u64::MAX - 4);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = NodeId(123);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn interval_simple() {
        // (10, 20]: 15 and 20 are inside, 10 and 25 are not.
        let from = NodeId(10);
        let to = NodeId(20);
        assert!(NodeId(15).in_interval(from, to));
        assert!(NodeId(20).in_interval(from, to));
        assert!(!NodeId(10).in_interval(from, to));
        assert!(!NodeId(25).in_interval(from, to));
        assert!(!NodeId(5).in_interval(from, to));
    }

    #[test]
    fn interval_wrapping() {
        // (MAX-2, 5]: wraps through zero.
        let from = NodeId(u64::MAX - 2);
        let to = NodeId(5);
        assert!(NodeId(u64::MAX).in_interval(from, to));
        assert!(NodeId(0).in_interval(from, to));
        assert!(NodeId(5).in_interval(from, to));
        assert!(!NodeId(6).in_interval(from, to));
        assert!(!NodeId(u64::MAX - 2).in_interval(from, to));
    }

    #[test]
    fn interval_degenerate_full_ring() {
        let x = NodeId(7);
        assert!(NodeId(0).in_interval(x, x));
        assert!(NodeId(u64::MAX).in_interval(x, x));
    }

    #[test]
    fn request_id_gen_is_monotonic_and_unique() {
        let mut gen = RequestIdGen::default();
        let a = gen.next_id();
        let b = gen.next_id();
        let c = gen.next_id();
        assert_eq!(a, RequestId(0));
        assert_eq!(b, RequestId(1));
        assert_eq!(c, RequestId(2));
        assert!(a < b && b < c);
    }
}
