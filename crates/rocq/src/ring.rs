//! The overlay: a Chord-style identifier ring and score-manager
//! placement.
//!
//! The paper assumes *"a structured overlay that uses distributed hash
//! tables for routing and for selecting score managers that keep track
//! of all feedback pertaining to a peer"* (§2). The overlay is
//! simulated in-process: there are no sockets, and "messages" are
//! delivered instantly, exactly as in the paper's simulator (§3).
//!
//! Each key (a 64-bit [`NodeId`]) is *owned* by its clockwise
//! successor among the live nodes — the standard consistent-hashing
//! rule Chord uses. Joins and leaves shift ownership of a contiguous
//! arc, which the ring reports as a [`HandoffEvent`] so the
//! [`Overlay`](crate::overlay::Overlay) can re-home the replicas whose
//! keys lie in it.
//!
//! Replica `i` of peer `p` lives at the ring key [`replica_key`]`(p,
//! i)`; its score manager is that key's successor, and two replicas
//! whose keys share an owner share that manager. Independent salted
//! keys (rather than the successor list of a single key) spread a
//! peer's managers across the whole ring, which is what makes the
//! `numSM`-fold redundancy meaningful: *"Since each score manager of
//! the introducer sends messages to each score manager of the new
//! peer, redundancy is introduced in the system in case a score
//! manager crashes"* (§2).

use replend_types::hash::salted;
use replend_types::{NodeId, PeerId};
use std::collections::BTreeSet;

/// The replica key of peer `peer`'s `i`-th score manager.
#[inline]
pub(crate) fn replica_key(peer: PeerId, i: usize) -> NodeId {
    NodeId(salted(peer.raw(), i as u64))
}

/// Ownership transfer caused by churn: every key in the half-open
/// clockwise interval `(range_start, range_end]` changed owner (to the
/// joining node, or to the leaving node's successor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct HandoffEvent {
    /// Exclusive start of the transferred arc.
    pub range_start: NodeId,
    /// Inclusive end of the transferred arc.
    pub range_end: NodeId,
}

/// The membership view of a Chord-style ring.
///
/// Internally a `BTreeSet<NodeId>` of live node ids; successor
/// queries are `O(log n)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ring {
    nodes: BTreeSet<NodeId>,
}

impl Ring {
    /// An empty ring.
    pub(crate) fn new() -> Self {
        Ring::default()
    }

    /// A ring over an already-known membership, without replaying the
    /// joins or computing handoffs — the checkpoint-restore path,
    /// where ownership state is restored separately.
    pub(crate) fn from_nodes(nodes: BTreeSet<NodeId>) -> Self {
        Ring { nodes }
    }

    /// The closest live predecessor of `node` (exclusive), i.e. the
    /// node counter-clockwise of it. `None` if `node` is the only
    /// member or the ring is empty.
    pub(crate) fn predecessor(&self, node: NodeId) -> Option<NodeId> {
        if self.nodes.len() < 2 && self.nodes.contains(&node) {
            return None;
        }
        if self.nodes.is_empty() {
            return None;
        }
        self.nodes
            .range(..node)
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .copied()
            .filter(|p| *p != node)
    }

    /// Adds `node` to the ring, returning the ownership handoff the
    /// join causes: the new node takes over the arc
    /// `(predecessor, node]` from its successor.
    ///
    /// Joining an id that is already live is a no-op returning `None`.
    pub(crate) fn join(&mut self, node: NodeId) -> Option<HandoffEvent> {
        if !self.nodes.insert(node) {
            return None;
        }
        // The first node has no predecessor and takes the whole ring
        // (`range_start == range_end`).
        Some(HandoffEvent {
            range_start: self.predecessor(node).unwrap_or(node),
            range_end: node,
        })
    }

    /// Removes `node`, returning the handoff of its arc to its
    /// successor. Removing an unknown node is a no-op returning
    /// `None`; removing the last node empties the ring (also `None`,
    /// since there is no surviving owner).
    pub(crate) fn leave(&mut self, node: NodeId) -> Option<HandoffEvent> {
        if !self.nodes.remove(&node) {
            return None;
        }
        // The survivors' predecessor of `node`; none once it is empty.
        Some(HandoffEvent {
            range_start: self.predecessor(node)?,
            range_end: node,
        })
    }

    /// Collects all live nodes into a vector (ring order).
    pub(crate) fn to_vec(&self) -> Vec<NodeId> {
        self.nodes.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Ring {
        /// The clockwise successor of `key` — the live node owning
        /// `key`, the rule every reported handoff must agree with.
        /// `None` only when the ring is empty.
        fn successor(&self, key: NodeId) -> Option<NodeId> {
            self.nodes
                .range(key..)
                .next()
                .or_else(|| self.nodes.iter().next())
                .copied()
        }
    }

    fn ring_of(ids: &[u64]) -> Ring {
        let mut r = Ring::new();
        for &i in ids {
            r.join(NodeId(i));
        }
        r
    }

    #[test]
    fn empty_ring_has_no_successor() {
        assert_eq!(Ring::new().successor(NodeId(0)), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let r = ring_of(&[100]);
        assert_eq!(r.successor(NodeId(0)), Some(NodeId(100)));
        assert_eq!(r.successor(NodeId(100)), Some(NodeId(100)));
        assert_eq!(r.successor(NodeId(101)), Some(NodeId(100)), "wraps");
    }

    #[test]
    fn successor_basic() {
        let r = ring_of(&[10, 20, 30]);
        assert_eq!(r.successor(NodeId(5)), Some(NodeId(10)));
        assert_eq!(r.successor(NodeId(10)), Some(NodeId(10)));
        assert_eq!(r.successor(NodeId(11)), Some(NodeId(20)));
        assert_eq!(r.successor(NodeId(31)), Some(NodeId(10)), "wraps past max");
    }

    #[test]
    fn predecessor_basic() {
        let r = ring_of(&[10, 20, 30]);
        assert_eq!(r.predecessor(NodeId(20)), Some(NodeId(10)));
        assert_eq!(r.predecessor(NodeId(10)), Some(NodeId(30)), "wraps");
        assert_eq!(ring_of(&[10]).predecessor(NodeId(10)), None);
    }

    #[test]
    fn join_reports_arc_from_successor() {
        let mut r = ring_of(&[10, 30]);
        let ev = r.join(NodeId(20)).unwrap();
        // 20 takes (10, 20] from 30.
        assert_eq!(ev.range_start, NodeId(10));
        assert_eq!(ev.range_end, NodeId(20));
    }

    #[test]
    fn duplicate_join_is_noop() {
        let mut r = ring_of(&[10]);
        assert!(r.join(NodeId(10)).is_none());
        assert_eq!(r.nodes.len(), 1);
    }

    #[test]
    fn leave_reports_arc_to_successor() {
        let mut r = ring_of(&[10, 20, 30]);
        let ev = r.leave(NodeId(20)).unwrap();
        assert_eq!(ev.range_start, NodeId(10));
        assert_eq!(ev.range_end, NodeId(20));
        assert_eq!(r.to_vec(), vec![NodeId(10), NodeId(30)]);
        assert_eq!(r.successor(NodeId(20)), Some(NodeId(30)), "30 inherits");
    }

    #[test]
    fn leave_unknown_is_noop() {
        let mut r = ring_of(&[10]);
        assert!(r.leave(NodeId(99)).is_none());
        assert_eq!(r.nodes.len(), 1);
    }

    #[test]
    fn leave_last_node_empties_ring() {
        let mut r = ring_of(&[10]);
        assert!(r.leave(NodeId(10)).is_none());
        assert_eq!(r.nodes.len(), 0);
    }

    #[test]
    fn join_then_leave_restores_ownership() {
        let mut r = ring_of(&[10, 30]);
        let before: Vec<_> = (0..40).map(|k| r.successor(NodeId(k))).collect();
        r.join(NodeId(20));
        r.leave(NodeId(20));
        let after: Vec<_> = (0..40).map(|k| r.successor(NodeId(k))).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn peer_node_ids_spread_over_ring() {
        // Sequential peer ids must not cluster on the ring, otherwise
        // score-manager load would be skewed.
        let mut r = Ring::new();
        for p in 0..128u64 {
            r.join(PeerId(p).node_id());
        }
        assert_eq!(r.nodes.len(), 128, "no collisions among 128 peers");
        // Max gap should be far below the whole ring: with 128 random
        // points the expected max arc is ~ (ln 128 / 128) of the ring.
        let ids = r.to_vec();
        let mut max_gap = 0u64;
        for w in ids.windows(2) {
            max_gap = max_gap.max(w[0].distance_to(w[1]));
        }
        max_gap = max_gap.max(ids[ids.len() - 1].distance_to(ids[0]));
        assert!(
            max_gap < u64::MAX / 8,
            "max arc {max_gap:x} suspiciously large"
        );
    }

    proptest! {
        /// Replica keys are deterministic and distinct per replica.
        #[test]
        fn replica_keys_distinct(peer in proptest::num::u64::ANY) {
            let keys: Vec<NodeId> = (0..6).map(|i| replica_key(PeerId(peer), i)).collect();
            let mut dedup = keys.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), keys.len());
        }

        /// The successor function equals the naive definition.
        #[test]
        fn successor_matches_naive(
            ids in proptest::collection::btree_set(proptest::num::u64::ANY, 1..64),
            key in proptest::num::u64::ANY,
        ) {
            let r = ring_of(&ids.iter().copied().collect::<Vec<_>>());
            let naive = ids
                .iter()
                .copied()
                .filter(|&n| n >= key)
                .min()
                .or_else(|| ids.iter().copied().min())
                .map(NodeId);
            prop_assert_eq!(r.successor(NodeId(key)), naive);
        }

        /// Join handoff invariant: after a join, every key in the
        /// reported arc is owned by the new node.
        #[test]
        fn join_handoff_is_sound(
            ids in proptest::collection::btree_set(proptest::num::u64::ANY, 2..32),
            newcomer in proptest::num::u64::ANY,
            probes in proptest::collection::vec(proptest::num::u64::ANY, 8),
        ) {
            let mut r = ring_of(&ids.iter().copied().collect::<Vec<_>>());
            prop_assume!(!ids.contains(&newcomer));
            let ev = r.join(NodeId(newcomer)).unwrap();
            for p in probes {
                let key = NodeId(p);
                if key.in_interval(ev.range_start, ev.range_end) {
                    prop_assert_eq!(r.successor(key), Some(NodeId(newcomer)));
                }
            }
        }

        /// Leave handoff invariant: after a leave, every key in the
        /// reported arc is owned by the heir.
        #[test]
        fn leave_handoff_is_sound(
            ids in proptest::collection::btree_set(proptest::num::u64::ANY, 3..32),
            probes in proptest::collection::vec(proptest::num::u64::ANY, 8),
        ) {
            let list: Vec<u64> = ids.iter().copied().collect();
            let mut r = ring_of(&list);
            let leaver = NodeId(list[list.len() / 2]);
            let ev = r.leave(leaver).unwrap();
            let heir = r.successor(leaver);
            for p in probes {
                let key = NodeId(p);
                if key.in_interval(ev.range_start, ev.range_end) {
                    prop_assert_eq!(r.successor(key), heir);
                }
            }
        }
    }
}
