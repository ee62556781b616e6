//! The identifier ring: membership, successor ownership, churn.
//!
//! The ring is the ground truth of the overlay. Each key (a 64-bit
//! [`NodeId`]) is *owned* by its clockwise successor among the live
//! nodes — the standard consistent-hashing rule Chord uses. Joins and
//! leaves shift ownership of a contiguous arc, which the ring reports
//! as a [`HandoffEvent`] so higher layers (the ROCQ score managers)
//! can migrate their per-key state.

use replend_types::NodeId;
use std::collections::BTreeMap;

/// Ownership transfer caused by churn.
///
/// After the event, every key in the half-open clockwise interval
/// `(range_start, range_end]` is owned by `to` instead of `from`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandoffEvent {
    /// Previous owner (`None` when the ring was empty).
    pub from: Option<NodeId>,
    /// New owner.
    pub to: NodeId,
    /// Exclusive start of the transferred arc.
    pub range_start: NodeId,
    /// Inclusive end of the transferred arc.
    pub range_end: NodeId,
}

/// The membership view of a Chord-style ring.
///
/// Internally a `BTreeMap<NodeId, ()>` over live node ids; successor
/// queries are `O(log n)`.
#[derive(Clone, Debug, Default)]
pub struct Ring {
    nodes: BTreeMap<NodeId, ()>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// A ring over an already-known membership, without replaying the
    /// joins or computing handoffs — the checkpoint-restore path,
    /// where ownership state is restored separately. `BTreeMap`'s
    /// bulk construction makes this `O(n)` for sorted input (which is
    /// how checkpoints store the ring).
    pub fn from_sorted_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Ring {
            nodes: nodes.into_iter().map(|n| (n, ())).collect(),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `node` is currently a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// The clockwise successor of `key` — the live node owning `key`.
    ///
    /// Returns `None` only when the ring is empty.
    pub fn successor(&self, key: NodeId) -> Option<NodeId> {
        self.nodes
            .range(key..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(id, _)| *id)
    }

    /// The `k`-th distinct successor of `key` (0-based): the owner,
    /// then the next live node clockwise, and so on, wrapping.
    ///
    /// Returns `None` when the ring has fewer than `k + 1` nodes.
    #[cfg(test)]
    pub(crate) fn successor_nth(&self, key: NodeId, k: usize) -> Option<NodeId> {
        if self.nodes.len() <= k {
            return None;
        }
        self.nodes
            .range(key..)
            .map(|(id, _)| *id)
            .chain(self.nodes.keys().copied())
            .nth(k)
    }

    /// The closest live predecessor of `node` (exclusive), i.e. the
    /// node counter-clockwise of it. `None` if `node` is the only
    /// member or the ring is empty.
    pub(crate) fn predecessor(&self, node: NodeId) -> Option<NodeId> {
        if self.nodes.len() < 2 && self.contains(node) {
            return None;
        }
        if self.nodes.is_empty() {
            return None;
        }
        self.nodes
            .range(..node)
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(id, _)| *id)
            .filter(|p| *p != node)
    }

    /// Adds `node` to the ring, returning the ownership handoff the
    /// join causes: the new node takes over the arc
    /// `(predecessor, node]` from its successor.
    ///
    /// Joining an id that is already live is a no-op returning `None`.
    pub fn join(&mut self, node: NodeId) -> Option<HandoffEvent> {
        if self.contains(node) {
            return None;
        }
        self.nodes.insert(node, ());
        if self.nodes.len() == 1 {
            // First node owns the whole ring; nothing to hand off.
            return Some(HandoffEvent {
                from: None,
                to: node,
                range_start: node,
                range_end: node,
            });
        }
        let pred = self
            .predecessor(node)
            .expect("ring has >= 2 nodes, predecessor exists");
        let old_owner = self
            .successor(NodeId(node.raw().wrapping_add(1)))
            .expect("non-empty ring");
        Some(HandoffEvent {
            from: Some(old_owner),
            to: node,
            range_start: pred,
            range_end: node,
        })
    }

    /// Removes `node`, returning the handoff of its arc to its
    /// successor. Removing an unknown node is a no-op returning
    /// `None`; removing the last node empties the ring (also `None`,
    /// since there is no surviving owner).
    pub fn leave(&mut self, node: NodeId) -> Option<HandoffEvent> {
        if !self.contains(node) {
            return None;
        }
        let pred = self.predecessor(node);
        self.nodes.remove(&node);
        let heir = self.successor(node)?;
        Some(HandoffEvent {
            from: Some(node),
            to: heir,
            range_start: pred.unwrap_or(node),
            range_end: node,
        })
    }

    /// Collects all live nodes into a vector (ring order).
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use replend_types::PeerId;

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
    fn successor_nth_walks_clockwise() {
        let r = ring_of(&[10, 20, 30]);
        assert_eq!(r.successor_nth(NodeId(5), 0), Some(NodeId(10)));
        assert_eq!(r.successor_nth(NodeId(5), 1), Some(NodeId(20)));
        assert_eq!(r.successor_nth(NodeId(5), 2), Some(NodeId(30)));
        assert_eq!(r.successor_nth(NodeId(5), 3), None, "only 3 nodes");
        assert_eq!(r.successor_nth(NodeId(25), 1), Some(NodeId(10)), "wraps");
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
        assert_eq!(ev.from, Some(NodeId(30)));
        assert_eq!(ev.to, NodeId(20));
        assert_eq!(ev.range_start, NodeId(10));
        assert_eq!(ev.range_end, NodeId(20));
    }

    #[test]
    fn duplicate_join_is_noop() {
        let mut r = ring_of(&[10]);
        assert!(r.join(NodeId(10)).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn leave_reports_arc_to_successor() {
        let mut r = ring_of(&[10, 20, 30]);
        let ev = r.leave(NodeId(20)).unwrap();
        assert_eq!(ev.from, Some(NodeId(20)));
        assert_eq!(ev.to, NodeId(30));
        assert_eq!(ev.range_start, NodeId(10));
        assert_eq!(ev.range_end, NodeId(20));
        assert!(!r.contains(NodeId(20)));
    }

    #[test]
    fn leave_unknown_is_noop() {
        let mut r = ring_of(&[10]);
        assert!(r.leave(NodeId(99)).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn leave_last_node_empties_ring() {
        let mut r = ring_of(&[10]);
        assert!(r.leave(NodeId(10)).is_none());
        assert!(r.is_empty());
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
        assert_eq!(r.len(), 128, "no collisions among 128 peers");
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

        /// successor_nth yields k distinct nodes in clockwise order.
        #[test]
        fn successor_nth_distinct(
            ids in proptest::collection::btree_set(proptest::num::u64::ANY, 3..32),
            key in proptest::num::u64::ANY,
        ) {
            let r = ring_of(&ids.iter().copied().collect::<Vec<_>>());
            let n = ids.len().min(6);
            let got: Vec<_> = (0..n).map(|k| r.successor_nth(NodeId(key), k).unwrap()).collect();
            let mut dedup = got.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), got.len(), "successors must be distinct");
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
            prop_assume!(!r.contains(NodeId(newcomer)));
            let ev = r.join(NodeId(newcomer)).unwrap();
            for p in probes {
                let key = NodeId(p);
                if key.in_interval(ev.range_start, ev.range_end) {
                    prop_assert_eq!(r.successor(key), Some(ev.to));
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
            for p in probes {
                let key = NodeId(p);
                if key.in_interval(ev.range_start, ev.range_end) {
                    prop_assert_eq!(r.successor(key), Some(ev.to));
                }
            }
        }
    }
}
