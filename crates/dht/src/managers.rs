//! Score-manager placement.
//!
//! §2: each peer has `numSM` *score managers* — overlay nodes selected
//! through the DHT — that keep all feedback pertaining to the peer.
//! Replica `i` of peer `p` lives at the ring key `salted(p, i)`; the
//! manager is that key's successor on the [`Ring`](crate::ring::Ring),
//! and two replicas whose keys share an owner share that manager.
//! Using independent salted keys (rather than the successor list of a
//! single key) spreads a peer's managers across the whole ring, which
//! is what makes the redundancy meaningful: *"Since each score manager
//! of the introducer sends messages to each score manager of the new
//! peer, redundancy is introduced in the system in case a score
//! manager crashes"* (§2).

use replend_types::hash::salted;
use replend_types::{NodeId, PeerId};

/// The replica key of peer `peer`'s `i`-th score manager.
#[inline]
pub fn replica_key(peer: PeerId, i: usize) -> NodeId {
    NodeId(salted(peer.raw(), i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    }
}
