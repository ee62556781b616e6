//! The simulated overlay of a crash-model engine: the Chord-style
//! ring (the [`ring`](crate::ring) module), the replica-key index and
//! the re-home counters, and the crash model that churn drives through
//! them.
//!
//! A re-homing moves a replica to another score manager and, with
//! probability `crash_prob` (the deterministic [`crash_roll`]), loses
//! its state on the way. That loss is the overlay's only effect on a
//! score, a delta or a count, and it changes a value only when the
//! lost replica has no sibling to recover from: with `crash_prob == 0`
//! every re-homing is a no-op, and with `numSM > 1` recovery copies a
//! sibling that is already bit-equal. So
//! [`RocqEngine`](crate::engine::RocqEngine) builds an [`Overlay`]
//! only when `crash_prob > 0` and `numSM == 1`, and the overlay tracks
//! one replica per subject. Without one, a join or a departure touches
//! nothing but the subject arena.

use crate::ring::{replica_key, HandoffEvent, Ring};
use crate::state::{InvalidState, OverlayState, ShardState};
use replend_types::arena::Handle;
use replend_types::hash::{salted, splitmix64};
use replend_types::{NodeId, PeerId};
use std::collections::BTreeSet;

/// The deterministic crash-loss roll: a uniform `[0, 1)` value hashed
/// from the engine seed and the replica's identity and re-homing
/// count. Independent of the order in which re-homings are
/// processed. Shared with the
/// [`reference`](crate::reference) layout so both engines roll
/// identically.
#[inline]
pub(crate) fn crash_roll(seed: u64, subject: PeerId, slot: usize, rehomes: u64) -> f64 {
    // slot < numSM (single digits) and rehomes grow slowly; packing
    // them into one salt keeps the tuple collision-free in practice.
    let salt = ((slot as u64) << 48) ^ rehomes;
    let bits = splitmix64(seed ^ salted(subject.raw(), salt));
    // 53 high bits → the same [0, 1) grid rand uses for f64.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The handles whose replica keys lie in the clockwise interval
/// `(start, end]`. `start == end` denotes the whole ring (first join).
fn handles_in_arc(
    index: &BTreeSet<(NodeId, Handle)>,
    start: NodeId,
    end: NodeId,
) -> impl Iterator<Item = Handle> + '_ {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    // Bound every entry of a key from above: (k, MAX) sorts after all
    // of `k`'s handles.
    let last = |k: NodeId| (k, Handle::from_index(u32::MAX as usize));
    // Express all three arc shapes as one range plus an optional
    // wrap-around range, so the return type is a single chain.
    let (first, wrap) = if start == end {
        ((Unbounded, Unbounded), None)
    } else if start < end {
        ((Excluded(last(start)), Included(last(end))), None)
    } else {
        // Wrapping arc: (start, MAX] ∪ [MIN, end].
        (
            (Excluded(last(start)), Unbounded),
            Some((Unbounded, Included(last(end)))),
        )
    };
    index
        .range(first)
        .chain(wrap.map(|r| index.range(r)).into_iter().flatten())
        .map(|&(_, h)| h)
}

/// The simulated overlay of one `numSM = 1` crash-model engine.
///
/// Every registered subject is also an overlay node (in the paper,
/// peers *are* the DHT nodes that act as score managers), so a
/// registration is a ring join and a removal a ring leave. Each join
/// or leave re-homes the replicas in the moved arc, and each re-homing
/// rolls [`crash_roll`] against `crash_prob`. The overlay reports the
/// handles whose single replica lost its state; the engine resets
/// them. A replica's re-home counter sits at its handle.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay {
    ring: Ring,
    /// Replica-key index: `(key, handle)` pairs, so a handoff visits
    /// only the moved replicas. The order of handles sharing one key
    /// is unobservable: different subjects recover disjoint state.
    key_index: BTreeSet<(NodeId, Handle)>,
    /// Times each handle's replica has been re-homed (0 on vacant
    /// handles) — with the seed and subject, it decides the replica's
    /// *next* crash roll.
    rehomes: Vec<u64>,
    /// Replica re-homings processed so far.
    pub(crate) rehomings: u64,
    /// Re-homings that lost state.
    pub(crate) crash_losses: u64,
    /// Handles the last handoff lost, in processing order (cleared,
    /// never freed).
    lost: Vec<Handle>,
    /// Engine seed — the source of the crash rolls.
    seed: u64,
    crash_prob: f64,
}

impl Overlay {
    /// An empty overlay.
    pub(crate) fn new(seed: u64, crash_prob: f64) -> Self {
        Overlay {
            seed,
            crash_prob,
            ..Overlay::default()
        }
    }

    /// `peer` joins the ring, taking over an arc of replicas. Returns
    /// the handles whose state the re-homing lost, in processing order.
    /// `peers` maps a handle to its subject. Call before
    /// [`Overlay::place`] indexes the newcomer's own replica.
    pub(crate) fn join(&mut self, peer: PeerId, peers: &[PeerId]) -> &[Handle] {
        let event = self.ring.join(peer.node_id());
        self.rehome(event, peers)
    }

    /// Indexes the replica key of `peer`, registered at `h`.
    pub(crate) fn place(&mut self, peer: PeerId, h: Handle) {
        if self.rehomes.len() <= h.index() {
            self.rehomes.resize(h.index() + 1, 0);
        }
        self.key_index.insert((replica_key(peer, 0), h));
    }

    /// `peer`, just removed from handle `h`, drops its replica key and
    /// re-home counter and leaves the ring, handing its arc to its
    /// successor. Returns the handles whose state the re-homing lost,
    /// in processing order.
    pub(crate) fn leave(&mut self, peer: PeerId, h: Handle, peers: &[PeerId]) -> &[Handle] {
        self.key_index.remove(&(replica_key(peer, 0), h));
        self.rehomes[h.index()] = 0;
        let event = self.ring.leave(peer.node_id());
        self.rehome(event, peers)
    }

    /// Re-homes every replica whose key lies in the arc `event` moved
    /// (if any) and returns the ones the crash roll says lost their
    /// state.
    fn rehome(&mut self, event: Option<HandoffEvent>, peers: &[PeerId]) -> &[Handle] {
        self.lost.clear();
        let Some(event) = event else {
            return &self.lost;
        };
        for h in handles_in_arc(&self.key_index, event.range_start, event.range_end) {
            self.rehomings += 1;
            let rehomes = &mut self.rehomes[h.index()];
            let roll = crash_roll(self.seed, peers[h.index()], 0, *rehomes);
            *rehomes += 1;
            if roll < self.crash_prob {
                self.crash_losses += 1;
                self.lost.push(h);
            }
        }
        &self.lost
    }

    /// Exports the overlay (see the [`state`](crate::state) module
    /// docs). The key index is not exported: import rebuilds it.
    pub(crate) fn export(&self) -> OverlayState {
        OverlayState {
            ring: self.ring.to_vec(),
            rehomes: self.rehomes.clone(),
            rehomings: self.rehomings,
            crash_losses: self.crash_losses,
        }
    }

    /// Rebuilds the overlay of the already-validated arena `shard` —
    /// the inverse of [`Overlay::export`], with the key index rebuilt
    /// from the subjects' replica keys. The ring must hold exactly the
    /// live subjects' node ids and a vacant handle's re-home counter
    /// must be 0, since either defect would silently change future
    /// crash rolls.
    pub(crate) fn import(
        s: &OverlayState,
        shard: &ShardState,
        seed: u64,
        crash_prob: f64,
    ) -> Result<Self, InvalidState> {
        if s.rehomes.len() != shard.capacity as usize {
            return Err(InvalidState(format!(
                "re-home array disagrees with capacity {}",
                shard.capacity
            )));
        }
        if shard.free.iter().any(|h| s.rehomes[h.index()] != 0) {
            return Err(InvalidState("re-home count on a vacant handle".into()));
        }
        // `node_id` is injective, so the live subjects' ids are the
        // ring; the export writes them in ascending order.
        let live: BTreeSet<NodeId> = shard.index.iter().map(|(p, _)| p.node_id()).collect();
        if !s.ring.iter().eq(&live) {
            return Err(InvalidState("ring disagrees with the live subjects".into()));
        }
        let mut overlay = Overlay::new(seed, crash_prob);
        overlay.ring = Ring::from_nodes(live);
        overlay.rehomes.clone_from(&s.rehomes);
        overlay.rehomings = s.rehomings;
        overlay.crash_losses = s.crash_losses;
        for &(peer, h) in &shard.index {
            overlay.place(peer, h);
        }
        Ok(overlay)
    }
}
