//! The simulated overlay of a crash-model engine: the Chord-style
//! ring (the [`ring`](crate::ring) module), the replica-key index and
//! the per-replica re-home counters, and the crash model that churn
//! drives through them.
//!
//! A re-homing moves a replica to another score manager and, with
//! probability `crash_prob` (the deterministic [`crash_roll`]), loses
//! its state on the way. That loss is the overlay's only effect on a
//! score, a delta or a count: with `crash_prob == 0` every re-homing
//! is a no-op. So [`RocqEngine`](crate::engine::RocqEngine) builds an
//! [`Overlay`] only when the crash model is on, and without one a join
//! or a departure touches nothing but the subject arena.

use crate::ring::{replica_key, HandoffEvent, Ring};
use crate::state::{InvalidState, OverlayState, ShardState};
use replend_types::arena::{Handle, InlineList};
use replend_types::hash::{salted, splitmix64};
use replend_types::{NodeId, PeerId};
use std::collections::BTreeMap;

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

/// The `(subject handle, replica slot)` assignments of one ring key:
/// nearly always one entry, so two inline slots keep the index
/// heap-allocation-free. List order is unobservable (one subject's
/// entries are in slot order however the list was built; different
/// subjects recover disjoint state), so a checkpoint rebuilds it.
type AssignList = InlineList<(Handle, u32), 2>;

/// All replica keys of `index` lying in the clockwise interval
/// `(start, end]`, with their assignment lists borrowed in place.
/// `start == end` denotes the whole ring (first join).
fn assignments_in_arc(
    index: &BTreeMap<NodeId, AssignList>,
    start: NodeId,
    end: NodeId,
) -> impl Iterator<Item = &AssignList> {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    // Express all three arc shapes as one range plus an optional
    // wrap-around range, so the return type is a single chain.
    let (first, wrap) = if start == end {
        ((Unbounded, Unbounded), None)
    } else if start < end {
        ((Excluded(start), Included(end)), None)
    } else {
        // Wrapping arc: (start, MAX] ∪ [MIN, end].
        (
            (Excluded(start), Unbounded),
            Some((Unbounded, Included(end))),
        )
    };
    index
        .range(first)
        .chain(wrap.map(|r| index.range(r)).into_iter().flatten())
        .map(|(_, list)| list)
}

/// The simulated overlay of one engine and the crash model it drives.
///
/// Every registered subject is also an overlay node (in the paper,
/// peers *are* the DHT nodes that act as score managers), so a
/// registration is a ring join and a removal a ring leave. Each join
/// or leave re-homes the replicas in the moved arc, and each re-homing
/// rolls [`crash_roll`] against `crash_prob`. The overlay reports the
/// `(handle, slot)` replicas that lost their state; the engine
/// recovers them from a sibling replica, which changes state only when
/// there is none (`numSM = 1`). A replica's re-home counter sits at
/// `handle · numSM + slot`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay {
    ring: Ring,
    /// Replica-key index: key → inline (handle, slot) list, so a
    /// handoff visits only the moved replicas.
    key_index: BTreeMap<NodeId, AssignList>,
    /// Times each replica lane has been re-homed (0 on vacant lanes) —
    /// with the seed, subject and slot, it decides the lane's *next*
    /// crash roll.
    rehomes: Vec<u64>,
    /// Replica re-homings processed so far.
    pub(crate) rehomings: u64,
    /// Re-homings that lost state.
    pub(crate) crash_losses: u64,
    /// Lanes the last handoff lost, in processing order (cleared,
    /// never freed).
    lost: Vec<(Handle, usize)>,
    num_sm: usize,
    /// Engine seed — the source of the crash rolls.
    seed: u64,
    crash_prob: f64,
}

impl Overlay {
    /// An empty overlay for an engine with `num_sm` score managers per
    /// subject.
    pub(crate) fn new(num_sm: usize, seed: u64, crash_prob: f64) -> Self {
        Overlay {
            num_sm,
            seed,
            crash_prob,
            ..Overlay::default()
        }
    }

    /// `peer` joins the ring, taking over an arc of replicas. Returns
    /// the replicas whose state the re-homing lost, in processing order.
    /// `peers` maps a handle to its subject. Call before
    /// [`Overlay::place`] indexes the newcomer's own replicas.
    pub(crate) fn join(&mut self, peer: PeerId, peers: &[PeerId]) -> &[(Handle, usize)] {
        let event = self.ring.join(peer.node_id());
        self.rehome(event, peers)
    }

    /// Indexes the replica keys of `peer`, registered at `h`.
    pub(crate) fn place(&mut self, peer: PeerId, h: Handle) {
        let end = (h.index() + 1) * self.num_sm;
        if self.rehomes.len() < end {
            self.rehomes.resize(end, 0);
        }
        for slot in 0..self.num_sm {
            let key = replica_key(peer, slot);
            self.key_index
                .entry(key)
                .or_default()
                .push((h, slot as u32));
        }
    }

    /// `peer`, just removed from handle `h`, drops its replica keys and
    /// re-home counters and leaves the ring, handing its arc to its
    /// successor. Returns the replicas whose state the re-homing lost, in
    /// processing order.
    pub(crate) fn leave(
        &mut self,
        peer: PeerId,
        h: Handle,
        peers: &[PeerId],
    ) -> &[(Handle, usize)] {
        for slot in 0..self.num_sm {
            let key = replica_key(peer, slot);
            if let Some(list) = self.key_index.get_mut(&key) {
                list.retain(|&a| a != (h, slot as u32));
                if list.is_empty() {
                    self.key_index.remove(&key);
                }
            }
        }
        let base = h.index() * self.num_sm;
        self.rehomes[base..base + self.num_sm].fill(0);
        let event = self.ring.leave(peer.node_id());
        self.rehome(event, peers)
    }

    /// Re-homes every replica whose key lies in the arc `event` moved
    /// (if any) and returns the ones the crash roll says lost their
    /// state.
    fn rehome(&mut self, event: Option<HandoffEvent>, peers: &[PeerId]) -> &[(Handle, usize)] {
        self.lost.clear();
        let Some(event) = event else {
            return &self.lost;
        };
        for list in assignments_in_arc(&self.key_index, event.range_start, event.range_end) {
            for &(h, slot) in list.as_slice() {
                self.rehomings += 1;
                let slot = slot as usize;
                let rehomes = &mut self.rehomes[h.index() * self.num_sm + slot];
                let roll = crash_roll(self.seed, peers[h.index()], slot, *rehomes);
                *rehomes += 1;
                if roll < self.crash_prob {
                    self.crash_losses += 1;
                    self.lost.push((h, slot));
                }
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
    /// from the subjects' replica keys.
    pub(crate) fn import(
        s: &OverlayState,
        shard: &ShardState,
        num_sm: usize,
        seed: u64,
        crash_prob: f64,
    ) -> Result<Self, InvalidState> {
        let lanes = shard.capacity as usize * num_sm;
        if s.rehomes.len() != lanes {
            return Err(InvalidState(format!(
                "re-home array disagrees with {lanes} replica lanes"
            )));
        }
        // The export writes the ring in ascending order; enforce it
        // rather than trusting the bytes.
        if !s.ring.windows(2).all(|w| w[0] < w[1]) {
            return Err(InvalidState("ring nodes not strictly ascending".into()));
        }
        let mut overlay = Overlay::new(num_sm, seed, crash_prob);
        overlay.ring = Ring::from_sorted_nodes(s.ring.iter().copied());
        overlay.rehomes.clone_from(&s.rehomes);
        overlay.rehomings = s.rehomings;
        overlay.crash_losses = s.crash_losses;
        for &(peer, h) in &shard.index {
            overlay.place(peer, h);
        }
        Ok(overlay)
    }
}
