//! The dense list of live slots shared by the slot-based topologies.
//!
//! [`ScaleFreeTopology`](crate::scale_free::ScaleFreeTopology) and
//! [`ZipfTopology`](crate::zipf::ZipfTopology) give every arrival the
//! next topology slot — slots are dense and never reused — and keep
//! their per-slot state in vectors indexed by slot. Uniform sampling
//! needs the live slots as one dense list; [`LiveSlots`] is that list
//! plus each slot's position in it, itself a vector indexed by slot,
//! so a removal or an excluded draw costs no hash probe.

use rand::{Rng, RngCore};

/// Position of a slot that is not (or no longer) live.
const NOT_LIVE: u32 = u32::MAX;

/// Live topology slots with O(1) push, swap-remove and uniform draws.
#[derive(Clone, Debug)]
pub(crate) struct LiveSlots {
    /// The live slots, in swap-remove order.
    live: Vec<u32>,
    /// Slot → its position in `live`, or [`NOT_LIVE`].
    pos: Vec<u32>,
}

impl LiveSlots {
    /// An empty list with room for `n` slots.
    pub(crate) fn with_capacity(n: usize) -> Self {
        LiveSlots {
            live: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
        }
    }

    /// Makes `slot`, the next never-used slot, live.
    pub(crate) fn push(&mut self, slot: usize) {
        debug_assert_eq!(slot, self.pos.len(), "slots are dense and never reused");
        self.pos.push(self.live.len() as u32);
        self.live.push(slot as u32);
    }

    /// Retires the live `slot` for good (swap-remove from the list).
    pub(crate) fn remove(&mut self, slot: usize) {
        let pos = std::mem::replace(&mut self.pos[slot], NOT_LIVE);
        assert_ne!(pos, NOT_LIVE, "live slot tracked");
        let pos = pos as usize;
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.pos[moved as usize] = pos as u32;
        }
    }

    /// True while `slot` is live.
    pub(crate) fn is_live(&self, slot: usize) -> bool {
        self.pos[slot] != NOT_LIVE
    }

    /// The live slots, in swap-remove order.
    pub(crate) fn slots(&self) -> &[u32] {
        &self.live
    }

    /// Number of live slots.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Draws a live slot uniformly, excluding `exclude` when it is
    /// live: one draw over the other `n − 1` positions, skipping the
    /// excluded one.
    pub(crate) fn sample_uniform(
        &self,
        rng: &mut dyn RngCore,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let n = self.live.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            let only = self.live[0] as usize;
            return (Some(only) != exclude).then_some(only);
        }
        let ex_pos = exclude.map(|s| self.pos[s]).filter(|&p| p != NOT_LIVE);
        let i = match ex_pos {
            None => rng.gen_range(0..n),
            Some(ex_pos) => {
                let i = rng.gen_range(0..n - 1);
                if i >= ex_pos as usize {
                    i + 1
                } else {
                    i
                }
            }
        };
        Some(self.live[i] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn removal_swaps_the_last_slot_into_the_hole() {
        let mut l = LiveSlots::with_capacity(0);
        for s in 0..5 {
            l.push(s);
        }
        l.remove(1);
        assert_eq!(l.slots(), &[0, 4, 2, 3]);
        l.remove(3);
        assert_eq!(l.slots(), &[0, 4, 2]);
        l.remove(0);
        assert_eq!(l.slots(), &[2, 4]);
        assert!(!l.is_live(0) && !l.is_live(1) && !l.is_live(3));
        assert!(l.is_live(2) && l.is_live(4));
        l.push(5);
        assert_eq!(l.slots(), &[2, 4, 5]);
    }

    #[test]
    fn uniform_draws_skip_only_a_live_exclusion() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = LiveSlots::with_capacity(6);
        for s in 0..6 {
            l.push(s);
        }
        l.remove(2);
        let mut hits = [0u32; 6];
        for _ in 0..5_000 {
            hits[l.sample_uniform(&mut rng, Some(4)).unwrap()] += 1;
        }
        assert_eq!((hits[2], hits[4]), (0, 0));
        assert!([0, 1, 3, 5].iter().all(|&s| hits[s] > 1_000), "{hits:?}");
        // A retired slot as the exclusion excludes nothing further.
        let mut hits = [0u32; 6];
        for _ in 0..5_000 {
            hits[l.sample_uniform(&mut rng, Some(2)).unwrap()] += 1;
        }
        assert_eq!(hits[2], 0);
        assert!([0, 1, 3, 4, 5].iter().all(|&s| hits[s] > 800), "{hits:?}");

        let mut one = LiveSlots::with_capacity(2);
        one.push(0);
        one.push(1);
        one.remove(0);
        assert_eq!(one.sample_uniform(&mut rng, Some(1)), None);
        assert_eq!(one.sample_uniform(&mut rng, Some(0)), Some(1));
        one.remove(1);
        assert_eq!(one.sample_uniform(&mut rng, None), None);
    }
}
