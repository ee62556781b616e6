//! The Zipf topology: a *direct* power-law over arrival rank.
//!
//! §3 of the paper says only that *"the probability of a node being
//! chosen as the potential respondent is distributed according to a
//! power-law"*. [`ScaleFreeTopology`](crate::scale_free::ScaleFreeTopology)
//! realizes that through Barabási–Albert degrees; this module is the
//! alternative literal reading — peer `i` (in arrival order) is
//! chosen with probability proportional to `(i + 1)^-s` — with no
//! graph at all.
//!
//! The two readings differ in how much probability mass sits on the
//! founding members: under Zipf with `s = 1`, the 500 founders of a
//! 5 500-peer community absorb ≈ 72% of respondent/introducer choices
//! (`ln 500 / ln 5500`), versus ≈ 35% under BA degrees. The
//! `ablation_topology` binary quantifies what that does to the
//! admission figures.

use crate::fenwick::Fenwick;
use crate::live::LiveSlots;
use crate::Topology;
use rand::{Rng, RngCore};
use replend_types::hash::{PeerHash, PeerMap};
use replend_types::PeerId;

/// Fixed-point scale for the Fenwick weights.
const WEIGHT_SCALE: f64 = 1_000_000.0;

/// Rank-based power-law population: the `r`-th peer to arrive is
/// sampled with probability ∝ `(r + 1)^-s`.
#[derive(Clone, Debug)]
pub(crate) struct ZipfTopology {
    /// Power-law exponent `s > 0`.
    s: f64,
    /// Slot (arrival rank) → peer; never reused.
    slot_peer: Vec<PeerId>,
    /// Peer → slot.
    slots: PeerMap<PeerId, usize>,
    /// Sampling weights (0 for removed peers).
    weights: Fenwick,
    /// Dense list of live slots for O(1) uniform sampling.
    live: LiveSlots,
}

impl ZipfTopology {
    /// A new topology with exponent `s` (clamped to at least 0.01)
    /// and pre-allocated capacity.
    pub(crate) fn with_capacity(n: usize, s: f64) -> Self {
        ZipfTopology {
            s: s.max(0.01),
            slot_peer: Vec::with_capacity(n),
            slots: PeerMap::with_capacity_and_hasher(n, PeerHash::default()),
            weights: Fenwick::new(),
            live: LiveSlots::with_capacity(n),
        }
    }

    /// The fixed-point weight of arrival rank `rank` (0-based).
    fn rank_weight(&self, rank: usize) -> u64 {
        let w = WEIGHT_SCALE * ((rank + 1) as f64).powf(-self.s);
        (w.round() as u64).max(1)
    }

    fn sample_slot(&self, rng: &mut dyn RngCore, exclude_slot: Option<usize>) -> Option<usize> {
        let total = self.weights.total();
        if total == 0 {
            return None;
        }
        if self.live.len() < 2 && exclude_slot.is_some() {
            let only = *self.live.slots().first()? as usize;
            return if Some(only) == exclude_slot {
                None
            } else {
                Some(only)
            };
        }
        // Bounded rejection (the head rank can hold a large share),
        // then uniform fallback.
        for _ in 0..64 {
            let u = rng.gen_range(0..total);
            let slot = self.weights.sample_index(u)?;
            if Some(slot) != exclude_slot {
                return Some(slot);
            }
        }
        let live = self.live.slots();
        for _ in 0..64 {
            let slot = live[rng.gen_range(0..live.len())] as usize;
            if Some(slot) != exclude_slot {
                return Some(slot);
            }
        }
        None
    }
}

impl Topology for ZipfTopology {
    fn add_peer(&mut self, peer: PeerId, _rng: &mut dyn RngCore) {
        if self.slots.contains_key(&peer) {
            return;
        }
        let slot = self.slot_peer.len();
        self.slot_peer.push(peer);
        self.slots.insert(peer, slot);
        let pushed = self.weights.push(self.rank_weight(slot));
        debug_assert_eq!(pushed, slot);
        self.live.push(slot);
    }

    fn remove_peer(&mut self, peer: PeerId) {
        let Some(slot) = self.slots.remove(&peer) else {
            return;
        };
        let w = self.weights.weight(slot);
        self.weights.add(slot, -(w as i64));
        self.live.remove(slot);
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.slots.contains_key(&peer)
    }

    fn sample(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        let ex = exclude.and_then(|p| self.slots.get(&p).copied());
        self.sample_slot(rng, ex).map(|s| self.slot_peer[s])
    }

    fn sample_uniform(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        let ex = exclude.and_then(|p| self.slots.get(&p).copied());
        let slot = self.live.sample_uniform(rng, ex)?;
        Some(self.slot_peer[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grown(n: u64, s: f64) -> (ZipfTopology, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = ZipfTopology::with_capacity(0, s);
        for p in 0..n {
            t.add_peer(PeerId(p), &mut rng);
        }
        (t, rng)
    }

    #[test]
    fn empty_and_singleton() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = ZipfTopology::with_capacity(0, 1.0);
        assert_eq!(t.sample(&mut rng, None), None);
        t.add_peer(PeerId(0), &mut rng);
        assert_eq!(t.sample(&mut rng, None), Some(PeerId(0)));
        assert_eq!(t.sample(&mut rng, Some(PeerId(0))), None);
    }

    #[test]
    fn early_arrivals_dominate() {
        let (t, mut rng) = grown(1000, 1.0);
        let trials = 100_000;
        let mut first_hits = 0usize;
        let mut late_hits = 0usize;
        for _ in 0..trials {
            match t.sample(&mut rng, None).unwrap() {
                PeerId(0) => first_hits += 1,
                PeerId(999) => late_hits += 1,
                _ => {}
            }
        }
        // P(rank 0) / P(rank 999) = 1000 under s = 1.
        assert!(
            first_hits > late_hits * 100,
            "rank 0 hit {first_hits}, rank 999 hit {late_hits}"
        );
    }

    #[test]
    fn head_mass_matches_harmonic_ratio() {
        // Under s = 1, the first 100 of 1000 peers hold
        // H(100)/H(1000) ≈ 0.69 of the mass.
        let (t, mut rng) = grown(1000, 1.0);
        let trials = 200_000;
        let mut head = 0usize;
        for _ in 0..trials {
            if t.sample(&mut rng, None).unwrap().raw() < 100 {
                head += 1;
            }
        }
        let share = head as f64 / trials as f64;
        let expected = (1..=100).map(|i| 1.0 / i as f64).sum::<f64>()
            / (1..=1000).map(|i| 1.0 / i as f64).sum::<f64>();
        assert!(
            (share - expected).abs() < 0.02,
            "head share {share} vs harmonic {expected}"
        );
    }

    #[test]
    fn exclusion_respected() {
        let (t, mut rng) = grown(50, 1.2);
        for _ in 0..5_000 {
            assert_ne!(t.sample(&mut rng, Some(PeerId(0))), Some(PeerId(0)));
        }
    }

    #[test]
    fn removal_stops_sampling() {
        let (mut t, mut rng) = grown(20, 1.0);
        t.remove_peer(PeerId(0));
        assert!(!t.contains(PeerId(0)));
        assert_eq!(t.len(), 19);
        for _ in 0..5_000 {
            assert_ne!(t.sample(&mut rng, None), Some(PeerId(0)));
            assert_ne!(t.sample_uniform(&mut rng, None), Some(PeerId(0)));
        }
        t.remove_peer(PeerId(0));
        assert_eq!(t.len(), 19);
    }

    #[test]
    fn uniform_sampling_ignores_rank() {
        let (t, mut rng) = grown(100, 1.5);
        let trials = 200_000;
        let mut head = 0usize;
        for _ in 0..trials {
            if t.sample_uniform(&mut rng, None).unwrap().raw() < 10 {
                head += 1;
            }
        }
        let share = head as f64 / trials as f64;
        assert!((share - 0.1).abs() < 0.01, "uniform head share {share}");
    }

    #[test]
    fn duplicate_add_is_noop() {
        let (mut t, mut rng) = grown(5, 1.0);
        t.add_peer(PeerId(2), &mut rng);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn exponent_clamped() {
        assert!(ZipfTopology::with_capacity(0, -3.0).s > 0.0);
    }
}
