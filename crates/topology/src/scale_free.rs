//! The scale-free topology: Barabási–Albert growth with
//! degree-proportional sampling.
//!
//! §3: *"In the scale-free topology, the probability of a node being
//! chosen as the potential respondent is distributed according to a
//! power-law."* The canonical generator of power-law interaction
//! graphs is Barabási–Albert preferential attachment, which also
//! matches the paper's setting exactly: the community *grows* by
//! arrivals, and each arrival attaches preferentially to
//! well-connected members.
//!
//! Implementation notes:
//!
//! * Each newcomer draws `m` distinct attachment targets with
//!   probability proportional to `degree + 1` (attachment with unit
//!   initial attractiveness, so isolated seed nodes remain
//!   reachable); the resulting degree distribution is power-law with
//!   exponent `γ ≈ 3 + 1/m` (verified by a statistical test against
//!   the Clauset–Shalizi–Newman MLE).
//! * Degree weights live in a [`Fenwick`](crate::fenwick::Fenwick)
//!   tree: O(log n) per attachment and per sample, so the topology
//!   stays exact while the population grows tick by tick.
//! * Slots are never reused (removal tombstones the index); the
//!   simulated community only grows, but removal is supported for
//!   generality and tested.

use crate::fenwick::Fenwick;
use crate::live::LiveSlots;
use crate::Topology;
use rand::{Rng, RngCore};
use replend_types::hash::{PeerHash, PeerMap};
use replend_types::PeerId;

/// Barabási–Albert scale-free population.
#[derive(Clone, Debug)]
pub(crate) struct ScaleFreeTopology {
    /// Attachment edges per newcomer.
    m: usize,
    /// Slot -> peer (never reused; dead slots keep their id).
    slot_peer: Vec<PeerId>,
    /// Peer -> slot.
    slots: PeerMap<PeerId, usize>,
    /// Adjacency lists over slots.
    adj: Vec<Vec<u32>>,
    /// Degree of each slot (0 for dead slots).
    degree: Vec<u32>,
    /// Sampling weights: `degree + 1` for live slots, 0 for dead.
    weights: Fenwick,
    /// Dense list of live slots for O(1) uniform sampling; also the
    /// per-slot liveness flag.
    live: LiveSlots,
}

impl ScaleFreeTopology {
    /// A new topology with `m` attachment edges per arrival (clamped
    /// to at least 1) and pre-allocated capacity.
    pub(crate) fn with_capacity(n: usize, m: usize) -> Self {
        ScaleFreeTopology {
            m: m.max(1),
            slot_peer: Vec::with_capacity(n),
            slots: PeerMap::with_capacity_and_hasher(n, PeerHash::default()),
            adj: Vec::with_capacity(n),
            degree: Vec::with_capacity(n),
            weights: Fenwick::new(),
            live: LiveSlots::with_capacity(n),
        }
    }

    /// Draws one live slot with probability ∝ `degree + 1`,
    /// excluding `exclude_slot` by bounded rejection with a uniform
    /// fallback.
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
        // Rejection loop: the excluded slot's weight share is < 1 in
        // any ring with ≥ 2 live slots, but a hub can make the share
        // large, so bound the retries and fall back to uniform.
        for _ in 0..64 {
            let u = rng.gen_range(0..total);
            let s = self.weights.sample_index(u)?;
            if Some(s) != exclude_slot {
                debug_assert!(self.live.is_live(s));
                return Some(s);
            }
        }
        // Fallback: uniform over live slots minus the exclusion.
        let live = self.live.slots();
        for _ in 0..64 {
            let s = live[rng.gen_range(0..live.len())] as usize;
            if Some(s) != exclude_slot {
                return Some(s);
            }
        }
        None
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        self.adj[a].push(b as u32);
        self.adj[b].push(a as u32);
        self.degree[a] += 1;
        self.degree[b] += 1;
        self.weights.add(a, 1);
        self.weights.add(b, 1);
    }
}

impl Topology for ScaleFreeTopology {
    fn add_peer(&mut self, peer: PeerId, rng: &mut dyn RngCore) {
        if self.slots.contains_key(&peer) {
            return;
        }
        let slot = self.slot_peer.len();
        self.slot_peer.push(peer);
        self.slots.insert(peer, slot);
        self.adj.push(Vec::with_capacity(self.m));
        self.degree.push(0);
        // Weight = degree + 1 (unit attractiveness).
        let pushed = self.weights.push(1);
        debug_assert_eq!(pushed, slot);
        self.live.push(slot);

        // Preferential attachment: up to m distinct targets among the
        // pre-existing live peers.
        let candidates = self.live.len() - 1;
        if candidates == 0 {
            return;
        }
        let want = self.m.min(candidates);
        let mut targets: Vec<usize> = Vec::with_capacity(want);
        // Bounded attempts to find distinct targets; duplicates are
        // re-drawn (standard BA simple-graph variant).
        let mut attempts = 0;
        while targets.len() < want && attempts < 64 * want {
            attempts += 1;
            if let Some(t) = self.sample_slot(rng, Some(slot)) {
                if !targets.contains(&t) {
                    targets.push(t);
                }
            } else {
                break;
            }
        }
        for t in targets {
            self.add_edge(slot, t);
        }
    }

    fn remove_peer(&mut self, peer: PeerId) {
        let Some(slot) = self.slots.remove(&peer) else {
            return;
        };
        // Detach from neighbours.
        let neighbours = std::mem::take(&mut self.adj[slot]);
        for nb in neighbours {
            let nb = nb as usize;
            if !self.live.is_live(nb) {
                continue;
            }
            if let Some(p) = self.adj[nb].iter().position(|&x| x as usize == slot) {
                self.adj[nb].swap_remove(p);
                self.degree[nb] -= 1;
                self.weights.add(nb, -1);
            }
        }
        // Tombstone: zero the weight (degree + 1 units), mark dead.
        self.weights.add(slot, -((self.degree[slot] + 1) as i64));
        self.degree[slot] = 0;
        self.live.remove(slot);
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.slots.contains_key(&peer)
    }

    fn sample(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        let ex_slot = exclude.and_then(|p| self.slots.get(&p).copied());
        let s = self.sample_slot(rng, ex_slot)?;
        Some(self.slot_peer[s])
    }

    fn sample_uniform(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        let ex_slot = exclude.and_then(|p| self.slots.get(&p).copied());
        let s = self.live.sample_uniform(rng, ex_slot)?;
        Some(self.slot_peer[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Current degree of `peer` (0 if absent).
    fn degree_of(t: &ScaleFreeTopology, peer: PeerId) -> u32 {
        t.slots.get(&peer).map(|&s| t.degree[s]).unwrap_or(0)
    }

    /// Degrees of all live peers.
    fn live_degrees(t: &ScaleFreeTopology) -> Vec<u32> {
        t.live
            .slots()
            .iter()
            .map(|&s| t.degree[s as usize])
            .collect()
    }

    /// Maximum-likelihood estimate of the power-law exponent `α` for
    /// the discrete tail `d >= d_min`, per Clauset, Shalizi & Newman
    /// (2009):
    ///
    /// `α ≈ 1 + n_tail / Σ ln(d_i / (d_min − 1/2))`
    ///
    /// Returns `None` when fewer than 10 observations lie in the tail
    /// (too little data for a meaningful fit).
    fn power_law_alpha_mle(degrees: &[u32], d_min: u32) -> Option<f64> {
        let d_min = d_min.max(1);
        let tail: Vec<f64> = degrees
            .iter()
            .copied()
            .filter(|&d| d >= d_min)
            .map(|d| d as f64)
            .collect();
        if tail.len() < 10 {
            return None;
        }
        let denom: f64 = tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()).sum();
        if denom <= 0.0 {
            return None;
        }
        Some(1.0 + tail.len() as f64 / denom)
    }

    fn grown(n: u64, m: usize, seed: u64) -> (ScaleFreeTopology, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = ScaleFreeTopology::with_capacity(0, m);
        for p in 0..n {
            t.add_peer(PeerId(p), &mut rng);
        }
        (t, rng)
    }

    #[test]
    fn empty_and_singleton() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = ScaleFreeTopology::with_capacity(0, 3);
        assert!(t.is_empty());
        assert_eq!(t.sample(&mut rng, None), None);
        t.add_peer(PeerId(0), &mut rng);
        assert_eq!(t.len(), 1);
        assert_eq!(t.sample(&mut rng, None), Some(PeerId(0)));
        assert_eq!(t.sample(&mut rng, Some(PeerId(0))), None);
        assert_eq!(t.sample_uniform(&mut rng, Some(PeerId(0))), None);
    }

    #[test]
    fn m_is_clamped_to_one() {
        assert_eq!(ScaleFreeTopology::with_capacity(0, 0).m, 1);
    }

    #[test]
    fn duplicate_add_is_noop() {
        let (mut t, mut rng) = grown(5, 2, 1);
        t.add_peer(PeerId(2), &mut rng);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn newcomers_attach_m_edges() {
        let (t, _) = grown(50, 3, 2);
        // Each arrival past the 4th adds exactly 3 edges, so total
        // degree = 2 * edges; check newcomer 49 has degree >= 3 is not
        // guaranteed (it has exactly m unless it arrived early).
        let total_degree: u64 = live_degrees(&t).iter().map(|&d| d as u64).sum();
        // Edges: arrivals 1..50 each add min(m, existing) edges:
        // 1 + 2 + 3*47 = 144 edges.
        assert_eq!(total_degree, 2 * 144);
    }

    #[test]
    fn degrees_sum_even() {
        let (t, _) = grown(200, 2, 3);
        let total: u64 = live_degrees(&t).iter().map(|&d| d as u64).sum();
        assert_eq!(total % 2, 0, "handshake lemma");
    }

    #[test]
    fn exclusion_respected() {
        let (t, mut rng) = grown(20, 2, 4);
        for p in 0..20u64 {
            for _ in 0..50 {
                assert_ne!(t.sample(&mut rng, Some(PeerId(p))), Some(PeerId(p)));
            }
        }
    }

    #[test]
    fn sampling_prefers_hubs() {
        let (t, mut rng) = grown(300, 2, 5);
        // Find the max-degree hub and a min-degree leaf.
        let degs = live_degrees(&t);
        let hub = (0..300u64)
            .max_by_key(|&p| degree_of(&t, PeerId(p)))
            .unwrap();
        let leaf = (0..300u64)
            .min_by_key(|&p| degree_of(&t, PeerId(p)))
            .unwrap();
        assert!(degree_of(&t, PeerId(hub)) > degree_of(&t, PeerId(leaf)));
        let trials = 100_000;
        let (mut hub_hits, mut leaf_hits) = (0u32, 0u32);
        for _ in 0..trials {
            let s = t.sample(&mut rng, None).unwrap();
            if s == PeerId(hub) {
                hub_hits += 1;
            } else if s == PeerId(leaf) {
                leaf_hits += 1;
            }
        }
        assert!(
            hub_hits > leaf_hits * 2,
            "hub (deg {}) hit {hub_hits}, leaf (deg {}) hit {leaf_hits}",
            degs.iter().max().unwrap(),
            degs.iter().min().unwrap()
        );
    }

    #[test]
    fn degree_distribution_is_power_law() {
        let (t, _) = grown(3000, 3, 6);
        let degrees = live_degrees(&t);
        let alpha = power_law_alpha_mle(&degrees, 3).expect("enough tail data");
        // BA with unit attractiveness: γ ≈ 3 + 1/m ≈ 3.33; the MLE on
        // a finite graph lands roughly in [2.3, 4.2].
        assert!(
            (2.0..=4.8).contains(&alpha),
            "power-law exponent {alpha} outside scale-free range"
        );
    }

    #[test]
    fn random_graph_is_not_power_law_shaped() {
        // Sanity check of the diagnostic itself: degrees of a uniform
        // random selection don't produce the heavy tail.
        let (t, _) = grown(3000, 3, 7);
        let degrees = live_degrees(&t);
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64;
        // Scale-free: max degree is a large multiple of the mean.
        assert!(
            (max as f64) > 6.0 * mean,
            "max degree {max} vs mean {mean} — tail not heavy"
        );
    }

    #[test]
    fn removal_updates_neighbours_and_sampling() {
        let (mut t, mut rng) = grown(30, 2, 8);
        let victim = PeerId(7);
        let before_total: u64 = live_degrees(&t).iter().map(|&d| d as u64).sum();
        let victim_deg = degree_of(&t, victim) as u64;
        t.remove_peer(victim);
        assert!(!t.contains(victim));
        assert_eq!(t.len(), 29);
        let after_total: u64 = live_degrees(&t).iter().map(|&d| d as u64).sum();
        assert_eq!(after_total, before_total - 2 * victim_deg);
        for _ in 0..2000 {
            assert_ne!(t.sample(&mut rng, None), Some(victim));
            assert_ne!(t.sample_uniform(&mut rng, None), Some(victim));
        }
        // Idempotent.
        t.remove_peer(victim);
        assert_eq!(t.len(), 29);
    }

    #[test]
    fn growth_after_removal_still_works() {
        let (mut t, mut rng) = grown(10, 2, 9);
        for p in 0..5u64 {
            t.remove_peer(PeerId(p));
        }
        for p in 100..120u64 {
            t.add_peer(PeerId(p), &mut rng);
        }
        assert_eq!(t.len(), 25);
        let s = t.sample(&mut rng, None).unwrap();
        assert!(t.contains(s));
    }

    #[test]
    fn uniform_sampling_ignores_degree() {
        let (t, mut rng) = grown(100, 3, 10);
        let hub = (0..100u64)
            .max_by_key(|&p| degree_of(&t, PeerId(p)))
            .unwrap();
        let trials = 200_000;
        let mut hub_hits = 0u32;
        for _ in 0..trials {
            if t.sample_uniform(&mut rng, None) == Some(PeerId(hub)) {
                hub_hits += 1;
            }
        }
        let expected = trials as f64 / 100.0;
        assert!(
            (hub_hits as f64 - expected).abs() < 6.0 * expected.sqrt(),
            "hub drawn {hub_hits} times under uniform, expected {expected}"
        );
    }

    #[test]
    fn mle_rejects_tiny_tails() {
        assert_eq!(power_law_alpha_mle(&[5; 5], 3), None);
        assert_eq!(power_law_alpha_mle(&[], 3), None);
    }

    #[test]
    fn mle_recovers_known_exponent() {
        // Sample a discrete power law with α = 2.5 via inverse
        // transform on the continuous approximation, then check the
        // MLE lands near 2.5.
        let alpha = 2.5f64;
        let d_min = 3u32;
        let mut rng = StdRng::seed_from_u64(1234);
        let degrees: Vec<u32> = (0..20_000)
            .map(|_| {
                let u: f64 = rng.gen::<f64>();
                let x = (d_min as f64 - 0.5) * (1.0 - u).powf(-1.0 / (alpha - 1.0));
                x.round().min(1e7) as u32
            })
            .collect();
        let est = power_law_alpha_mle(&degrees, d_min).unwrap();
        assert!(
            (est - alpha).abs() < 0.15,
            "MLE {est} too far from true α = {alpha}"
        );
    }

    #[test]
    fn mle_on_constant_degrees_is_none_or_large() {
        // All mass at d_min ⇒ ln-ratio sum is 0-ish ⇒ None (or huge α).
        let res = power_law_alpha_mle(&[3; 100], 3);
        match res {
            None => {}
            Some(a) => assert!(a > 5.0, "uniform degrees should not look scale-free"),
        }
    }
}
