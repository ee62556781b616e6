//! The random topology: every peer equally likely to be chosen.
//!
//! §3: *"In the random topology, all nodes are equally likely to be
//! chosen as the potential respondent."* Backed by a dense vector with
//! swap-remove, so every operation is O(1).

use crate::Topology;
use rand::{Rng, RngCore};
use replend_types::hash::{PeerHash, PeerMap};
use replend_types::PeerId;

/// Uniform-choice population.
#[derive(Clone, Debug, Default)]
pub(crate) struct RandomTopology {
    members: Vec<PeerId>,
    /// Position of each member in `members` (for O(1) removal).
    pos: PeerMap<PeerId, usize>,
}

impl RandomTopology {
    /// An empty population with pre-allocated capacity.
    pub(crate) fn with_capacity(n: usize) -> Self {
        RandomTopology {
            members: Vec::with_capacity(n),
            pos: PeerMap::with_capacity_and_hasher(n, PeerHash::default()),
        }
    }

    fn sample_impl(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        match exclude {
            None => {
                if self.members.is_empty() {
                    None
                } else {
                    Some(self.members[rng.gen_range(0..self.members.len())])
                }
            }
            Some(ex) if self.pos.contains_key(&ex) => {
                // Uniform over members minus one: draw an index over
                // len-1 and skip past the excluded slot.
                let n = self.members.len();
                if n < 2 {
                    return None;
                }
                let ex_pos = self.pos[&ex];
                let mut i = rng.gen_range(0..n - 1);
                if i >= ex_pos {
                    i += 1;
                }
                Some(self.members[i])
            }
            Some(_) => {
                // The excluded peer is not a member — plain uniform.
                self.sample_impl(rng, None)
            }
        }
    }
}

impl Topology for RandomTopology {
    fn add_peer(&mut self, peer: PeerId, _rng: &mut dyn RngCore) {
        if self.pos.contains_key(&peer) {
            return;
        }
        self.pos.insert(peer, self.members.len());
        self.members.push(peer);
    }

    fn remove_peer(&mut self, peer: PeerId) {
        let Some(p) = self.pos.remove(&peer) else {
            return;
        };
        let last = self.members.len() - 1;
        self.members.swap(p, last);
        self.members.pop();
        if p <= last && p < self.members.len() {
            self.pos.insert(self.members[p], p);
        }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.pos.contains_key(&peer)
    }

    fn sample(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        self.sample_impl(rng, exclude)
    }

    fn sample_uniform(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId> {
        self.sample_impl(rng, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo_of(n: u64) -> (RandomTopology, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = RandomTopology::default();
        for p in 0..n {
            t.add_peer(PeerId(p), &mut rng);
        }
        (t, rng)
    }

    #[test]
    fn empty_samples_none() {
        let (t, mut rng) = topo_of(0);
        assert_eq!(t.sample(&mut rng, None), None);
        assert!(t.is_empty());
    }

    #[test]
    fn add_is_idempotent() {
        let (mut t, mut rng) = topo_of(3);
        t.add_peer(PeerId(1), &mut rng);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn singleton_with_exclusion_samples_none() {
        let (t, mut rng) = topo_of(1);
        assert_eq!(t.sample(&mut rng, Some(PeerId(0))), None);
        assert_eq!(t.sample(&mut rng, None), Some(PeerId(0)));
    }

    #[test]
    fn exclusion_is_respected() {
        let (t, mut rng) = topo_of(5);
        for _ in 0..1000 {
            let s = t.sample(&mut rng, Some(PeerId(2))).unwrap();
            assert_ne!(s, PeerId(2));
        }
    }

    #[test]
    fn exclusion_of_non_member_is_uniform() {
        let (t, mut rng) = topo_of(2);
        let s = t.sample(&mut rng, Some(PeerId(99))).unwrap();
        assert!(t.contains(s));
    }

    #[test]
    fn removal_swaps_correctly() {
        let (mut t, mut rng) = topo_of(4);
        t.remove_peer(PeerId(1));
        assert_eq!(t.len(), 3);
        assert!(!t.contains(PeerId(1)));
        for _ in 0..100 {
            assert_ne!(t.sample(&mut rng, None), Some(PeerId(1)));
        }
        // Removing again is a no-op.
        t.remove_peer(PeerId(1));
        assert_eq!(t.len(), 3);
        // Remaining members all reachable.
        let mut seen = replend_types::hash::PeerSet::default();
        for _ in 0..1000 {
            seen.insert(t.sample(&mut rng, None).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn remove_last_member() {
        let (mut t, mut rng) = topo_of(1);
        t.remove_peer(PeerId(0));
        assert!(t.is_empty());
        assert_eq!(t.sample(&mut rng, None), None);
    }

    #[test]
    fn sampling_is_uniform() {
        let (t, mut rng) = topo_of(10);
        let trials = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..trials {
            counts[t.sample(&mut rng, None).unwrap().index()] += 1;
        }
        let expected = trials as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 5.0 * (expected * 0.9).sqrt(),
                "peer {i}: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn sampling_with_exclusion_is_uniform_over_rest() {
        let (t, mut rng) = topo_of(5);
        let trials = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..trials {
            counts[t.sample(&mut rng, Some(PeerId(0))).unwrap().index()] += 1;
        }
        assert_eq!(counts[0], 0);
        let expected = trials as f64 / 4.0;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "peer {i}: {c} vs expected {expected}"
            );
        }
    }
}
