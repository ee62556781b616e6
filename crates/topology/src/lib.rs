//! # replend-topology
//!
//! Interaction topologies for the community simulation.
//!
//! §3 of the paper: *"The requester is chosen at random from the list
//! of peers in the system whereas the respondent is chosen according
//! to the network topology. We model two different topologies: 1)
//! random and 2) scale-free. In the random topology, all nodes are
//! equally likely to be chosen as the potential respondent. In the
//! scale-free topology, the probability of a node being chosen as the
//! potential respondent is distributed according to a power-law."*
//!
//! The same topology also picks the *potential introducer* of a new
//! arrival (§3: "The introducer is also chosen depending on network
//! topology").
//!
//! Three implementations of the [`Topology`] trait, chosen by
//! [`build_topology`]:
//!
//! * `RandomTopology` — uniform choice, O(1) everything;
//! * `ScaleFreeTopology` — a growing Barabási–Albert graph whose
//!   degree-proportional sampling is backed by a Fenwick tree
//!   (O(log n) insert/sample), since the community grows during a run
//!   and the distribution must stay current;
//! * `ZipfTopology` — rank-based power-law sampling over arrival
//!   order, on the same Fenwick tree.

mod fenwick;
mod live;
mod random;
mod scale_free;
mod zipf;

use random::RandomTopology;
use scale_free::ScaleFreeTopology;
use zipf::ZipfTopology;

use rand::RngCore;
use replend_types::{PeerId, TopologyKind};

/// A population whose members can be sampled as transaction
/// respondents / potential introducers.
pub trait Topology {
    /// Adds a peer to the population.
    fn add_peer(&mut self, peer: PeerId, rng: &mut dyn RngCore);

    /// Removes a peer (no-op if absent).
    fn remove_peer(&mut self, peer: PeerId);

    /// Number of peers currently in the population.
    fn len(&self) -> usize;

    /// True when the population is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `peer` is in the population.
    fn contains(&self, peer: PeerId) -> bool;

    /// Samples a peer according to the topology's distribution,
    /// excluding `exclude` (a peer never transacts with itself).
    ///
    /// Returns `None` when no eligible peer exists.
    fn sample(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId>;

    /// Samples a peer *uniformly* (used for requester choice, which
    /// §3 fixes as uniform for both topologies).
    fn sample_uniform(&self, rng: &mut dyn RngCore, exclude: Option<PeerId>) -> Option<PeerId>;
}

/// Constructs the topology named by a [`TopologyKind`].
///
/// `expected_capacity` is a sizing hint; `m` is the Barabási–Albert
/// attachment count (edges per newcomer), ignored for
/// [`TopologyKind::Random`].
pub fn build_topology(
    kind: TopologyKind,
    expected_capacity: usize,
    m: usize,
) -> Box<dyn Topology + Send> {
    match kind {
        TopologyKind::Random => Box::new(RandomTopology::with_capacity(expected_capacity)),
        TopologyKind::Powerlaw => Box::new(ScaleFreeTopology::with_capacity(expected_capacity, m)),
        TopologyKind::Zipf => Box::new(ZipfTopology::with_capacity(expected_capacity, 1.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn build_topology_dispatches() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [
            TopologyKind::Random,
            TopologyKind::Powerlaw,
            TopologyKind::Zipf,
        ] {
            let mut t = build_topology(kind, 16, 3);
            assert!(t.is_empty());
            for p in 0..10u64 {
                t.add_peer(PeerId(p), &mut rng);
            }
            assert_eq!(t.len(), 10);
            assert!(t.contains(PeerId(3)));
            let s = t.sample(&mut rng, Some(PeerId(0))).unwrap();
            assert_ne!(s, PeerId(0));
            let u = t.sample_uniform(&mut rng, None).unwrap();
            assert!(t.contains(u));
        }
    }
}
