//! Deterministic, dependency-free hashing primitives.
//!
//! Three roles share one mixer, [`splitmix64`]:
//!
//! 1. **Ring mixing** — a bijective mixer scatters sequential peer ids
//!    uniformly over the 64-bit Chord ring (and the partition map and
//!    the snapshot slab's table hash with it too).
//! 2. **Replica keys** — a salted hash ([`salted`]) derives the
//!    `numSM` score-manager replica keys of a peer.
//! 3. **Peer-keyed maps** — [`PeerHasher`] folds each integer written
//!    to it in with one `splitmix64` mix, and every production
//!    `HashMap`/`HashSet` keyed by peer ids uses it through the
//!    [`PeerMap`]/[`PeerSet`] aliases. A probe costs one mix per key
//!    field instead of std's SipHash-1-3 rounds, and the workspace's
//!    `clippy.toml` forbids the std `RandomState` maps so they cannot
//!    creep back in.
//!
//! All of it lives here so that simulation results are
//! bit-reproducible across platforms and rustc versions (std's
//! `DefaultHasher` makes no such promise).
//!
//! ## Hash flooding
//!
//! [`PeerHasher`] is unkeyed: anyone who can choose the keys can
//! choose keys that collide in a map's low bits and degrade its probes
//! to linear scans. That is the exposure the snapshot slab's table and
//! the partition map already have, for the same reason, and it is
//! bounded by where the keys come from: simulated peers are numbered
//! by the simulator, and the service's subject ids come from the
//! operator's own journal, not from an untrusted network peer. A
//! deployment that took ids from untrusted clients would want a keyed
//! hasher in front of these maps.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer — a bijective 64-bit mixer with excellent
/// avalanche behaviour (Steele, Lea, Flood; used as the seed mixer of
/// `java.util.SplittableRandom`).
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice (64-bit variant).
#[inline]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Salted hash of a 64-bit key: `H(key, salt)`.
///
/// Used to derive the k-th score-manager replica key of a peer:
/// `replica_k(peer) = salted(peer.raw(), k)`. The construction hashes
/// the concatenated little-endian bytes with FNV-1a then finalises
/// with SplitMix64 to break FNV's weak low-bit diffusion.
#[inline]
pub fn salted(key: u64, salt: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..].copy_from_slice(&salt.to_le_bytes());
    splitmix64(fnv1a(&buf))
}

/// Derives a stream of per-run RNG seeds from one base seed.
///
/// Run *i* of a repeated experiment gets `seed_for_run(base, i)`;
/// SplitMix64's bijectivity guarantees distinct seeds for distinct
/// runs of the same experiment.
#[inline]
pub const fn seed_for_run(base_seed: u64, run: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(run))
}

/// The hasher behind every peer-keyed map ([`PeerMap`], [`PeerSet`]).
///
/// Each integer written folds into the state with one [`splitmix64`]
/// mix, so a `PeerId` key costs one mix and a `(PeerId, usize,
/// RequestId)` key three, where std's default SipHash-1-3 pays its
/// full rounds per key. The state starts at 0, so a single
/// `write_u64(n)` finishes at exactly `splitmix64(n)`: the mix the
/// ring and the partition map already use. Other integer widths and
/// byte slices go through [`Hasher::write`], which mixes one
/// zero-padded little-endian `u64` word per 8 bytes.
///
/// Sharing the partition map's mix has one cost: the subjects of one
/// engine partition agree on `splitmix64(id) % partitions`, so with a
/// power-of-two partition count their hashes also agree in the low
/// bits a hash table indexes by. Lookups that hit cost what they cost
/// in an unpartitioned map; misses probe further (25k keys of one of 8
/// partitions, Intel Xeon VM: 7 ns per hit, 13 ns per miss, against
/// 17 ns per hit under SipHash-1-3).
#[derive(Clone, Copy, Debug, Default)]
pub struct PeerHasher {
    state: u64,
}

impl Hasher for PeerHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = splitmix64(self.state ^ n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Zero-sized builder of [`PeerHasher`]s: no per-map key, so equal
/// keys hash equally in every map and every process.
pub type PeerHash = BuildHasherDefault<PeerHasher>;

/// A `HashMap` keyed by peer ids (or tuples of them), hashed with
/// [`PeerHasher`]. Build with `PeerMap::default()` or
/// `PeerMap::with_capacity_and_hasher(n, PeerHash::default())`.
#[allow(clippy::disallowed_types)]
pub type PeerMap<K, V> = std::collections::HashMap<K, V, PeerHash>;

/// A `HashSet` keyed by peer ids (or tuples of them), hashed with
/// [`PeerHasher`].
#[allow(clippy::disallowed_types)]
pub type PeerSet<K> = std::collections::HashSet<K, PeerHash>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeerId, RequestId};
    use std::hash::BuildHasher;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_eq!(splitmix64(12345), splitmix64(12345));
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the SplittableRandom specification:
        // the first output of the sequence seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn splitmix_is_injective_on_sample() {
        let outs: PeerSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn fnv_empty_is_offset_basis() {
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn salted_differs_by_salt() {
        let a = salted(42, 0);
        let b = salted(42, 1);
        let c = salted(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, salted(42, 0));
    }

    #[test]
    fn salted_replicas_are_spread() {
        // The 6 replica keys of one peer (Table 1: numSM = 6) should
        // not collide.
        let keys: PeerSet<u64> = (0..6).map(|k| salted(7, k)).collect();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn run_seeds_are_distinct() {
        let seeds: PeerSet<u64> = (0..1000).map(|r| seed_for_run(0xdead_beef, r)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn run_seeds_differ_across_bases() {
        assert_ne!(seed_for_run(1, 0), seed_for_run(2, 0));
    }

    #[test]
    fn one_u64_write_is_one_splitmix() {
        for n in [0, 1, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let mut h = PeerHasher::default();
            h.write_u64(n);
            assert_eq!(h.finish(), splitmix64(n));
            assert_eq!(PeerHash::default().hash_one(PeerId(n)), splitmix64(n));
        }
    }

    #[test]
    fn narrow_and_word_writes_mix_like_u64() {
        for n in [0u32, 7, u32::MAX] {
            let mut h = PeerHasher::default();
            h.write_u32(n);
            assert_eq!(h.finish(), splitmix64(u64::from(n)));
        }
        for n in [0usize, 7, usize::MAX] {
            let mut h = PeerHasher::default();
            h.write_usize(n);
            assert_eq!(h.finish(), splitmix64(n as u64));
        }
        // The lending layer's `(PeerId, usize, RequestId)` message key:
        // three mixes, one per field, in field order.
        let key =
            |a: u64, b: usize, c: u64| PeerHash::default().hash_one((PeerId(a), b, RequestId(c)));
        let three_mixes = splitmix64(splitmix64(splitmix64(3) ^ 5) ^ 9);
        assert_eq!(key(3, 5, 9), three_mixes);
        for permuted in [
            key(9, 5, 3),
            key(5, 3, 9),
            key(3, 9, 5),
            key(5, 9, 3),
            key(9, 3, 5),
        ] {
            assert_ne!(permuted, three_mixes);
        }
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // Hash tables index buckets by the low bits of the hash, and
        // simulation peers and benchmark subjects are numbered 0, 1, 2, …
        let mut load = vec![0u32; 1 << 16];
        for id in 0..200_000u64 {
            load[(PeerHash::default().hash_one(PeerId(id)) & 0xffff) as usize] += 1;
        }
        let max = load.iter().copied().max().unwrap();
        assert!(max <= 16, "max low-16-bit bucket load {max}");
    }
}
