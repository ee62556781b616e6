//! Deterministic, dependency-free hashing primitives.
//!
//! The DHT layer needs (a) a bijective mixer to scatter sequential
//! peer ids uniformly over the 64-bit ring and (b) a salted hash to
//! derive the `numSM` score-manager replica keys of a peer. Both are
//! implemented here so that simulation results are bit-reproducible
//! across platforms and rustc versions (std's `DefaultHasher` makes no
//! such promise).

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
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
        let keys: HashSet<u64> = (0..6).map(|k| salted(7, k)).collect();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn run_seeds_are_distinct() {
        let seeds: HashSet<u64> = (0..1000).map(|r| seed_for_run(0xdead_beef, r)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn run_seeds_differ_across_bases() {
        assert_ne!(seed_for_run(1, 0), seed_for_run(2, 0));
    }
}
