//! The score slab: one [`ScoreState`] lane per subject handle, plus
//! the two operations the engine hot path runs on it.
//!
//! ## One lane stands for `numSM` replicas
//!
//! ROCQ keeps `numSM` score-manager replicas per subject so that
//! redundancy masks crashes. In this simulator the replicas can never
//! differ: every replica sees the same reports with the same
//! credibilities, and crash recovery copies a sibling that is already
//! bit-equal (a loss changes a value only when `numSM = 1`, where it
//! resets the one lane). So the slab stores a single lane per handle,
//! and the reference layout (`reference::ReferenceEngine`), which
//! keeps real per-replica tables, is the oracle that pins the two
//! bit-for-bit.
//!
//! Two operations dominate the feedback hot path:
//!
//! 1. **The report** ([`ScoreSlab::report`]): one opinion folded
//!    into a subject's lane, fused with the reporter's credibility
//!    update. Its branchless selects replace the scalar path's early
//!    return.
//! 2. **The aggregate** ([`ScoreSlab::aggregate`]): the cached
//!    replica-mean refresh, one subject at a time. It keeps the
//!    historical definition exactly — the left-to-right sum of `numSM`
//!    copies of the lane's clamped value, divided by `numSM` — so every
//!    result bit, including the `numSM`-dependent rounding, matches a
//!    layout that stores every replica. Reassociating that chain (or
//!    replacing it with the lane value) would change result bits, and
//!    the golden CSVs pin bit-identity.
//!
//! ## Determinism rule
//!
//! Every float operation here is bit-identical to the scalar
//! reference path (`ScoreState::report` + `credibility_update` +
//! `aggregate`): same operations, same order. No sum is reassociated,
//! no contraction (fma) is introduced, and the branchless selects
//! store the untouched input bits on a skipped lane. The churn oracle
//! in `replend-tests` diffs this slab against the reference layout
//! bit-for-bit; if a future change *does* reassociate, it must become
//! a new shared definition across `RocqEngine`, `ReferenceEngine` and
//! `ConcurrentEngine` — not a silent drift of this slab.
//!
//! A lane keeps its `r` and `w` side by side: a report reads and
//! writes both, so one subject's lane is one cache line, not one line
//! in each of two parallel arrays.
//!
//! ## Software pipelining
//!
//! The batch paths resolve a run of opinions whose probes are
//! independent of each other but each stall on a cache miss.
//! [`prefetch`] lets such a loop ask for the line that the probe
//! [`PREFETCH_DISTANCE`] elements ahead will touch, so the misses of
//! neighbouring opinions overlap instead of queueing.

use crate::score::ScoreState;
use replend_types::Reputation;

/// How many elements ahead of the one being resolved a batch loop
/// prefetches: far enough that a miss to memory lands before the loop
/// gets there, near enough that the line is still cached when it does.
pub(crate) const PREFETCH_DISTANCE: usize = 8;

/// Hints the CPU to fetch the cache line holding `value` into every
/// cache level. A hint only: it reads nothing the program sees and
/// cannot fault. On targets other than `x86_64` it does nothing.
#[inline(always)]
pub(crate) fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // Safety: `_mm_prefetch` needs SSE, which every x86_64 target has,
    // and a prefetch of a valid reference neither reads nor writes
    // memory the program observes.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Subject score states, one lane per subject handle (see the module
/// docs for why one lane stands for every replica).
#[derive(Clone, Debug, Default)]
pub(crate) struct ScoreSlab {
    lanes: Vec<ScoreState>,
}

impl ScoreSlab {
    /// An empty slab.
    pub fn new() -> Self {
        ScoreSlab::default()
    }

    /// Appends one lane.
    pub fn push(&mut self, state: ScoreState) {
        self.lanes.push(state);
    }

    /// Makes room for `additional` more lanes.
    pub fn reserve(&mut self, additional: usize) {
        self.lanes.reserve(additional);
    }

    /// Reads lane `i` back as a [`ScoreState`] (bit-exact round-trip).
    #[inline]
    pub fn get(&self, i: usize) -> ScoreState {
        self.lanes[i]
    }

    /// Overwrites lane `i` (bit-exact).
    #[inline]
    pub fn set(&mut self, i: usize, state: ScoreState) {
        self.lanes[i] = state;
    }

    /// `ScoreState::adjust` on lane `i` — the lending credit/debit
    /// (evidence mass unchanged).
    #[inline]
    pub(crate) fn adjust(&mut self, i: usize, amount: f64) {
        self.lanes[i].adjust(amount);
    }

    /// The fused report + credibility update of lane `i`, with the
    /// reporter's credibility `cred` advancing in lockstep.
    /// Bit-identical to the scalar sequence
    ///
    /// ```text
    /// prev   = state.reputation().value();
    /// agreed = (opinion - prev).abs() <= agreement_threshold;
    /// state.report(opinion, cred * q, weight_cap);
    /// cred   = credibility_update(cred, agreed, gamma);
    /// ```
    ///
    /// The scalar `report` early-returns on zero weight and has a
    /// `denom <= 0` fallback; here the evidence mass `w` is
    /// non-negative by construction (checked in debug builds), so a
    /// positive weight implies a positive denominator and the fallback
    /// branch is unreachable — the zero-weight case becomes a
    /// branchless select that stores the untouched input bits.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn report(
        &mut self,
        i: usize,
        cred: &mut f64,
        opinion: f64,
        q: f64,
        gamma: f64,
        agreement_threshold: f64,
        weight_cap: f64,
    ) {
        let c = *cred;
        let prev = self.lanes[i].reputation().value();
        let (raw_prev, mass) = self.lanes[i].raw_parts();
        debug_assert!(mass >= 0.0, "evidence mass must stay non-negative");
        let weight = (c * q).max(0.0);
        let skip = weight == 0.0;
        let denom = mass + weight;
        // Speculative mix: on a skipped lane this may divide by zero (a
        // harmless NaN that is never stored).
        let mixed = (raw_prev * mass + opinion.clamp(0.0, 1.0) * weight) / denom;
        self.lanes[i] = if skip {
            ScoreState::from_raw_parts(raw_prev, mass)
        } else {
            ScoreState::from_raw_parts(mixed, denom.min(weight_cap.max(1.0)))
        };
        // The credibility update runs unconditionally — the scalar path
        // updates it even when a zero-weight report leaves the score
        // untouched.
        let agreed = (opinion - prev).abs() <= agreement_threshold;
        let grown = c + gamma * (1.0 - c);
        let decayed = c - gamma * c;
        *cred = (if agreed { grown } else { decayed }).clamp(0.0, 1.0);
    }

    /// The replica-mean aggregate of lane `i` over `num_sm` replicas,
    /// matching the engine's historical `aggregate` definition: the
    /// sequential left-to-right sum of `num_sm` copies of the lane's
    /// clamped value, then one divide. **Not** reassociated or
    /// shortcut (see the module docs).
    #[inline]
    pub(crate) fn aggregate(&self, i: usize, num_sm: usize) -> Reputation {
        let v = self.lanes[i].reputation().value();
        let sum: f64 = std::iter::repeat_n(v, num_sm).sum();
        Reputation::new(sum / num_sm as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credibility::credibility_update;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let mut slab = ScoreSlab::new();
        let s = ScoreState::new(Reputation::new(0.375), 12.5);
        slab.push(s);
        slab.push(ScoreState::default());
        assert_eq!(slab.lanes.len(), 2);
        assert_eq!(slab.get(0), s);
        assert_eq!(slab.get(1), ScoreState::default());
        slab.set(1, s);
        assert_eq!(slab.get(1), s);
    }

    proptest! {
        /// The report walk is bit-identical to the scalar walk across
        /// arbitrary lane values and zero-weight rounds (cred or q
        /// zero).
        #[test]
        fn report_matches_scalar_walk(
            (r, w, cred) in (0.0f64..=1.0, 0.0f64..=40.0, 0.0f64..=1.0),
            opinion in -0.5f64..=1.5,
            q in 0.0f64..=1.0,
            gamma in 0.01f64..=0.5,
            threshold in 0.0f64..=1.0,
            rounds in 1usize..=4,
        ) {
            let mut state = ScoreState::new(Reputation::new(r), w);
            let mut slab = ScoreSlab::new();
            slab.push(state);
            let (mut cred_a, mut cred_b) = (cred, cred);
            for round in 0..rounds {
                // Vary q across rounds so some rounds hit weight == 0.
                let q = if round % 2 == 0 { q } else { 0.0 };
                let prev = state.reputation().value();
                let agreed = (opinion - prev).abs() <= threshold;
                state.report(opinion, cred_a * q, 40.0);
                cred_a = credibility_update(cred_a, agreed, gamma);
                slab.report(0, &mut cred_b, opinion, q, gamma, threshold, 40.0);
            }
            let k = slab.get(0);
            prop_assert_eq!(state.reputation().value().to_bits(),
                            k.reputation().value().to_bits(), "r");
            prop_assert_eq!(state.raw_parts().1.to_bits(),
                            k.raw_parts().1.to_bits(), "w");
            prop_assert_eq!(cred_a.to_bits(), cred_b.to_bits(), "cred");
        }

        /// `aggregate` over `num_sm` replicas is bit-identical to the
        /// interleaved layout's clamped-read sum of `num_sm` equal
        /// states, then divide.
        #[test]
        fn sums_match_scalar_aggregate(
            r in -0.25f64..=1.25,
            num_sm in 1usize..=9,
        ) {
            let state = ScoreState::from_raw_parts(r, 1.0);
            let mut slab = ScoreSlab::new();
            slab.push(state);
            let scalar: f64 = vec![state; num_sm].iter()
                .map(|s| s.reputation().value()).sum();
            prop_assert_eq!(
                Reputation::new(scalar / num_sm as f64).value().to_bits(),
                slab.aggregate(0, num_sm).value().to_bits()
            );
        }

        /// `adjust` matches `ScoreState::adjust`.
        #[test]
        fn adjust_matches_scalar(r in 0.0f64..=1.0, amount in -1.5f64..=1.5) {
            let mut state = ScoreState::new(Reputation::new(r), 1.0);
            let mut slab = ScoreSlab::new();
            slab.push(state);
            state.adjust(amount);
            slab.adjust(0, amount);
            prop_assert_eq!(state.reputation().value().to_bits(),
                            slab.get(0).reputation().value().to_bits());
        }
    }
}
