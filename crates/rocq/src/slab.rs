//! The score slab: [`ScoreState`]s stored as parallel `r`/`w` arrays
//! (struct-of-arrays), plus the two per-lane walks the engine hot
//! path runs over them.
//!
//! The per-subject replica states are a contiguous, `numSM`-strided
//! slab. Two walks dominate the feedback hot path:
//!
//! 1. **The report walk** ([`ScoreSlab::report_span`]): one opinion
//!    folded into all `numSM` replicas of a subject, fused with the
//!    per-replica credibility update. It is one loop over
//!    [`report_lane`], whose branchless selects replace the scalar
//!    path's per-lane early return.
//! 2. **The aggregate walk** ([`ScoreSlab::sum_span`]): the cached
//!    replica-mean refresh, one subject at a time. A subject's sum is
//!    a sequential left-to-right chain — reassociating it would
//!    change result bits, and the golden CSVs pin bit-identity.
//!
//! ## Determinism rule
//!
//! Every float operation here is bit-identical to the scalar
//! reference path (`ScoreState::report` + `credibility_update` +
//! `aggregate`): same operations, same order, per lane. No sum is
//! reassociated, no contraction (fma) is introduced, and the
//! branchless selects store the untouched input bits on skipped
//! lanes. `reference::ReferenceEngine` keeps the scalar walk and the
//! churn oracle in `replend-tests` diffs the two bit-for-bit; if a
//! future change *does* reassociate, it must become a new shared
//! definition across `RocqEngine`, `ReferenceEngine` and
//! `ConcurrentEngine` — not a silent drift of this slab.
//!
//! The split layout keeps the aggregate refresh cheap: it reads only
//! `r` values, and with `r` split from `w` those loads are contiguous
//! — half the memory traffic of an interleaved `(r, w)` pair layout.

use crate::score::ScoreState;
use replend_types::Reputation;

/// `Reputation::new(raw).value()` as a plain f64 function — the
/// clamped read the scalar path performs on every `reputation()`
/// call. Kept bit-exact (including the NaN → 0 mapping) so slab
/// sums see exactly the values the scalar walk summed.
#[inline(always)]
fn rep_value(raw: f64) -> f64 {
    if raw.is_nan() {
        return 0.0;
    }
    raw.clamp(0.0, 1.0)
}

/// One fused report + credibility lane. Bit-identical to the scalar
/// sequence
///
/// ```text
/// prev   = state.reputation().value();
/// agreed = (raw_opinion - prev).abs() <= agreement_threshold;
/// state.report(raw_opinion, cred * q, weight_cap);
/// cred   = credibility_update(cred, agreed, gamma);
/// ```
///
/// `op` is the pre-clamped opinion and `cap` the pre-maxed weight cap
/// (both loop-invariant, hoisted by the caller). The scalar `report`
/// early-returns on zero weight and has a `denom <= 0` fallback; here
/// the evidence mass `w` is non-negative by construction (checked in
/// debug builds), so a positive weight implies a positive denominator
/// and the fallback branch is unreachable — the zero-weight case
/// becomes a branchless select that stores the untouched input bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn report_lane(
    r: &mut f64,
    w: &mut f64,
    cred: &mut f64,
    raw_opinion: f64,
    op: f64,
    q: f64,
    gamma: f64,
    agreement_threshold: f64,
    cap: f64,
) {
    let c = *cred;
    let raw_prev = *r;
    let mass = *w;
    debug_assert!(mass >= 0.0, "evidence mass must stay non-negative");
    let prev = rep_value(raw_prev);
    let weight = (c * q).max(0.0);
    let skip = weight == 0.0;
    let denom = mass + weight;
    // Speculative mix: on a skipped lane this may divide by zero (a
    // harmless NaN that is never stored).
    let mixed = (raw_prev * mass + op * weight) / denom;
    *r = if skip { raw_prev } else { mixed };
    *w = if skip { mass } else { denom.min(cap) };
    // The credibility update runs unconditionally — the scalar path
    // updates it even when a zero-weight report leaves the score
    // untouched.
    let agreed = (raw_opinion - prev).abs() <= agreement_threshold;
    let grown = c + gamma * (1.0 - c);
    let decayed = c - gamma * c;
    *cred = (if agreed { grown } else { decayed }).clamp(0.0, 1.0);
}

/// Replica score states as parallel `r`/`w` arrays, `numSM`
/// consecutive lanes per subject handle.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScoreSlab {
    r: Vec<f64>,
    w: Vec<f64>,
}

impl ScoreSlab {
    /// An empty slab.
    pub fn new() -> Self {
        ScoreSlab::default()
    }

    /// Appends one lane.
    pub fn push(&mut self, state: ScoreState) {
        let (r, w) = state.raw_parts();
        self.r.push(r);
        self.w.push(w);
    }

    /// Reads lane `i` back as a [`ScoreState`] (bit-exact round-trip).
    #[inline]
    pub fn get(&self, i: usize) -> ScoreState {
        ScoreState::from_raw_parts(self.r[i], self.w[i])
    }

    /// Overwrites lane `i` (bit-exact).
    #[inline]
    pub fn set(&mut self, i: usize, state: ScoreState) {
        let (r, w) = state.raw_parts();
        self.r[i] = r;
        self.w[i] = w;
    }

    /// Copies lane `src` over lane `dst` — the crash-recovery
    /// anti-entropy copy from a sibling replica.
    #[inline]
    pub(crate) fn copy_lane(&mut self, dst: usize, src: usize) {
        self.r[dst] = self.r[src];
        self.w[dst] = self.w[src];
    }

    /// `ScoreState::adjust` over `n` consecutive lanes from `base` —
    /// the lending credit/debit walk (evidence mass unchanged).
    pub(crate) fn adjust_span(&mut self, base: usize, n: usize, amount: f64) {
        for r in &mut self.r[base..base + n] {
            *r = (*r + amount).clamp(0.0, 1.0);
        }
    }

    /// The fused report + credibility walk over `n` consecutive
    /// lanes from `base`, with the reporter's credibility row `creds`
    /// advancing in lockstep; bit-identical to the scalar per-lane
    /// walk (see [`report_lane`] and the module docs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn report_span(
        &mut self,
        base: usize,
        n: usize,
        creds: &mut [f64],
        opinion: f64,
        q: f64,
        gamma: f64,
        agreement_threshold: f64,
        weight_cap: f64,
    ) {
        debug_assert_eq!(creds.len(), n, "credibility row must match the span");
        let r = &mut self.r[base..base + n];
        let w = &mut self.w[base..base + n];
        // Loop-invariant pieces of `ScoreState::report`, hoisted.
        let op = opinion.clamp(0.0, 1.0);
        let cap = weight_cap.max(1.0);
        for ((r, w), cred) in r.iter_mut().zip(w.iter_mut()).zip(creds.iter_mut()) {
            report_lane(r, w, cred, opinion, op, q, gamma, agreement_threshold, cap);
        }
    }

    /// The clamped-read sum of `n` consecutive lanes from `base`, as a
    /// sequential left-to-right chain — bit-identical to
    /// `states.iter().map(|s| s.reputation().value()).sum()` on the
    /// interleaved layout. **Not** reassociated (see the module docs).
    #[inline]
    pub(crate) fn sum_span(&self, base: usize, n: usize) -> f64 {
        self.r[base..base + n].iter().copied().map(rep_value).sum()
    }

    /// The replica-mean aggregate of one subject's span, matching the
    /// engine's historical `aggregate` definition (sum then divide).
    #[inline]
    pub(crate) fn aggregate_span(&self, base: usize, n: usize) -> Reputation {
        Reputation::new(self.sum_span(base, n) / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credibility::credibility_update;
    use proptest::prelude::*;

    /// The scalar `ScoreState` walk over an interleaved layout — the
    /// in-module bit-identity oracle.
    #[allow(clippy::too_many_arguments)]
    fn scalar_walk(
        states: &mut [ScoreState],
        creds: &mut [f64],
        opinion: f64,
        q: f64,
        gamma: f64,
        agreement_threshold: f64,
        weight_cap: f64,
    ) {
        for (state, cred) in states.iter_mut().zip(creds.iter_mut()) {
            let c = *cred;
            let prev = state.reputation().value();
            let agreed = (opinion - prev).abs() <= agreement_threshold;
            state.report(opinion, c * q, weight_cap);
            *cred = credibility_update(c, agreed, gamma);
        }
    }

    fn slab_of(states: &[ScoreState]) -> ScoreSlab {
        let mut slab = ScoreSlab::new();
        for &s in states {
            slab.push(s);
        }
        slab
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let mut slab = ScoreSlab::new();
        let s = ScoreState::new(Reputation::new(0.375), 12.5);
        slab.push(s);
        slab.push(ScoreState::default());
        assert_eq!(slab.r.len(), 2);
        assert_eq!(slab.w.len(), 2);
        assert_eq!(slab.get(0), s);
        assert_eq!(slab.get(1), ScoreState::default());
        slab.set(1, s);
        slab.copy_lane(0, 1);
        assert_eq!(slab.get(0), s);
    }

    proptest! {
        /// The report walk is bit-identical to the scalar walk across
        /// lane counts, arbitrary lane values, and zero-weight lanes
        /// (cred or q zero).
        #[test]
        fn report_span_matches_scalar_walk(
            n in 1usize..=9,
            seed_vals in proptest::collection::vec(
                (0.0f64..=1.0, 0.0f64..=40.0, 0.0f64..=1.0), 9),
            opinion in -0.5f64..=1.5,
            q in 0.0f64..=1.0,
            gamma in 0.01f64..=0.5,
            threshold in 0.0f64..=1.0,
            rounds in 1usize..=4,
        ) {
            let mut states: Vec<ScoreState> = Vec::new();
            let mut creds_a: Vec<f64> = Vec::new();
            for &(r, w, c) in seed_vals.iter().take(n) {
                states.push(ScoreState::new(Reputation::new(r), w));
                creds_a.push(c);
            }
            let mut slab = slab_of(&states);
            let mut creds_b = creds_a.clone();
            for round in 0..rounds {
                // Vary q across rounds so some lanes hit weight == 0.
                let q = if round % 2 == 0 { q } else { 0.0 };
                scalar_walk(&mut states, &mut creds_a, opinion, q,
                            gamma, threshold, 40.0);
                slab.report_span(0, n, &mut creds_b, opinion, q,
                                 gamma, threshold, 40.0);
            }
            for i in 0..n {
                let (sr, sw) = (states[i].reputation().value(),
                                states[i].raw_parts().1);
                let k = slab.get(i);
                prop_assert_eq!(sr.to_bits(),
                                k.reputation().value().to_bits(),
                                "lane {} r", i);
                prop_assert_eq!(sw.to_bits(), k.raw_parts().1.to_bits(),
                                "lane {} w", i);
                prop_assert_eq!(creds_a[i].to_bits(),
                                creds_b[i].to_bits(), "lane {} cred", i);
            }
        }

        /// `sum_span`/`aggregate_span` are bit-identical to the
        /// interleaved layout's clamped-read sum.
        #[test]
        fn sums_match_scalar_aggregate(
            vals in proptest::collection::vec((0.0f64..=1.0, 0.0f64..=40.0), 1..16),
        ) {
            let states: Vec<ScoreState> = vals
                .iter()
                .map(|&(r, w)| ScoreState::new(Reputation::new(r), w))
                .collect();
            let slab = slab_of(&states);
            let scalar: f64 = states.iter()
                .map(|s| s.reputation().value()).sum();
            prop_assert_eq!(scalar.to_bits(),
                            slab.sum_span(0, states.len()).to_bits());
            let mean = Reputation::new(scalar / states.len() as f64);
            prop_assert_eq!(
                mean.value().to_bits(),
                slab.aggregate_span(0, states.len()).value().to_bits()
            );
        }

        /// `adjust_span` matches per-state `ScoreState::adjust`.
        #[test]
        fn adjust_span_matches_scalar(
            vals in proptest::collection::vec(0.0f64..=1.0, 1..12),
            amount in -1.5f64..=1.5,
        ) {
            let mut states: Vec<ScoreState> = vals.iter()
                .map(|&r| ScoreState::new(Reputation::new(r), 1.0))
                .collect();
            let mut slab = slab_of(&states);
            for s in &mut states {
                s.adjust(amount);
            }
            slab.adjust_span(0, states.len(), amount);
            for (i, s) in states.iter().enumerate() {
                prop_assert_eq!(s.reputation().value().to_bits(),
                                slab.get(i).reputation().value().to_bits());
            }
        }
    }
}
