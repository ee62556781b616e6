//! Score-slab oracle: the struct-of-arrays slab walks of
//! [`RocqEngine`] (the fused report span with its branchless lanes,
//! the per-subject cached-aggregate refresh) must be
//! **byte-identical** to the scalar seed layout ([`ReferenceEngine`])
//! for every replication factor, and under the inputs that exercise
//! the lanes' edge cases:
//!
//! * `numSM ∈ {1, 2, 3, 4, 7, 8}`: a single lane, small and large
//!   spans, odd and even (the span length is the only per-subject
//!   loop bound, so a future unrolled or SIMD walk has its remainder
//!   lengths covered here);
//! * zero-weight feedbacks (`min_quality = 0`, so a reporter's first
//!   report carries weight exactly 0 and its lane must keep the old
//!   bits through the branchless select);
//! * crash recovery: at `numSM = 1` a lost replica resets the lane and
//!   the book, and at `numSM > 1` the arena engine simulates no overlay
//!   while the reference loses and recovers real replicas;
//! * the crash model off, where the arena engine simulates no overlay
//!   at all while the reference still runs its ring and re-homings.

use proptest::prelude::*;
use replend_rocq::{ReferenceEngine, ReputationEngine, RocqEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation, ReputationDelta};

/// Peer-id universe — small, so reports pile onto the same subjects.
const POP: u64 = 32;

/// Every replication factor the oracle sweeps: 1 through 4, then one
/// odd and one even span above them.
const NUM_SM: &[usize] = &[1, 2, 3, 4, 7, 8];

/// One decoded engine operation.
#[derive(Clone, Debug)]
enum Op {
    Join(PeerId, f64),
    Leave(PeerId),
    Report(PeerId, PeerId, f64),
    Batch(Vec<Feedback>),
    Credit(PeerId, f64),
    Debit(PeerId, f64),
}

/// Decodes raw generated tuples into operations (plain arithmetic so
/// per-component shrinking stays meaningful).
fn decode(raw: &[(u8, u64, u64, f64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, a, b, x)| {
            let p = PeerId(a % POP);
            let q = PeerId(b % POP);
            match sel % 6 {
                0 => Op::Join(p, x),
                1 => Op::Leave(p),
                2 => Op::Report(p, q, (a % 2) as f64),
                3 => {
                    let len = b % 24 + 1;
                    Op::Batch(
                        (0..len)
                            .map(|j| {
                                Feedback::new(
                                    PeerId((a + j * 7) % POP),
                                    PeerId((b + j * 3) % POP),
                                    ((a + j) % 2) as f64,
                                )
                            })
                            .collect(),
                    )
                }
                4 => Op::Credit(p, x * 0.3),
                _ => Op::Debit(p, x * 0.3),
            }
        })
        .collect()
}

/// Everything observable through the trait: per-operation delta
/// streams (bits) and the final reputation bits of every peer.
type Observed = (Vec<Vec<(PeerId, u64, u64)>>, Vec<Option<u64>>);

/// Drives `e` through a populate-report-vacate prelude and `ops`,
/// draining deltas after every step.
fn drive(e: &mut dyn ReputationEngine, ops: &[Op]) -> Observed {
    let mut streams = Vec::new();
    let mut buf: Vec<ReputationDelta> = Vec::new();
    fn checkpoint(
        e: &mut dyn ReputationEngine,
        buf: &mut Vec<ReputationDelta>,
        streams: &mut Vec<Vec<(PeerId, u64, u64)>>,
    ) {
        buf.clear();
        e.drain_deltas(buf);
        streams.push(
            buf.iter()
                .map(|d| (d.subject, d.old.value().to_bits(), d.new.value().to_bits()))
                .collect(),
        );
    }
    for p in 0..12u64 {
        e.register_peer(PeerId(p), Reputation::ONE);
    }
    for r in 0..36u64 {
        e.report(PeerId(r % 12), PeerId((r + 5) % 12), (r % 2) as f64);
    }
    for p in [1u64, 9, 4] {
        e.remove_peer(PeerId(p));
    }
    checkpoint(e, &mut buf, &mut streams);
    for op in ops {
        match op {
            Op::Join(p, initial) => e.register_peer(*p, Reputation::new(*initial)),
            Op::Leave(p) => e.remove_peer(*p),
            Op::Report(r, s, o) => e.report(*r, *s, *o),
            Op::Batch(batch) => e.report_batch(batch),
            Op::Credit(p, amt) => e.credit(*p, *amt),
            Op::Debit(p, amt) => e.debit(*p, *amt),
        }
        checkpoint(e, &mut buf, &mut streams);
    }
    let reps = (0..POP)
        .map(|p| e.reputation(PeerId(p)).map(|r| r.value().to_bits()))
        .collect();
    (streams, reps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The core contract at every span length: slab-walking arena
    /// engine == scalar reference, bit for bit, with the crash model
    /// active (column copy/reset lanes included).
    #[test]
    fn vectorised_engine_matches_reference_at_every_num_sm(
        raw in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u64::ANY,
             proptest::num::u64::ANY, 0.0f64..1.0),
            1..48),
        crash in 0.0f64..1.0,
    ) {
        let ops = decode(&raw);
        let params = RocqParams { crash_prob: crash, ..Default::default() };
        for &sm in NUM_SM {
            let mut arena = RocqEngine::new(params, sm, 77);
            let mut seed = ReferenceEngine::new(params, sm, 77);
            let baseline = drive(&mut seed, &ops);
            let vectored = drive(&mut arena, &ops);
            prop_assert_eq!(
                &baseline, &vectored,
                "vectorised engine diverged from reference at numSM={}", sm
            );
        }
    }

    /// Zero-weight lanes: with `min_quality = 0` a reporter's first
    /// report has quality 0 → weight exactly 0. The scalar reference
    /// skips the mix via an early return; the slab's report lane must
    /// keep the identical old bits through its branchless select
    /// (while still updating credibility) at every span length.
    #[test]
    fn zero_weight_feedbacks_are_byte_identical(
        raw in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u64::ANY,
             proptest::num::u64::ANY, 0.0f64..1.0),
            1..48),
    ) {
        let ops = decode(&raw);
        let params = RocqParams { min_quality: 0.0, ..Default::default() };
        for &sm in NUM_SM {
            let mut arena = RocqEngine::new(params, sm, 91);
            let mut seed = ReferenceEngine::new(params, sm, 91);
            let baseline = drive(&mut seed, &ops);
            let vectored = drive(&mut arena, &ops);
            prop_assert_eq!(
                &baseline, &vectored,
                "zero-weight lanes diverged at numSM={}", sm
            );
        }
    }
}

/// Drives the arena engine and the reference through a fixed churn
/// storm (joins, leaves, single reports, batches and credits) at every
/// swept numSM, asserting identical delta streams and reputation bits,
/// then hands each pair and its numSM to `check`.
fn churn_storm_matches_reference(
    crash_prob: f64,
    check: impl Fn(usize, &RocqEngine, &ReferenceEngine),
) {
    let params = RocqParams {
        crash_prob,
        ..Default::default()
    };
    let ops: Vec<Op> = (0..120u64)
        .map(|i| match i % 5 {
            0 => Op::Join(PeerId(i % POP), 0.6),
            1 => Op::Report(PeerId(i % POP), PeerId((i + 3) % POP), (i % 2) as f64),
            2 => Op::Leave(PeerId((i * 3) % POP)),
            3 => Op::Batch(
                (0..8)
                    .map(|j| {
                        Feedback::new(
                            PeerId((i + j * 5) % POP),
                            PeerId((i + j * 11) % POP),
                            ((i + j) % 2) as f64,
                        )
                    })
                    .collect(),
            ),
            _ => Op::Credit(PeerId(i % POP), 0.05),
        })
        .collect();
    for &sm in NUM_SM {
        let mut arena = RocqEngine::new(params, sm, 0xC0FFEE);
        let mut seed = ReferenceEngine::new(params, sm, 0xC0FFEE);
        let baseline = drive(&mut seed, &ops);
        let vectored = drive(&mut arena, &ops);
        assert_eq!(
            baseline, vectored,
            "arena diverged from reference at numSM={sm}, crash_prob={crash_prob}"
        );
        check(sm, &arena, &seed);
    }
}

/// Deterministic (non-proptest) spot check: a crash-heavy churn storm
/// at every swept numSM, slab engine vs reference — a fixed
/// regression anchor that fails loudly without shrinking. The arena
/// counts the reference's re-homings and losses where it simulates the
/// overlay (`numSM = 1`) and none elsewhere, where a loss could change
/// nothing.
#[test]
fn crash_recovery_column_ops_stay_identical() {
    churn_storm_matches_reference(0.5, |sm, arena, seed| {
        assert!(seed.crash_losses() > 0, "numSM={sm}: no crash fired");
        let expected = if sm == 1 {
            (seed.rehomings(), seed.crash_losses())
        } else {
            (0, 0)
        };
        assert_eq!(
            (arena.rehomings(), arena.crash_losses()),
            expected,
            "churn counters diverged at numSM={sm}"
        );
    });
}

/// The crash-off equivalence: with `crash_prob = 0` the arena engine
/// keeps no overlay (no ring, no replica-key index, no re-homing),
/// while the reference still joins, leaves and re-homes every replica.
/// A re-homing without the crash model must change nothing.
#[test]
fn overlay_free_engine_matches_reference_without_crashes() {
    churn_storm_matches_reference(0.0, |_, arena, seed| {
        assert!(seed.rehomings() > 0, "the reference re-homed replicas");
        assert_eq!(seed.crash_losses(), 0);
        assert_eq!((arena.rehomings(), arena.crash_losses()), (0, 0));
    });
}
