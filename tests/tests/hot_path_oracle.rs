//! ISSUE 5 churn oracle: the dense-arena [`RocqEngine`] must be
//! **byte-identical** to the preserved seed layout
//! ([`ReferenceEngine`]) under adversarial interleavings of joins,
//! departures, crashes, batches and direct adjustments — the
//! interleavings that recycle arena handles in hostile orders.
//!
//! Each proptest case derives an operation sequence, drives the arena
//! and reference engines through it (crash model active), drains
//! deltas after
//! *every* operation, and requires: identical delta streams
//! (subject, old bits, new bits, in drained order), bitwise-identical
//! final reputations, and identical re-homing/crash counters.
//!
//! A deterministic churn-storm prelude runs before the generated
//! operations so the arena's free list is already populated and
//! recycled out of id order — fresh ids then land on reused handles
//! while old subjects keep theirs.

use proptest::prelude::*;
use replend_rocq::{ReferenceEngine, ReputationEngine, RocqEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation, ReputationDelta};

/// Peer-id universe the generated operations draw from — small
/// enough that joins, leaves and reports keep colliding on the same
/// subjects (and the same recycled handles).
const POP: u64 = 48;

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

/// Decodes raw generated tuples into operations. Kept as plain
/// arithmetic over the tuple fields so the proptest shim's shrinking
/// (which works per tuple component) stays meaningful.
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

/// Everything observable through the [`ReputationEngine`] trait:
/// per-operation delta streams and the final reputation bits.
type Observed = (Vec<Vec<(PeerId, u64, u64)>>, Vec<Option<u64>>);

/// Drives `e` through the churn-storm prelude and `ops`, draining
/// deltas after every step.
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
    // Churn-storm prelude: populate, build report history (so
    // departures leave earned credibility and interaction counts
    // behind), vacate out of order, refill — the refills recycle
    // arena handles while survivors keep theirs, and some departed
    // peers re-join later via generated ops, which must resume their
    // pre-departure credibility in both layouts.
    for p in 0..16u64 {
        e.register_peer(PeerId(p), Reputation::ONE);
    }
    for r in 0..48u64 {
        e.report(PeerId(r % 16), PeerId((r + 3) % 16), (r % 2) as f64);
    }
    for p in [2u64, 11, 7, 3, 13] {
        e.remove_peer(PeerId(p));
    }
    for p in 16..21u64 {
        e.register_peer(PeerId(p), Reputation::HALF);
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
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn arena_engine_matches_seed_layout_under_churn(
        raw in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u64::ANY,
             proptest::num::u64::ANY, 0.0f64..1.0),
            1..64),
        crash in 0.0f64..1.0,
    ) {
        let ops = decode(&raw);
        let params = RocqParams { crash_prob: crash, ..Default::default() };
        let mut arena = RocqEngine::new(params, 3, 23);
        let mut seed = ReferenceEngine::new(params, 3, 23);
        let baseline = drive(&mut seed, &ops);
        let from_arena = drive(&mut arena, &ops);
        prop_assert_eq!(&baseline, &from_arena, "arena diverged from seed layout");
        // Only a crash-model arena simulates the overlay whose
        // re-homings the counters count; the reference always does.
        if crash > 0.0 {
            prop_assert_eq!(
                (arena.rehomings(), arena.crash_losses()),
                (seed.rehomings(), seed.crash_losses()),
                "churn counters diverged"
            );
        }
    }
}
