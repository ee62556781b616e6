//! ISSUE 8 read-coherence suite: a wait-free snapshot read must
//! observe exactly a published pre-batch or post-batch state — never
//! a mix of the two — under adversarial reader/writer interleavings,
//! across epoch wraparound, and across slot reuse after churn.
//!
//! Strategy: every proptest case derives a batch sequence, replays it
//! **serially** first to enumerate the exact set of states the writer
//! ever publishes (per subject: the `(reputation bits, interaction
//! count)` pair after each batch, or absence), then replays it live
//! with a writer thread racing reader threads. Each batch changes a
//! touched subject's reputation *and* count together, so any torn
//! read — reputation from batch `k` paired with a count from batch
//! `j ≠ k` — produces a pair outside the valid set and fails the
//! membership check. The engine-level case makes the same argument
//! for whole census sweeps: a concurrent `for_each_subject` over a
//! single-partition engine must equal one of the serial post-batch
//! fingerprints exactly.

use proptest::prelude::*;
use replend_rocq::{ConcurrentEngine, ReputationEngine, RocqEngine, RocqParams, SnapshotSlab};
use replend_types::hash::{salted, splitmix64, PeerMap, PeerSet};
use replend_types::{Feedback, PeerId, Reputation};
use std::sync::atomic::{AtomicBool, Ordering};

/// Subject universe: small, so churn keeps reusing the same slots.
/// The slab takes its slots from the caller; this suite gives each
/// peer the slot of its id, as the facade gives each subject the slot
/// of its engine handle.
const POP: u64 = 12;

/// One slab mutation batch, applied under a single write window.
#[derive(Clone, Debug)]
enum SlabOp {
    /// Insert (or re-insert) the peer and stamp fresh values.
    Upsert(u64),
    /// Remove the peer (its slot keeps stale values until reused).
    Remove(u64),
    /// Bump values of every currently-present peer in the list.
    Touch(Vec<u64>),
}

/// Decodes generated tuples into slab batches; plain arithmetic so
/// the shim's per-component shrinking stays meaningful.
fn decode_slab(raw: &[(u8, u64, u64)]) -> Vec<SlabOp> {
    raw.iter()
        .map(|&(sel, a, b)| match sel % 4 {
            0 | 1 => SlabOp::Upsert(a % POP),
            2 => SlabOp::Remove(a % POP),
            _ => {
                let len = b % 5 + 1;
                SlabOp::Touch((0..len).map(|j| a.wrapping_add(j * 5) % POP).collect())
            }
        })
        .collect()
}

/// The deterministic value stamp of batch `k` for `peer`: reputation
/// bits and hits that change in lock-step, so a mixed pair is
/// detectable.
fn stamp(case_seed: u64, k: u64, peer: u64) -> (u64, u64) {
    let bits = splitmix64(salted(case_seed, k << 8 | peer));
    (bits, k + 1)
}

/// Replays `ops` serially over a model map, recording every published
/// per-peer state (including absence) into the valid set.
fn slab_valid_states(case_seed: u64, ops: &[SlabOp]) -> PeerMap<u64, PeerSet<Option<(u64, u64)>>> {
    let mut model: PeerMap<u64, (u64, u64)> = PeerMap::default();
    let mut valid: PeerMap<u64, PeerSet<Option<(u64, u64)>>> = PeerMap::default();
    let publish = |model: &PeerMap<u64, (u64, u64)>,
                   valid: &mut PeerMap<u64, PeerSet<Option<(u64, u64)>>>| {
        for p in 0..POP {
            valid.entry(p).or_default().insert(model.get(&p).copied());
        }
    };
    publish(&model, &mut valid);
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        match op {
            SlabOp::Upsert(p) => {
                model.insert(*p, stamp(case_seed, k, *p));
            }
            SlabOp::Remove(p) => {
                model.remove(p);
            }
            SlabOp::Touch(peers) => {
                for p in peers {
                    if model.contains_key(p) {
                        model.insert(*p, stamp(case_seed, k, *p));
                    }
                }
            }
        }
        publish(&model, &mut valid);
    }
    valid
}

/// Applies one batch to the live slab under a single write window,
/// mirroring `slab_valid_states` exactly.
fn apply_slab_op(slab: &SnapshotSlab, case_seed: u64, k: u64, op: &SlabOp) {
    let mut w = slab.write();
    match op {
        SlabOp::Upsert(p) => {
            let slot = *p as u32;
            w.insert(PeerId(*p), slot);
            let (bits, hits) = stamp(case_seed, k, *p);
            w.set_reputation(slot, bits);
            // `add_hits` accumulates; the model stores absolutes, so
            // reset by re-inserting semantics: a fresh insert starts
            // at zero, but a touch of an existing slot must *set*.
            // The slab has no `set_hits`, so drive hits by delta.
            let current = w.hits_of(slot);
            w.add_hits(slot, hits.wrapping_sub(current));
        }
        SlabOp::Remove(p) => w.remove(PeerId(*p)),
        SlabOp::Touch(peers) => {
            for p in peers {
                if let Some(slot) = w.slot_of(PeerId(*p)) {
                    let (bits, hits) = stamp(case_seed, k, *p);
                    w.set_reputation(slot, bits);
                    let current = w.hits_of(slot);
                    w.add_hits(slot, hits.wrapping_sub(current));
                }
            }
        }
    }
}

/// Runs the slab interleaving for one case: writer thread applies the
/// batches; `readers` threads probe random peers and check every
/// coherent pair against the valid set. Returns the first violation.
fn run_slab_case(
    case_seed: u64,
    epoch0: u64,
    ops: &[SlabOp],
    readers: usize,
) -> Result<(), String> {
    let valid = slab_valid_states(case_seed, ops);
    let slab = SnapshotSlab::with_epoch(epoch0);
    let done = AtomicBool::new(false);
    let mut failures: Vec<String> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..readers {
            let slab = &slab;
            let valid = &valid;
            let done = &done;
            handles.push(scope.spawn(move || -> Result<u64, String> {
                let mut rng = splitmix64(salted(case_seed, r as u64 + 100));
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let p = rng % POP;
                    let observed = slab.read(PeerId(p));
                    if !valid[&p].contains(&observed) {
                        return Err(format!(
                            "peer {p}: torn read {observed:?} is not a published state"
                        ));
                    }
                    reads += 1;
                    rng = splitmix64(rng);
                }
                Ok(reads)
            }));
        }
        for (k, op) in ops.iter().enumerate() {
            apply_slab_op(&slab, case_seed, k as u64, op);
            // Give readers a window at every published state.
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
        for h in handles {
            if let Err(e) = h.join().expect("reader panicked") {
                failures.push(e);
            }
        }
    });

    if let Some(f) = failures.first() {
        return Err(f.clone());
    }
    // Quiesced: every peer must read exactly the final model state,
    // and the epoch must have advanced by two per write window from
    // `epoch0` (modulo wraparound — equality is all the protocol
    // needs).
    let writes = ops.len() as u64;
    if slab.epoch() != epoch0.wrapping_add(writes * 2) {
        return Err(format!(
            "epoch drifted: expected {} writes from {epoch0}, at {}",
            writes,
            slab.epoch()
        ));
    }
    for p in 0..POP {
        let observed = slab.read(PeerId(p));
        if !valid[&p].contains(&observed) {
            return Err(format!("peer {p}: final state {observed:?} invalid"));
        }
    }
    Ok(())
}

/// One engine-level feedback batch: reporter/subject/opinion triples
/// over the registered population.
fn decode_batches(raw: &[(u64, u64)], subjects: u64) -> Vec<Vec<Feedback>> {
    raw.iter()
        .map(|&(a, b)| {
            let len = b % 6 + 1;
            (0..len)
                .map(|j| {
                    Feedback::new(
                        PeerId(a.wrapping_add(j * 11) % subjects),
                        PeerId(b.wrapping_add(j * 7) % subjects),
                        (a.wrapping_add(b).wrapping_add(j) % 2) as f64,
                    )
                })
                .collect()
        })
        .collect()
}

/// Sorted full-state fingerprint of a single-partition engine.
type Fingerprint = Vec<(u64, u64, u64)>;

fn fingerprint_of(e: &ConcurrentEngine) -> Fingerprint {
    let mut state = Vec::new();
    e.for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
    state.sort_unstable();
    state
}

/// Serially enumerates every post-batch fingerprint (plus the
/// pre-ingest one) a single-partition engine publishes for `batches`.
fn serial_fingerprints(
    subjects: u64,
    seed: u64,
    epoch0: u64,
    batches: &[Vec<Feedback>],
) -> Vec<Fingerprint> {
    let e = ConcurrentEngine::with_read_epoch(serve_params(), 3, 1, seed, epoch0);
    for s in 0..subjects {
        e.register_peer(PeerId(s), Reputation::HALF);
    }
    let mut prints = vec![fingerprint_of(&e)];
    for batch in batches {
        e.report_batch(batch);
        prints.push(fingerprint_of(&e));
    }
    prints
}

fn serve_params() -> RocqParams {
    RocqParams {
        crash_prob: 0.0,
        ..RocqParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Slab-level interleaving: concurrent pair reads only ever see
    /// published states, across churn-driven slot recycling.
    #[test]
    fn slab_reads_never_observe_a_half_applied_batch(
        raw in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u64::ANY, proptest::num::u64::ANY),
            1..40),
        case_seed in proptest::num::u64::ANY,
    ) {
        let ops = decode_slab(&raw);
        prop_assert_eq!(run_slab_case(case_seed, 0, &ops, 2), Ok(()));
    }

    /// Same property with the epoch counter starting at the edge of
    /// `u64`, so validation spans the wraparound. Equality comparison
    /// (not ordering) is what makes this safe; this case would catch
    /// anyone "improving" the retry rule to `epoch2 >= epoch1`.
    #[test]
    fn slab_reads_stay_coherent_across_epoch_wraparound(
        raw in proptest::collection::vec(
            (proptest::num::u8::ANY, proptest::num::u64::ANY, proptest::num::u64::ANY),
            4..40),
        case_seed in proptest::num::u64::ANY,
    ) {
        let ops = decode_slab(&raw);
        // Few enough even epochs remain that the writer must wrap.
        let epoch0 = u64::MAX - 5;
        prop_assert_eq!(run_slab_case(case_seed, epoch0, &ops, 2), Ok(()));
    }

    /// Engine-level interleaving: every concurrent census sweep of a
    /// contended single-partition engine equals one of the serial
    /// post-batch fingerprints — whole batches are atomic to readers.
    #[test]
    fn census_sweeps_only_see_whole_batches(
        raw in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 1..24),
        seed in proptest::num::u64::ANY,
        wrap in proptest::bool::ANY,
    ) {
        let subjects = 10u64;
        let batches = decode_batches(&raw, subjects);
        // Half the cases also cross the epoch wraparound mid-ingest.
        let epoch0 = if wrap { u64::MAX - 7 } else { 0 };
        let serial = serial_fingerprints(subjects, seed, epoch0, &batches);
        let valid: PeerSet<&Fingerprint> = serial.iter().collect();

        let live = ConcurrentEngine::with_read_epoch(serve_params(), 3, 1, seed, epoch0);
        for s in 0..subjects {
            live.register_peer(PeerId(s), Reputation::HALF);
        }
        let done = AtomicBool::new(false);
        let mut sweep_failure: Option<String> = None;
        std::thread::scope(|scope| {
            let live = &live;
            let done = &done;
            let valid = &valid;
            let handle = scope.spawn(move || -> Result<(), String> {
                while !done.load(Ordering::Relaxed) {
                    let print = fingerprint_of(live);
                    if !valid.contains(&print) {
                        return Err(format!(
                            "sweep saw a state matching no post-batch fingerprint: {print:?}"
                        ));
                    }
                }
                Ok(())
            });
            for batch in &batches {
                live.report_batch(batch);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            if let Err(e) = handle.join().expect("sweeper panicked") {
                sweep_failure = Some(e);
            }
        });
        prop_assert_eq!(sweep_failure, None);

        // Quiesced: the live engine landed on the last serial state,
        // and the lock-free reads agree bit for bit with a monolithic
        // engine fed the same ops (the crash model is off).
        prop_assert_eq!(&fingerprint_of(&live), serial.last().unwrap());
        let mut monolith = RocqEngine::new(serve_params(), 3, seed);
        for s in 0..subjects {
            monolith.register_peer(PeerId(s), Reputation::HALF);
        }
        for batch in &batches {
            monolith.report_batch(batch);
        }
        for s in 0..subjects {
            let subject = PeerId(s);
            prop_assert_eq!(
                live.reputation(subject).map(|r| r.value().to_bits()),
                monolith.reputation(subject).map(|r| r.value().to_bits())
            );
        }
    }
}

/// Slot reuse, deterministically: remove and re-register peers out of
/// order so vacated slots, still holding their last values, are taken
/// again, and check a stale reader started before the churn still
/// only sees published states.
#[test]
fn recycled_slots_never_leak_previous_tenant_values() {
    let case_seed = 0xC0FFEE;
    let mut ops = Vec::new();
    // Fill, vacate out of order, refill — twice — then touch storms.
    for round in 0..2u64 {
        for p in 0..POP {
            ops.push(SlabOp::Upsert(p));
        }
        for p in [3u64, 9, 1, 7, 5] {
            ops.push(SlabOp::Remove((p + round) % POP));
        }
        for p in [9u64, 3, 5, 1, 7] {
            ops.push(SlabOp::Upsert((p + round) % POP));
        }
        ops.push(SlabOp::Touch((0..POP).collect()));
    }
    assert_eq!(run_slab_case(case_seed, 0, &ops, 3), Ok(()));
}
