//! The pre-arena (PR ≤ 4, "seed") engine layout, preserved as a
//! semantic oracle.
//!
//! [`ReferenceEngine`] implements exactly the same ROCQ semantics as
//! [`RocqEngine`](crate::engine::RocqEngine) — same parameters, same
//! deterministic crash rolls, same canonical delta order — but with
//! the seed's memory layout:
//!
//! * subjects in a `PeerMap<PeerId, SubjectRecord>` probed per
//!   access, replicas as an array-of-structs with one
//!   `CredibilityTable` per replica (three hash probes per replica
//!   per report),
//! * an engine-global `InteractionLog` keyed by `(reporter, subject)`
//!   pairs,
//! * a replica-key index of heap-allocated `Vec`s that the
//!   crash-recovery path `.cloned()`s per moved key,
//! * fresh `touched` buffers per batch and a stable (allocating)
//!   sort per delta drain.
//!
//! The churn-oracle property test in `replend-tests` pins the arena
//! engine **byte-identical** to this layout under adversarial
//! interleavings of joins, departures, crashes and handle reuse.
//!
//! Keep this file boring: when engine *semantics* change, change both
//! implementations in lockstep (the oracle will fail loudly if they
//! drift); when only the arena's *layout* changes, leave this file
//! alone — that is the point of it.

use crate::credibility::CredibilityTable;
use crate::engine::ReputationEngine;
use crate::overlay::crash_roll;
use crate::params::RocqParams;
use crate::quality::quality_from_count;
use crate::ring::{replica_key, HandoffEvent, Ring};
use crate::score::ScoreState;
use replend_types::hash::{PeerMap, PeerSet};
use replend_types::{Feedback, NodeId, PeerId, Reputation, ReputationDelta};
use std::collections::BTreeMap;

/// Pairwise first-hand interaction counts, keyed by
/// `(reporter, subject)` — the seed's layout of the quality ramp's `n`
/// (the arena engine keeps it in the credibility row instead).
#[derive(Clone, Debug, Default)]
struct InteractionLog {
    counts: PeerMap<(PeerId, PeerId), u32>,
}

impl InteractionLog {
    /// Records one more interaction, returning the count *before* the
    /// increment (the evidence backing the current opinion).
    fn record(&mut self, reporter: PeerId, subject: PeerId) -> u32 {
        let c = self.counts.entry((reporter, subject)).or_insert(0);
        let before = *c;
        *c = c.saturating_add(1);
        before
    }

    /// Forgets everything about `peer` (as reporter or subject).
    fn forget(&mut self, peer: PeerId) {
        self.counts.retain(|(r, s), _| *r != peer && *s != peer);
    }
}

/// One replica of a subject's score, hosted by an overlay node.
#[derive(Clone, Debug)]
struct Replica {
    /// Ring key that determines the host.
    key: NodeId,
    /// Aggregate state.
    state: ScoreState,
    /// Per-reporter credibility, local to this replica.
    creds: CredibilityTable,
    /// Times this replica has been re-homed by churn.
    rehomes: u64,
}

/// All replicas of one subject, plus the cached aggregate.
#[derive(Clone, Debug)]
struct SubjectRecord {
    replicas: Vec<Replica>,
    /// Mean over `replicas` in slot order.
    cached: Reputation,
    /// Batch sequence number of the last batch that touched this
    /// subject.
    touched_seq: u64,
}

impl SubjectRecord {
    fn recompute(&mut self) -> Reputation {
        if self.replicas.is_empty() {
            self.cached = Reputation::ZERO;
            return self.cached;
        }
        let sum: f64 = self
            .replicas
            .iter()
            .map(|r| r.state.reputation().value())
            .sum();
        self.cached = Reputation::new(sum / self.replicas.len() as f64);
        self.cached
    }
}

/// The reference engine's subject store (the seed's `EngineShard`).
#[derive(Clone, Debug, Default)]
struct RefShard {
    subjects: PeerMap<PeerId, SubjectRecord>,
    key_index: BTreeMap<NodeId, Vec<(PeerId, usize)>>,
    interactions: InteractionLog,
    deltas: Vec<ReputationDelta>,
    rehomings: u64,
    crash_losses: u64,
}

impl RefShard {
    /// Replica keys lying in the clockwise interval
    /// `(start, end]` — materialised into a fresh `Vec`, as the seed
    /// did.
    fn keys_in_arc(&self, start: NodeId, end: NodeId) -> Vec<NodeId> {
        if start == end {
            return self.key_index.keys().copied().collect();
        }
        if start < end {
            self.key_index
                .range((
                    std::ops::Bound::Excluded(start),
                    std::ops::Bound::Included(end),
                ))
                .map(|(k, _)| *k)
                .collect()
        } else {
            self.key_index
                .range((std::ops::Bound::Excluded(start), std::ops::Bound::Unbounded))
                .map(|(k, _)| *k)
                .chain(self.key_index.range(..=end).map(|(k, _)| *k))
                .collect()
        }
    }

    fn apply_handoff(&mut self, event: HandoffEvent, params: &RocqParams, seed: u64) {
        let moved = self.keys_in_arc(event.range_start, event.range_end);
        for key in moved {
            // The seed's per-key clone the arena engine eliminates.
            let assignments = self.key_index.get(&key).cloned().unwrap_or_default();
            for (subject, slot) in assignments {
                self.rehomings += 1;
                let record = self
                    .subjects
                    .get_mut(&subject)
                    .expect("key index refers to live subject");
                let rehomes = record.replicas[slot].rehomes;
                record.replicas[slot].rehomes += 1;
                let crash = params.crash_prob > 0.0
                    && crash_roll(seed, subject, slot, rehomes) < params.crash_prob;
                if crash {
                    self.crash_losses += 1;
                    let sibling = record
                        .replicas
                        .iter()
                        .enumerate()
                        .find(|(i, _)| *i != slot)
                        .map(|(_, r)| (r.state, r.creds.clone()));
                    let replica = &mut record.replicas[slot];
                    match sibling {
                        Some((state, creds)) => {
                            replica.state.overwrite_from(&state);
                            replica.creds = creds;
                        }
                        None => {
                            replica.state = ScoreState::new(Reputation::ZERO, 0.0);
                            replica.creds =
                                CredibilityTable::new(params.initial_credibility, params.gamma);
                        }
                    }
                    let old = record.cached;
                    let new = record.recompute();
                    let delta = ReputationDelta { subject, old, new };
                    if !delta.is_noop() {
                        self.deltas.push(delta);
                    }
                }
            }
        }
    }

    fn apply_report(
        &mut self,
        params: &RocqParams,
        members: &PeerSet<PeerId>,
        reporter: PeerId,
        subject: PeerId,
        opinion: f64,
    ) -> bool {
        if !members.contains(&reporter) {
            return false;
        }
        let Some(record) = self.subjects.get_mut(&subject) else {
            return false;
        };
        let n = self.interactions.record(reporter, subject);
        let q = quality_from_count(n, params.eta, params.min_quality);
        for replica in &mut record.replicas {
            let c = replica.creds.get(reporter);
            let prev = replica.state.reputation().value();
            let agreed = (opinion - prev).abs() <= params.agreement_threshold;
            replica.state.report(opinion, c * q, params.weight_cap);
            replica.creds.update(reporter, agreed);
        }
        true
    }

    fn refresh_cache(&mut self, subject: PeerId) {
        let Some(record) = self.subjects.get_mut(&subject) else {
            return;
        };
        let old = record.cached;
        let new = record.recompute();
        let delta = ReputationDelta { subject, old, new };
        if !delta.is_noop() {
            self.deltas.push(delta);
        }
    }

    fn apply_batch_item(
        &mut self,
        params: &RocqParams,
        members: &PeerSet<PeerId>,
        seq: u64,
        f: &Feedback,
    ) -> Option<PeerId> {
        if !self.apply_report(params, members, f.reporter, f.subject, f.opinion) {
            return None;
        }
        let record = self
            .subjects
            .get_mut(&f.subject)
            .expect("apply_report verified the subject");
        (record.touched_seq != seq).then(|| {
            record.touched_seq = seq;
            f.subject
        })
    }
}

/// The seed-layout ROCQ engine.
pub struct ReferenceEngine {
    params: RocqParams,
    num_sm: usize,
    seed: u64,
    ring: Ring,
    shard: RefShard,
    members: PeerSet<PeerId>,
    batch_seq: u64,
}

impl ReferenceEngine {
    /// A reference engine with `num_sm` score managers per subject.
    ///
    /// # Panics
    /// If `params` fail validation or `num_sm` is zero.
    pub fn new(params: RocqParams, num_sm: usize, seed: u64) -> Self {
        params.validate().expect("invalid ROCQ parameters");
        assert!(num_sm > 0, "need at least one score manager");
        ReferenceEngine {
            params,
            num_sm,
            seed,
            ring: Ring::new(),
            shard: RefShard::default(),
            members: PeerSet::default(),
            batch_seq: 0,
        }
    }

    /// Total replica re-homings caused by churn so far.
    pub fn rehomings(&self) -> u64 {
        self.shard.rehomings
    }

    /// Re-homings that lost state under the crash model.
    pub fn crash_losses(&self) -> u64 {
        self.shard.crash_losses
    }
}

impl ReputationEngine for ReferenceEngine {
    fn register_peer(&mut self, peer: PeerId, initial: Reputation) {
        if self.members.contains(&peer) {
            return;
        }
        if let Some(event) = self.ring.join(peer.node_id()) {
            self.shard.apply_handoff(event, &self.params, self.seed);
        }
        let mut replicas = Vec::with_capacity(self.num_sm);
        for i in 0..self.num_sm {
            let key = replica_key(peer, i);
            replicas.push(Replica {
                key,
                state: ScoreState::new(initial, self.params.prior_weight),
                creds: CredibilityTable::new(self.params.initial_credibility, self.params.gamma),
                rehomes: 0,
            });
            self.shard.key_index.entry(key).or_default().push((peer, i));
        }
        let mut record = SubjectRecord {
            replicas,
            cached: Reputation::ZERO,
            touched_seq: 0,
        };
        record.recompute();
        self.shard.subjects.insert(peer, record);
        self.members.insert(peer);
    }

    fn remove_peer(&mut self, peer: PeerId) {
        if !self.members.remove(&peer) {
            return;
        }
        let shard = &mut self.shard;
        let record = shard
            .subjects
            .remove(&peer)
            .expect("registry and store agree");
        for (i, replica) in record.replicas.iter().enumerate() {
            if let Some(v) = shard.key_index.get_mut(&replica.key) {
                v.retain(|&(p, s)| !(p == peer && s == i));
                if v.is_empty() {
                    shard.key_index.remove(&replica.key);
                }
            }
        }
        shard.interactions.forget(peer);
        if let Some(event) = self.ring.leave(peer.node_id()) {
            shard.apply_handoff(event, &self.params, self.seed);
        }
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.members.contains(&peer)
    }

    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64) {
        let shard = &mut self.shard;
        if shard.apply_report(&self.params, &self.members, reporter, subject, opinion) {
            shard.refresh_cache(subject);
        }
    }

    fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.shard.subjects.get(&subject).map(|r| r.cached)
    }

    fn credit(&mut self, subject: PeerId, amount: f64) {
        let shard = &mut self.shard;
        let Some(record) = shard.subjects.get_mut(&subject) else {
            return;
        };
        for replica in &mut record.replicas {
            replica.state.adjust(amount.abs());
        }
        shard.refresh_cache(subject);
    }

    fn debit(&mut self, subject: PeerId, amount: f64) {
        let shard = &mut self.shard;
        let Some(record) = shard.subjects.get_mut(&subject) else {
            return;
        };
        for replica in &mut record.replicas {
            replica.state.adjust(-amount.abs());
        }
        shard.refresh_cache(subject);
    }

    fn report_batch(&mut self, batch: &[Feedback]) {
        // The seed's serial batch path: fresh first-touch buffer per
        // call, one cache refresh per touched subject.
        self.batch_seq += 1;
        let seq = self.batch_seq;
        let shard = &mut self.shard;
        let mut touched: Vec<PeerId> = Vec::new();
        for f in batch {
            if let Some(subject) = shard.apply_batch_item(&self.params, &self.members, seq, f) {
                touched.push(subject);
            }
        }
        for subject in touched {
            shard.refresh_cache(subject);
        }
    }

    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>) {
        let start = out.len();
        out.append(&mut self.shard.deltas);
        // The seed's canonical merge: stable sort by subject.
        out[start..].sort_by_key(|d| d.subject);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RocqEngine;
    use replend_types::hash::{salted, splitmix64};

    /// Number of recorded (reporter, subject) interactions.
    fn count(log: &InteractionLog, reporter: PeerId, subject: PeerId) -> u32 {
        log.counts.get(&(reporter, subject)).copied().unwrap_or(0)
    }

    #[test]
    fn log_records_and_counts() {
        let mut log = InteractionLog::default();
        let (a, b) = (PeerId(1), PeerId(2));
        assert_eq!(count(&log, a, b), 0);
        assert_eq!(log.record(a, b), 0, "returns pre-increment count");
        assert_eq!(log.record(a, b), 1);
        assert_eq!(count(&log, a, b), 2);
        // Direction matters: b→a is a separate pair.
        assert_eq!(count(&log, b, a), 0);
        assert_eq!(log.counts.len(), 1);
    }

    #[test]
    fn forget_removes_both_directions() {
        let mut log = InteractionLog::default();
        log.record(PeerId(1), PeerId(2));
        log.record(PeerId(2), PeerId(1));
        log.record(PeerId(3), PeerId(4));
        log.forget(PeerId(1));
        assert_eq!(count(&log, PeerId(1), PeerId(2)), 0);
        assert_eq!(count(&log, PeerId(2), PeerId(1)), 0);
        assert_eq!(count(&log, PeerId(3), PeerId(4)), 1);
        assert_eq!(log.counts.len(), 1);
    }

    /// The smoke version of the cross-layout oracle (the adversarial
    /// proptest lives in `replend-tests`): a fixed workload with
    /// churn and crashes must leave both layouts byte-identical.
    #[test]
    fn reference_matches_arena_engine() {
        for num_sm in [1, 4] {
            reference_matches_arena_engine_at(num_sm);
        }
    }

    fn reference_matches_arena_engine_at(num_sm: usize) {
        let params = RocqParams {
            crash_prob: 0.6,
            ..Default::default()
        };
        let mut arena = RocqEngine::new(params, num_sm, 11);
        let mut seed = ReferenceEngine::new(params, num_sm, 11);
        let engines: [&mut dyn ReputationEngine; 2] = [&mut arena, &mut seed];
        let mut streams: Vec<Vec<ReputationDelta>> = vec![Vec::new(), Vec::new()];
        for (e, stream) in engines.into_iter().zip(streams.iter_mut()) {
            for p in 0..60u64 {
                e.register_peer(PeerId(p), Reputation::ONE);
            }
            let batch: Vec<Feedback> = (0..300u64)
                .map(|r| Feedback::new(PeerId(r % 30), PeerId(30 + r % 30), (r % 2) as f64))
                .collect();
            e.report_batch(&batch);
            for p in [5u64, 25, 3, 17] {
                e.remove_peer(PeerId(p));
            }
            for p in 100..110u64 {
                e.register_peer(PeerId(p), Reputation::HALF);
            }
            e.report_batch(&batch);
            e.credit(PeerId(7), 0.1);
            e.debit(PeerId(8), 0.2);
            e.drain_deltas(stream);
        }
        assert_eq!(streams[0], streams[1], "delta streams diverged");
        for p in 0..110u64 {
            assert_eq!(
                arena.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                seed.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                "peer {p} reputation diverged"
            );
        }
        assert_arena_counters(&arena, &seed, num_sm);
    }

    /// The arena's churn counters: the reference's where the arena
    /// simulates the overlay (`numSM = 1`), `(0, 0)` where a loss could
    /// change nothing and it simulates none.
    fn assert_arena_counters(arena: &RocqEngine, seed: &ReferenceEngine, num_sm: usize) {
        assert!(seed.crash_losses() > 0, "numSM {num_sm}: no crash fired");
        let expected = if num_sm == 1 {
            (seed.rehomings(), seed.crash_losses())
        } else {
            (0, 0)
        };
        assert_eq!(
            (arena.rehomings(), arena.crash_losses()),
            expected,
            "numSM {num_sm}"
        );
    }

    /// Asserts that every replica of every subject equals replica 0:
    /// `(r, w)` bits, and the credibility bits each table assigns to
    /// every peer id below `peers`.
    fn assert_replicas_agree(e: &ReferenceEngine, peers: u64, step: u64) {
        for (subject, record) in &e.shard.subjects {
            let first = &record.replicas[0];
            let (r0, w0) = first.state.raw_parts();
            for (slot, replica) in record.replicas.iter().enumerate().skip(1) {
                let (r, w) = replica.state.raw_parts();
                assert_eq!(
                    (r.to_bits(), w.to_bits()),
                    (r0.to_bits(), w0.to_bits()),
                    "step {step}: subject {subject:?} slot {slot} score diverged"
                );
                for p in 0..peers {
                    assert_eq!(
                        replica.creds.get(PeerId(p)).to_bits(),
                        first.creds.get(PeerId(p)).to_bits(),
                        "step {step}: subject {subject:?} slot {slot} credibility of {p} diverged"
                    );
                }
            }
        }
    }

    /// The invariant the arena engine's single score lane rests on: a
    /// churn storm with crash losses never makes one replica differ
    /// from another, because every recovery copies a sibling that is
    /// already bit-equal. Checked after every op, with the arena engine
    /// driven in lockstep. numSM = 1 has no sibling: there the lockstep
    /// comparison pins the arena's lane and book reset.
    #[test]
    fn replicas_stay_bit_equal_under_crash_churn() {
        const PEERS: u64 = 16;
        for crash_prob in [0.3, 1.0] {
            for num_sm in [1, 2, 3, 6] {
                let params = RocqParams {
                    crash_prob,
                    ..Default::default()
                };
                let mut reference = ReferenceEngine::new(params, num_sm, 7);
                let mut arena = RocqEngine::new(params, num_sm, 7);
                for p in 0..PEERS {
                    reference.register_peer(PeerId(p), Reputation::ONE);
                    arena.register_peer(PeerId(p), Reputation::ONE);
                }
                for step in 0..500u64 {
                    let k = splitmix64(salted(crash_prob.to_bits() ^ num_sm as u64, step));
                    let (a, b) = (PeerId(k % PEERS), PeerId((k >> 16) % PEERS));
                    let engines: [&mut dyn ReputationEngine; 2] = [&mut reference, &mut arena];
                    for e in engines {
                        match (k >> 32) % 8 {
                            0 => {
                                e.register_peer(a, Reputation::new((k >> 40) as f64 / 16_777_216.0))
                            }
                            1 => e.remove_peer(a),
                            2 => e.credit(a, 0.05),
                            3 => e.debit(a, 0.07),
                            _ => e.report(a, b, ((k >> 40) & 1) as f64),
                        }
                    }
                    assert_replicas_agree(&reference, PEERS, step);
                    for p in 0..PEERS {
                        assert_eq!(
                            arena.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                            reference.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                            "step {step}: peer {p}"
                        );
                    }
                }
                assert_arena_counters(&arena, &reference, num_sm);
            }
        }
    }

    #[test]
    fn rejoining_reporter_resumes_credibility_in_both_layouts() {
        // The seed layout keeps a departed reporter's credibility in
        // every replica table (departure only purges its interaction
        // counts), so a re-joining reporter resumes its earned
        // credibility. The arena's shared books must behave
        // identically — this is the exact scenario a per-row forget
        // would silently diverge on.
        let params = RocqParams::default();
        let mut arena = RocqEngine::new(params, 3, 5);
        let mut seed = ReferenceEngine::new(params, 3, 5);
        let engines: [&mut dyn ReputationEngine; 2] = [&mut arena, &mut seed];
        for e in engines {
            for p in 0..10u64 {
                e.register_peer(PeerId(p), Reputation::ONE);
            }
            // Reporter 1 earns credibility about subject 2 …
            for _ in 0..30 {
                e.report(PeerId(1), PeerId(2), 1.0);
            }
            // … departs, re-joins, and reports again.
            e.remove_peer(PeerId(1));
            e.register_peer(PeerId(1), Reputation::HALF);
            for _ in 0..5 {
                e.report(PeerId(1), PeerId(2), 0.0);
            }
        }
        for p in 0..10u64 {
            assert_eq!(
                arena.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                seed.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                "peer {p} diverged across the departure/re-join cycle"
            );
        }
        // And the credibility really did survive the departure: the
        // re-joined reporter is above the initial value. The arena
        // matches bit-for-bit above, so a reset book there would have
        // diverged.
        let resumed = seed.shard.subjects[&PeerId(2)].replicas[0]
            .creds
            .get(PeerId(1));
        assert!(
            resumed > params.initial_credibility,
            "re-joined reporter lost its earned credibility: {resumed}"
        );
    }
}
