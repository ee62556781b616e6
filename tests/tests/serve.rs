//! `replend serve` integration: the lock-per-partition concurrent
//! facade is bit-identical to the monolithic engine under the same op
//! stream for any partition count, reads stay coherent while ingest
//! runs on other partitions, invalid inputs never reach the journal,
//! and the journalled workload path survives a restart with its tier
//! census intact.

use proptest::prelude::*;
use replend_core::serve::{
    journal_seed, run_ingest_workload, JournalOp, ReputationService, ServeConfig, ServeError,
    SyncPolicy, WorkloadConfig,
};
use replend_rocq::{ConcurrentEngine, ReputationEngine, RocqEngine, RocqParams};
use replend_types::hash::{salted, splitmix64};
use replend_types::{Feedback, PeerId, Reputation};
use replend_wire::JournalWriter;

/// A deterministic mixed op stream: registrations at varied initial
/// reputations, feedback batches, direct credits/debits, removals.
fn op_stream(seed: u64, peers: u64, rounds: u64, batch: u64) -> Vec<Vec<Feedback>> {
    (0..rounds)
        .map(|round| {
            (0..batch)
                .map(|i| {
                    let k = splitmix64(salted(seed, round * batch + i));
                    Feedback::new(
                        PeerId(k % peers),
                        PeerId(splitmix64(k) % peers),
                        if k % 3 == 0 { 0.0 } else { 1.0 },
                    )
                })
                .collect()
        })
        .collect()
}

/// The partition-invariance guarantee: with the crash model off, the
/// concurrent facade lands on exactly the same per-subject reputation
/// bits as one monolithic engine fed the identical stream, and its full
/// census (reputation bits plus applied-report counts) is identical for
/// every partition count — partitioning changes locking, never results.
///
/// The tail pins the shared membership: a departed peer's opinions on
/// subjects in every partition are dropped, and once it re-registers
/// its interaction counts restart from zero everywhere, as in the
/// monolith.
#[test]
fn concurrent_engine_is_bitwise_identical_to_monolith() {
    let params = RocqParams {
        crash_prob: 0.0,
        ..RocqParams::default()
    };
    const PEERS: u64 = 50;
    let stream = op_stream(4242, PEERS, 30, 40);
    // Three opinions per subject: quality is floored until a pair's
    // third interaction, so a stale count would show in the bits.
    let from_49 = |opinion: f64| -> Vec<Feedback> {
        (0..3 * (PEERS - 1))
            .map(|k| Feedback::new(PeerId(49), PeerId(k % (PEERS - 1)), opinion))
            .collect()
    };
    let (departed, rejoined) = (from_49(0.0), from_49(1.0));
    let mut mono = RocqEngine::new(params, 6, 99);
    for i in 0..PEERS {
        mono.register_peer(PeerId(i), Reputation::new(i as f64 / PEERS as f64));
    }
    for group in &stream {
        mono.report_batch(group);
    }
    mono.credit(PeerId(1), 0.25);
    mono.debit(PeerId(2), 0.5);
    mono.remove_peer(PeerId(49));
    mono.report_batch(&departed);
    mono.register_peer(PeerId(49), Reputation::HALF);
    mono.report_batch(&rejoined);

    let mut censuses = Vec::new();
    for partitions in [1usize, 2, 5, 8] {
        let conc = ConcurrentEngine::new(params, 6, partitions, 99);
        for i in 0..PEERS {
            conc.register_peer(PeerId(i), Reputation::new(i as f64 / PEERS as f64));
        }
        for group in &stream {
            conc.report_batch(group);
        }
        conc.credit(PeerId(1), 0.25);
        conc.debit(PeerId(2), 0.5);
        conc.remove_peer(PeerId(49));

        assert_eq!(conc.len(), (PEERS - 1) as usize);
        assert!(!conc.contains(PeerId(49)));
        conc.report_batch(&departed);
        conc.register_peer(PeerId(49), Reputation::HALF);
        conc.report_batch(&rejoined);

        assert_eq!(conc.len(), PEERS as usize);
        for i in 0..PEERS {
            let peer = PeerId(i);
            let m = mono.reputation(peer).expect("monolith has the subject");
            let c = conc.reputation(peer).expect("facade has the subject");
            assert_eq!(
                m.value().to_bits(),
                c.value().to_bits(),
                "peer {i} diverged between monolith and {partitions}-partition facade"
            );
        }
        let mut census = Vec::new();
        conc.for_each_subject(|p, r, n| census.push((p.raw(), r.value().to_bits(), n)));
        census.sort_unstable();
        censuses.push((partitions, census));
    }
    let (_, first) = &censuses[0];
    for (partitions, census) in &censuses[1..] {
        assert_eq!(
            first, census,
            "census diverged between 1 and {partitions} partitions"
        );
    }
}

/// Reads issued while ingest is live must be coherent: every observed
/// reputation is in [0, 1], and every status read yields a tier.
#[test]
fn concurrent_reads_stay_coherent_during_live_ingest() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let config = ServeConfig {
        partitions: 4,
        seed: 11,
        ..ServeConfig::default()
    };
    let service = ReputationService::in_memory(config);
    const PEERS: u64 = 300;
    for i in 0..PEERS {
        service
            .register_peer(PeerId(i), Reputation::new(0.5))
            .unwrap();
    }

    // Each reader has a fixed probe quota rather than a stop flag so
    // the coherence assertions run even when the scheduler serialises
    // the threads (single-core CI).
    let (reads, checked) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let (service, reads, checked) = (&service, &reads, &checked);
            scope.spawn(move || {
                let mut k = salted(0xC0, t);
                for _ in 0..500 {
                    k = splitmix64(k);
                    let subject = PeerId(k % PEERS);
                    let rep = service.reputation(subject).expect("registered");
                    assert!((0.0..=1.0).contains(&rep.value()), "torn read: {rep:?}");
                    // Bracket the status read between two coherent
                    // observations. Hit counts only grow here, so equal
                    // brackets mean no write landed in between, and the
                    // status must classify exactly that observation.
                    let before = service.engine().observe(subject).expect("registered");
                    let status = service.status(subject).expect("registered");
                    let after = service.engine().observe(subject).expect("registered");
                    if before.0.value().to_bits() == after.0.value().to_bits()
                        && before.1 == after.1
                    {
                        assert_eq!(status, config.policy.classify(before.0, before.1));
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for group in op_stream(77, PEERS, 60, 50) {
            service.report_batch(&group).unwrap();
            std::thread::yield_now();
        }
    });
    assert_eq!(
        reads.load(Ordering::Relaxed),
        3 * 500,
        "every reader must finish its probe quota"
    );
    assert!(
        checked.load(Ordering::Relaxed) > 0,
        "no status read was bracketed by equal observations"
    );
    for i in 0..PEERS {
        let (rep, hits) = service.engine().observe(PeerId(i)).expect("registered");
        assert_eq!(
            service.status(PeerId(i)),
            Some(config.policy.classify(rep, hits)),
            "peer {i}"
        );
    }
}

/// End-to-end: the journalled workload path (exactly what the CLI's
/// `serve --journal` runs) restarts into the same subject count and
/// tier census, byte-replayed from the write-ahead log.
#[test]
fn journalled_workload_survives_restart_with_census_intact() {
    let path = std::env::temp_dir().join(format!("replend-serve-e2e-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        partitions: 4,
        seed: 5,
        ..ServeConfig::default()
    };
    let workload = WorkloadConfig {
        subjects: 400,
        rounds: 30,
        batch: 200,
        readers: 1,
        seed: 9,
    };

    let (service, _) = ReputationService::open(config, &path).expect("fresh journal");
    let report = run_ingest_workload(&service, workload).expect("workload");
    assert_eq!(report.registered, workload.subjects);
    assert_eq!(report.feedback, workload.rounds * workload.batch as u64);
    let census = service.status_census();
    assert_eq!(census.total(), workload.subjects);
    assert!(
        census.banned > 0,
        "lying cohort never got banned: {census:?}"
    );
    assert!(census.whitelisted > 0, "honest cohort vanished: {census:?}");
    drop(service);

    let (replayed, summary) = ReputationService::open(config, &path).expect("replay");
    // One bulk-registration record for all subjects + one per round.
    assert_eq!(summary.records, 1 + workload.rounds);
    assert!(!summary.restored_from_checkpoint());
    assert_eq!(replayed.subjects(), workload.subjects as usize);
    assert_eq!(replayed.status_census(), census);

    let _ = std::fs::remove_file(&path);
}

/// The input-validation boundary: a NaN opinion, a NaN debit and a
/// negative credit or debit are refused with typed errors *before*
/// they are journalled, so they can move the subject neither live nor
/// on replay. The subject still
/// climbs under positive reports afterwards, and reopening the journal
/// (which holds only the accepted ops) reproduces the same census.
#[test]
fn invalid_inputs_are_refused_before_the_journal() {
    let path = std::env::temp_dir().join(format!("replend-serve-nan-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        partitions: 4,
        seed: 21,
        ..ServeConfig::default()
    };
    let subject = PeerId(0);
    let (service, _) = ReputationService::open(config, &path).expect("fresh journal");
    let founders: Vec<(PeerId, Reputation)> =
        (0..8).map(|p| (PeerId(p), Reputation::new(0.3))).collect();
    service.register_batch(&founders).unwrap();
    let before = service.reputation(subject).expect("registered");

    let poisoned = [
        Feedback::new(PeerId(1), subject, 1.0),
        Feedback::new(PeerId(2), subject, f64::NAN),
    ];
    assert!(matches!(
        service.report_batch(&poisoned),
        Err(ServeError::InvalidInput {
            field: "opinion",
            index: Some(1),
            ..
        })
    ));
    assert!(matches!(
        service.report_batch(&[Feedback::new(PeerId(1), subject, 1.5)]),
        Err(ServeError::InvalidInput {
            field: "opinion",
            index: Some(0),
            ..
        })
    ));
    assert!(matches!(
        service.debit(subject, f64::NAN),
        Err(ServeError::InvalidInput {
            field: "amount",
            index: None,
            ..
        })
    ));
    assert!(matches!(
        service.credit(subject, f64::INFINITY),
        Err(ServeError::InvalidInput {
            field: "amount",
            index: None,
            ..
        })
    ));
    // The engine applies an amount's magnitude, so a negative credit
    // would raise the subject and a negative debit would lower it.
    for refused in [service.credit(subject, -0.3), service.debit(subject, -0.2)] {
        assert!(matches!(
            refused,
            Err(ServeError::InvalidInput {
                field: "amount",
                index: None,
                ..
            })
        ));
    }
    assert_eq!(
        service.reputation(subject).map(|r| r.value().to_bits()),
        Some(before.value().to_bits()),
        "a refused op changed the subject"
    );

    const ROUNDS: u64 = 50;
    for _ in 0..ROUNDS {
        let batch: Vec<Feedback> = (1..=3)
            .map(|r| Feedback::new(PeerId(r), subject, 1.0))
            .collect();
        service.report_batch(&batch).unwrap();
    }
    let after = service.reputation(subject).expect("registered");
    assert!(
        after.value() > 0.5 && after.value() > before.value(),
        "positive reports failed to lift the subject: {before:?} -> {after:?}"
    );
    let census = fingerprint(&service);
    drop(service);

    let (reopened, summary) = ReputationService::open(config, &path).expect("replay");
    assert_eq!(
        summary.records,
        1 + ROUNDS,
        "the journal holds a frame for a refused op"
    );
    assert_eq!(fingerprint(&reopened), census);
    drop(reopened);
    let _ = std::fs::remove_file(&path);
}

/// Replay enforces the live API's input domain: a well-framed journal
/// record whose opinion, initial reputation or amount the live API
/// would refuse is refused by `open` with `InvalidInput`, never
/// applied or clamped.
#[test]
fn replay_refuses_records_outside_the_input_domain() {
    let path =
        std::env::temp_dir().join(format!("replend-serve-domain-{}.wal", std::process::id()));
    let config = ServeConfig {
        partitions: 4,
        seed: 23,
        ..ServeConfig::default()
    };
    let founders = JournalOp::RegisterBatch {
        batch: (0..4).map(|p| (PeerId(p), 0.5)).collect(),
    };
    // 1.0 with one mantissa bit flipped: 1.0625.
    let flipped = f64::from_bits(1.0f64.to_bits() ^ (1 << 48));
    for (bad, field) in [
        (
            JournalOp::Batch {
                batch: vec![Feedback::new(PeerId(1), PeerId(0), flipped)],
            },
            "opinion",
        ),
        (
            JournalOp::Credit {
                subject: PeerId(0),
                amount: -0.3,
            },
            "amount",
        ),
        (
            JournalOp::Register {
                peer: PeerId(9),
                initial: f64::NAN,
            },
            "initial",
        ),
    ] {
        let file = std::fs::File::create(&path).unwrap();
        let mut writer =
            JournalWriter::with_policy(file, journal_seed(config.seed, 0), SyncPolicy::Always);
        writer.append(&founders).unwrap();
        writer.append(&bad).unwrap();
        drop(writer);
        match ReputationService::open(config, &path) {
            Err(ServeError::InvalidInput { field: f, .. }) => assert_eq!(f, field),
            Err(e) => panic!("{bad:?}: wrong error {e}"),
            Ok(_) => panic!("{bad:?} was replayed"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Issues `op` through the matching public mutator, so prefix replays
/// in the torn-tail test go through exactly the live apply path.
fn issue(service: &ReputationService, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, initial } => service
            .register_peer(*peer, Reputation::new(*initial))
            .unwrap(),
        JournalOp::Remove { peer } => service.remove_peer(*peer).unwrap(),
        JournalOp::Batch { batch } => service.report_batch(batch).unwrap(),
        JournalOp::Credit { subject, amount } => service.credit(*subject, *amount).unwrap(),
        JournalOp::Debit { subject, amount } => service.debit(*subject, *amount).unwrap(),
        JournalOp::RegisterBatch { batch } => {
            let batch: Vec<(PeerId, Reputation)> = batch
                .iter()
                .map(|&(peer, initial)| (peer, Reputation::new(initial)))
                .collect();
            service.register_batch(&batch).unwrap()
        }
    }
}

/// Sorted bitwise engine fingerprint.
fn fingerprint(service: &ReputationService) -> Vec<(u64, u64, u64)> {
    let mut state = Vec::new();
    service
        .engine()
        .for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
    state.sort_unstable();
    state
}

/// The group-commit replay contract: truncating a batch-synced
/// journal at **every** record-boundary offset (clean cuts and torn
/// cuts into the next frame) replays to exactly the state reached by
/// serially applying the intact prefix of operations — group commit
/// may lose a flushed-batch *suffix* on a crash, never reorder or
/// half-apply.
#[test]
fn group_committed_journal_truncates_to_exact_prefix_state_at_every_boundary() {
    let dir = std::env::temp_dir().join(format!("replend-serve-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batched.wal");
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        partitions: 3,
        seed: 31,
        journal_sync: SyncPolicy::Batch(4),
        ..ServeConfig::default()
    };

    // The op list, known to the test so prefixes can be re-applied.
    const PEERS: u64 = 24;
    let mut ops: Vec<JournalOp> = (0..PEERS)
        .map(|p| JournalOp::Register {
            peer: PeerId(p),
            initial: 0.5,
        })
        .collect();
    for (round, batch) in op_stream(63, PEERS, 6, 20).into_iter().enumerate() {
        ops.push(JournalOp::Batch { batch });
        match round % 3 {
            0 => ops.push(JournalOp::Credit {
                subject: PeerId(round as u64 % PEERS),
                amount: 0.1,
            }),
            1 => ops.push(JournalOp::Debit {
                subject: PeerId(round as u64 % PEERS),
                amount: 0.2,
            }),
            _ => {}
        }
    }
    ops.push(JournalOp::Remove { peer: PeerId(3) });

    {
        let (service, _) = ReputationService::open(config, &path).expect("fresh journal");
        for op in &ops {
            issue(&service, op);
        }
        // Drop flushes the partial group-commit batch.
    }
    let log = std::fs::read(&path).unwrap();

    // Per-record boundaries, from the journal's own reader.
    let mut boundaries = vec![0u64];
    {
        let mut reader = replend_wire::JournalReader::new(log.as_slice(), config.seed);
        while reader.next::<JournalOp>().unwrap().is_some() {
            boundaries.push(reader.consumed());
        }
    }
    assert_eq!(boundaries.len(), ops.len() + 1, "one boundary per op");

    for (i, &boundary) in boundaries.iter().enumerate() {
        // Expected state: the intact prefix applied serially.
        let expected = ReputationService::in_memory(config);
        for op in &ops[..i] {
            issue(&expected, op);
        }
        let next = boundaries.get(i + 1).copied().unwrap_or(boundary);
        let mut cuts = vec![boundary];
        if boundary + 2 < next {
            cuts.push(boundary + 2); // torn mid-frame
        }
        for cut in cuts {
            let torn_path = dir.join("cut.wal");
            std::fs::write(&torn_path, &log[..cut as usize]).unwrap();
            let (recovered, summary) =
                ReputationService::open(config, &torn_path).expect("recovery");
            assert_eq!(summary.records, i as u64, "cut at {cut}");
            assert_eq!(summary.bytes, boundary, "cut at {cut}");
            assert_eq!(summary.truncated_torn_tail, cut != boundary, "cut at {cut}");
            assert_eq!(
                fingerprint(&recovered),
                fingerprint(&expected),
                "cut at {cut}: replay diverged from the serial prefix"
            );
            let _ = std::fs::remove_file(&torn_path);
        }
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Subjects drawn on by the randomized checkpoint-equivalence stream.
const PROP_PEERS: u64 = 16;

/// The concentrated peer space of the same stream: so few peers that
/// (reporter, subject) pairs repeat often enough for interaction
/// counts to pass the quality ramp's floor of 3 before the cut.
const CONCENTRATED_PEERS: u64 = 4;

/// A random journalled mutation touching peers `0..peers` —
/// registrations (single and bulk), removals, feedback batches,
/// credits and debits, weighted toward the ops that move state.
fn op_strategy(peers: u64) -> impl Strategy<Value = JournalOp> {
    let register = (0..peers, 0.0f64..=1.0).prop_map(|(p, r)| JournalOp::Register {
        peer: PeerId(p),
        initial: r,
    });
    let register_batch =
        proptest::collection::vec((0..peers, 0.0f64..=1.0), 1..8).prop_map(|batch| {
            JournalOp::RegisterBatch {
                batch: batch.into_iter().map(|(p, r)| (PeerId(p), r)).collect(),
            }
        });
    let remove = (0..peers).prop_map(|p| JournalOp::Remove { peer: PeerId(p) });
    let feedback = || {
        proptest::collection::vec(
            (0..peers, 0..peers, prop_oneof![Just(0.0f64), Just(1.0f64)]),
            1..12,
        )
        .prop_map(|reports| JournalOp::Batch {
            batch: reports
                .into_iter()
                .map(|(reporter, subject, opinion)| {
                    Feedback::new(PeerId(reporter), PeerId(subject), opinion)
                })
                .collect(),
        })
    };
    let credit = (0..peers, 0.0f64..=0.5).prop_map(|(p, a)| JournalOp::Credit {
        subject: PeerId(p),
        amount: a,
    });
    let debit = (0..peers, 0.0f64..=0.5).prop_map(|(p, a)| JournalOp::Debit {
        subject: PeerId(p),
        amount: a,
    });
    // The shim's `prop_oneof!` draws arms uniformly; repeating the
    // register and feedback arms biases the stream toward the ops
    // that populate and move state.
    prop_oneof![
        register.clone(),
        register,
        register_batch,
        remove,
        feedback(),
        feedback(),
        feedback(),
        credit,
        debit,
    ]
}

/// The fixed probe suffix every side runs after a restore: each live
/// member reports on each live subject four times, the opinion flipping
/// every round. A pair's interaction count changes a value only from 3
/// on (the quality ramp is floored below it), so these reports turn
/// state the fingerprint cannot see (interaction counts,
/// credibilities, incarnations) into reputation bits it compares.
/// `None` when no peer is live.
fn probe_suffix(service: &ReputationService) -> Option<JournalOp> {
    let live: Vec<PeerId> = fingerprint(service)
        .into_iter()
        .map(|(p, _, _)| PeerId(p))
        .collect();
    let mut batch = Vec::new();
    for round in 0..4u64 {
        for &reporter in &live {
            for &subject in &live {
                let opinion = (reporter.raw() + subject.raw() + round) % 2;
                batch.push(Feedback::new(reporter, subject, opinion as f64));
            }
        }
    }
    (!live.is_empty()).then_some(JournalOp::Batch { batch })
}

/// The checkpoint correctness contract for one op stream and cut:
/// {restore the checkpoint taken at the cut + replay the suffix} lands
/// on exactly the same per-subject bits as {replay the whole journal}
/// and as {apply every op in memory}, both right after the restore and
/// after all three run the same [`probe_suffix`].
fn check_checkpoint_at_cut(
    ops: &[JournalOp],
    cut_pct: usize,
    dir_tag: &str,
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "replend-serve-ckpt-prop-{}-{dir_tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServeConfig {
        partitions: 3,
        seed: 7,
        ..ServeConfig::default()
    };
    let cut = ops.len() * cut_pct / 100;

    let reference = ReputationService::in_memory(config);
    for op in ops {
        issue(&reference, op);
    }

    let full_path = dir.join("full.wal");
    {
        let (service, _) = ReputationService::open(config, &full_path).unwrap();
        for op in ops {
            issue(&service, op);
        }
    }
    let (full, full_summary) = ReputationService::open(config, &full_path).unwrap();
    prop_assert_eq!(full_summary.records, ops.len() as u64);
    prop_assert!(!full_summary.restored_from_checkpoint());

    let cut_path = dir.join("cut.wal");
    {
        let (service, _) = ReputationService::open(config, &cut_path).unwrap();
        for op in &ops[..cut] {
            issue(&service, op);
        }
        service.checkpoint().unwrap();
        for op in &ops[cut..] {
            issue(&service, op);
        }
    }
    let (restored, summary) = ReputationService::open(config, &cut_path).unwrap();
    prop_assert!(summary.restored_from_checkpoint());
    prop_assert_eq!(summary.checkpoint_generation, 1);
    prop_assert_eq!(summary.replayed_from_checkpoint, cut as u64);
    prop_assert_eq!(summary.records, (ops.len() - cut) as u64);

    prop_assert_eq!(fingerprint(&full), fingerprint(&reference));
    prop_assert_eq!(fingerprint(&restored), fingerprint(&reference));
    if let Some(probe) = probe_suffix(&reference) {
        for service in [&reference, &full, &restored] {
            issue(service, &probe);
        }
        prop_assert_eq!(
            fingerprint(&full),
            fingerprint(&reference),
            "journal replay diverged under the probe suffix"
        );
        prop_assert_eq!(
            fingerprint(&restored),
            fingerprint(&reference),
            "checkpoint restore diverged under the probe suffix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The checkpoint correctness contract, property-tested: for a
    /// random op stream and a random cut point, a restore is
    /// indistinguishable from full replay and from in-memory apply
    /// (see [`check_checkpoint_at_cut`]) — checkpoints change restart
    /// cost, never state.
    #[test]
    fn checkpoint_at_any_cut_replays_bit_identically(
        ops in proptest::collection::vec(op_strategy(PROP_PEERS), 1..24),
        cut_pct in 0usize..=100,
        case in 0u64..1_000_000,
    ) {
        check_checkpoint_at_cut(&ops, cut_pct, &format!("wide-{case}"))?;
    }

    /// The same contract over a concentrated peer space, where pairs
    /// repeat often enough before the cut that a checkpoint which lost
    /// interaction counts restores different future reputations.
    #[test]
    fn checkpoint_at_any_cut_replays_bit_identically_in_a_concentrated_peer_space(
        ops in proptest::collection::vec(op_strategy(CONCENTRATED_PEERS), 1..24),
        cut_pct in 0usize..=100,
        case in 0u64..1_000_000,
    ) {
        check_checkpoint_at_cut(&ops, cut_pct, &format!("dense-{case}"))?;
    }
}

/// Checkpoints compose: repeated checkpoint/restart cycles (advancing
/// the journal-seed generation each time), group-committed suffixes,
/// and a final restart all land on the in-memory reference state,
/// with the replay summary attributing every op to the right source.
#[test]
fn checkpoints_compose_across_generations() {
    let dir = std::env::temp_dir().join(format!("replend-serve-gens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.wal");
    let config = ServeConfig {
        partitions: 4,
        seed: 13,
        journal_sync: SyncPolicy::Batch(8),
        ..ServeConfig::default()
    };
    let reference = ReputationService::in_memory(config);

    let segments: Vec<Vec<JournalOp>> = (0..3u64)
        .map(|g| {
            let peers = 10 * (g + 1);
            let mut segment = vec![JournalOp::RegisterBatch {
                batch: (g * 10..g * 10 + 10).map(|p| (PeerId(p), 0.5)).collect(),
            }];
            for batch in op_stream(900 + g, peers, 4, 15) {
                segment.push(JournalOp::Batch { batch });
            }
            segment.push(JournalOp::Remove { peer: PeerId(g) });
            segment
        })
        .collect();
    let ops_per_segment = segments[0].len() as u64;

    for (g, segment) in segments.iter().enumerate() {
        let (service, summary) = ReputationService::open(config, &path).expect("reopen");
        assert_eq!(summary.checkpoint_generation, g as u64);
        assert_eq!(summary.records, 0, "post-compaction journal is empty");
        assert_eq!(summary.replayed_from_checkpoint, g as u64 * ops_per_segment);
        for op in segment {
            issue(&service, op);
            issue(&reference, op);
        }
        let report = service.checkpoint().expect("checkpoint");
        assert_eq!(report.generation, g as u64 + 1);
        assert_eq!(report.ops, (g as u64 + 1) * ops_per_segment);
    }

    // A trailing un-checkpointed suffix, then the final restart.
    let suffix: Vec<JournalOp> = op_stream(999, 30, 3, 20)
        .into_iter()
        .map(|batch| JournalOp::Batch { batch })
        .collect();
    {
        let (service, _) = ReputationService::open(config, &path).expect("reopen");
        for op in &suffix {
            issue(&service, op);
            issue(&reference, op);
        }
    }
    let (finale, summary) = ReputationService::open(config, &path).expect("final reopen");
    assert_eq!(summary.checkpoint_generation, 3);
    assert_eq!(summary.replayed_from_checkpoint, 3 * ops_per_segment);
    assert_eq!(summary.records, suffix.len() as u64);
    assert_eq!(fingerprint(&finale), fingerprint(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}
