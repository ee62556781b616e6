//! Determinism guarantees: seeded runs are bit-identical, the
//! parallel multi-run harness matches the serial schedule, and
//! different seeds actually explore different trajectories.

use replend_core::community::CommunityBuilder;
use replend_core::{BootstrapPolicy, EngineKind};
use replend_sim::runner::{run_many, run_many_parallel};
use replend_tests::{run_community, steady_config};

#[test]
fn identical_seeds_identical_runs() {
    for policy in [
        BootstrapPolicy::ReputationLending,
        BootstrapPolicy::OpenAdmission { initial: 0.5 },
        BootstrapPolicy::FixedCredit { credit: 0.1 },
    ] {
        let a = run_community(steady_config(), policy, EngineKind::default(), 11, 5_000);
        let b = run_community(steady_config(), policy, EngineKind::default(), 11, 5_000);
        assert_eq!(a.stats(), b.stats(), "policy {}", policy.name());
        assert_eq!(a.population(), b.population());
        assert_eq!(
            a.mean_cooperative_reputation(),
            b.mean_cooperative_reputation()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_community(
        steady_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::default(),
        13,
        5_000,
    );
    let b = run_community(
        steady_config(),
        BootstrapPolicy::ReputationLending,
        EngineKind::default(),
        14,
        5_000,
    );
    assert_ne!(a.stats(), b.stats());
}

#[test]
fn parallel_fanout_matches_serial() {
    let work = |seed: u64| {
        let mut c = CommunityBuilder::new(steady_config()).seed(seed).build();
        c.run(2_000);
        (*c.stats(), c.population())
    };
    let serial = run_many(8, 1234, work);
    let parallel = run_many_parallel(8, 1234, work);
    assert_eq!(serial, parallel);
}

#[test]
fn step_by_step_equals_bulk_run() {
    let mut a = CommunityBuilder::new(steady_config()).seed(15).build();
    let mut b = CommunityBuilder::new(steady_config()).seed(15).build();
    a.run(3_000);
    for _ in 0..3_000 {
        b.step();
    }
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.time(), b.time());
}

/// Byte-identical determinism: two same-seed `run(5_000)` runs must
/// agree on every bit of observable state — not merely `==` (which
/// for floats would conflate `0.0`/`-0.0` and could hide NaN payload
/// drift), but the exact bytes of the admission ledger, the
/// population snapshot, and the bit patterns of the mean-reputation
/// floats — for each of the three bootstrap policies the paper's
/// figures compare.
#[test]
fn same_seed_stats_are_byte_identical_across_policies() {
    fn fingerprint(policy: BootstrapPolicy, seed: u64) -> (String, Vec<u64>) {
        let mut c = CommunityBuilder::new(steady_config())
            .policy(policy)
            .engine(EngineKind::default())
            .seed(seed)
            .build();
        c.run(5_000);
        let debug_bytes = format!("{:?} {:?}", c.stats(), c.population());
        let float_bits = [
            c.mean_cooperative_reputation(),
            c.mean_uncooperative_reputation(),
        ]
        .iter()
        .map(|m| m.unwrap_or(f64::NAN).to_bits())
        .collect();
        (debug_bytes, float_bits)
    }

    for policy in [
        BootstrapPolicy::ReputationLending,
        BootstrapPolicy::OpenAdmission { initial: 0.5 },
        BootstrapPolicy::FixedCredit { credit: 0.1 },
    ] {
        let a = fingerprint(policy, 2006);
        let b = fingerprint(policy, 2006);
        assert_eq!(
            a.0.as_bytes(),
            b.0.as_bytes(),
            "stats bytes diverged under {}",
            policy.name()
        );
        assert_eq!(
            a.1,
            b.1,
            "mean-reputation bit patterns diverged under {}",
            policy.name()
        );
    }
}

/// The write-ahead-journal guarantee (ISSUE 6): a service restarted
/// from its feedback journal replays to **byte-identical** engine
/// state — every subject's reputation bit pattern and interaction
/// count — and a torn trailing frame (a crash mid-append) is
/// truncated away rather than corrupting the replay.
#[test]
fn journal_replay_restores_byte_identical_service_state() {
    use replend_core::serve::{ReputationService, ServeConfig};
    use replend_types::hash::{salted, splitmix64};
    use replend_types::{Feedback, PeerId, Reputation};

    fn fingerprint(service: &ReputationService) -> Vec<(u64, u64, u64)> {
        let mut rows = Vec::new();
        service.engine().for_each_subject(|peer, rep, received| {
            rows.push((peer.raw(), rep.value().to_bits(), received));
        });
        rows.sort_unstable();
        rows
    }

    let path = std::env::temp_dir().join(format!(
        "replend-journal-determinism-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        partitions: 4,
        seed: 7,
        ..ServeConfig::default()
    };

    // Session one: a mixed op stream through every journalled mutator.
    let (service, fresh) = ReputationService::open(config, &path).expect("open fresh journal");
    assert_eq!(fresh.records, 0, "a fresh journal replays nothing");
    for i in 0..64u64 {
        service
            .register_peer(PeerId(i), Reputation::new(0.5))
            .unwrap();
    }
    for round in 0..40u64 {
        let batch: Vec<Feedback> = (0..32u64)
            .map(|i| {
                let k = splitmix64(salted(7, round * 32 + i));
                let reporter = PeerId(k % 64);
                let subject = PeerId(splitmix64(k) % 64);
                Feedback::new(reporter, subject, if k % 3 == 0 { 0.0 } else { 1.0 })
            })
            .collect();
        service.report_batch(&batch).unwrap();
    }
    service.credit(PeerId(3), 0.25).unwrap();
    service.debit(PeerId(4), 0.125).unwrap();
    service.remove_peer(PeerId(63)).unwrap();
    let ops = 64 + 40 + 3;
    let before = fingerprint(&service);
    drop(service);

    // Session two: the journal alone must rebuild the exact state.
    let (replayed, summary) = ReputationService::open(config, &path).expect("replay journal");
    assert_eq!(summary.records, ops);
    assert!(!summary.truncated_torn_tail);
    assert_eq!(before, fingerprint(&replayed), "replay diverged bitwise");
    drop(replayed);

    // Crash mid-append: lop bytes off the final frame. Replay must
    // truncate the torn tail and still land on a prefix-exact state.
    let intact = summary.bytes;
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, intact);
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let (torn, torn_summary) = ReputationService::open(config, &path).expect("recover torn tail");
    assert!(torn_summary.truncated_torn_tail);
    assert_eq!(torn_summary.records, ops - 1, "only the final op is lost");
    assert!(torn_summary.bytes < intact);
    // The truncated file reopens clean: the torn frame is gone.
    let after_torn = fingerprint(&torn);
    drop(torn);
    let (clean, clean_summary) = ReputationService::open(config, &path).expect("reopen truncated");
    assert!(!clean_summary.truncated_torn_tail);
    assert_eq!(clean_summary.records, ops - 1);
    assert_eq!(after_torn, fingerprint(&clean));
    drop(clean);

    let _ = std::fs::remove_file(&path);
}
