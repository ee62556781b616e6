//! The service workloads: a journalled `ReputationService` driven
//! through its public API.
//!
//! The untraced run opens the service and bulk-registers the founders
//! (the set-up, repeated), then runs the workload's traffic. The traced
//! run first repeats the untraced run, then runs the traffic again on a
//! fresh service with its reads and its checkpoint/restart calls
//! decomposed, and finally replays the same op stream through a
//! `ConcurrentEngine` and a file `JournalWriter` built here — append,
//! then apply, each call timed — checking that the replica ends
//! bit-identical to the service.

use crate::loadgen::{Op, OpGen, OpTiming, ReaderKeys, Schedule, ARRIVAL_REPUTATION};
use crate::report::Report;
use crate::stats::{median, Samples, Sorted, Windows};
use crate::sys::{clock_cost_ns, ns, WorkDir};
use crate::Args;
use rayon::prelude::*;
use replend_core::serve::{
    journal_seed, JournalOp, ReputationService, ServeConfig, ServeError, StatusPolicy, SyncPolicy,
};
use replend_rocq::state::PartitionCheckpoint;
use replend_rocq::ConcurrentEngine;
use replend_types::hash::{salted, splitmix64};
use replend_types::{PeerId, Reputation};
use replend_wire::{JournalReader, JournalWriter, WireError};
use serde::Deserialize;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Founders bulk-registered at set-up.
pub const SUBJECTS: u64 = 200_000;
/// Set-ups timed for `setup_s`.
const SETUPS: usize = 5;
/// Founders' initial reputation.
const FOUNDER_REPUTATION: f64 = 0.5;
/// `serve_online`'s open-loop send rate (ops/s): about half the
/// closed-loop capacity of the same op mix, with the reader running,
/// measured on the reference host when the benchmark was defined.
pub const ONLINE_RATE: f64 = 55_000.0;
/// One reader probe in this many is timed.
const READ_SAMPLE_EVERY: u64 = 16;
/// Wall time per measurement window of `serve_online`.
const WINDOW_S: f64 = 0.1;
/// Leading `serve_online` windows left out of the medians (the reader
/// thread starting, caches filling).
const WARMUP_WINDOWS: usize = 10;
/// Transactions per bulk-ingest batch (two opinions each).
const BULK_TRANSACTIONS: usize = 500;
/// Checkpoint/restart cycles of `serve_bulk_restart`.
const CYCLES: u32 = 4;
/// Batches ingested per cycle, per second of `--seconds`: calibrated so
/// a run takes about `--seconds` on the reference host. A fixed count
/// rather than a fixed time, so every build checkpoints and restores
/// the same state.
const BULK_BATCHES_PER_SECOND: f64 = 60.0;
/// Batches ingested after each checkpoint: the journal suffix replayed
/// on restart.
const SUFFIX_BATCHES: u64 = 20;

/// The workloads' service configuration: Table-1 `numSM`, eight
/// partitions, per-record journal flushes (`SyncPolicy::Always`, the
/// service default) and no automatic checkpoints.
fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        journal_sync: SyncPolicy::Always,
        ..ServeConfig::default()
    }
}

fn founders() -> Vec<(PeerId, Reputation)> {
    (0..SUBJECTS)
        .map(|s| (PeerId(s), Reputation::new(FOUNDER_REPUTATION)))
        .collect()
}

/// Opens a fresh journalled service and bulk-registers the founders,
/// `times` times over; returns the last service and every set-up time.
fn set_up(
    dir: &WorkDir,
    cfg: ServeConfig,
    times: usize,
) -> Result<(ReputationService, Vec<f64>), ServeError> {
    let batch = founders();
    let mut service = None;
    let mut secs = Vec::new();
    for _ in 0..times {
        drop(service.take());
        dir.clear()?;
        let t = Instant::now();
        let (svc, _) = ReputationService::open(cfg, &dir.join("journal"))?;
        svc.register_batch(&batch)?;
        secs.push(t.elapsed().as_secs_f64());
        service = Some(svc);
    }
    Ok((service.expect("at least one set-up"), secs))
}

/// An order-independent digest of every subject's reputation bits and
/// applied-report count, with the subject count.
fn digest(engine: &ConcurrentEngine) -> (u64, u64) {
    let (mut count, mut hash) = (0u64, 0u64);
    engine.for_each_subject(|peer, rep, hits| {
        count += 1;
        let key = peer.raw() ^ rep.value().to_bits().rotate_left(29);
        hash = hash.wrapping_add(splitmix64(salted(key, hits)));
    });
    (count, hash)
}

/// Issues one op against the service.
fn call(svc: &ReputationService, op: &Op) -> Result<(), ServeError> {
    match op {
        Op::Report(batch) => svc.report_batch(batch),
        Op::Credit(p, amount) => svc.credit(*p, *amount),
        Op::Debit(p, amount) => svc.debit(*p, *amount),
        Op::Register(p) => svc.register_peer(*p, Reputation::new(ARRIVAL_REPUTATION)),
    }
}

/// The journal record the service writes for `op`.
fn journal_op(op: &Op) -> JournalOp {
    match op {
        Op::Report(batch) => JournalOp::Batch {
            batch: batch.clone(),
        },
        Op::Credit(subject, amount) => JournalOp::Credit {
            subject: *subject,
            amount: *amount,
        },
        Op::Debit(subject, amount) => JournalOp::Debit {
            subject: *subject,
            amount: *amount,
        },
        Op::Register(peer) => JournalOp::Register {
            peer: *peer,
            initial: Reputation::new(ARRIVAL_REPUTATION).value(),
        },
    }
}

/// Applies a journal record to a bare engine, as the service does.
fn apply(engine: &ConcurrentEngine, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, initial } => {
            engine.register_peer(*peer, Reputation::new(*initial));
        }
        JournalOp::Remove { peer } => engine.remove_peer(*peer),
        JournalOp::Batch { batch } => engine.report_batch(batch),
        JournalOp::Credit { subject, amount } => engine.credit(*subject, *amount),
        JournalOp::Debit { subject, amount } => engine.debit(*subject, *amount),
        JournalOp::RegisterBatch { batch } => {
            let batch: Vec<(PeerId, Reputation)> = batch
                .iter()
                .map(|&(peer, initial)| (peer, Reputation::new(initial)))
                .collect();
            engine.register_batch(&batch);
        }
    }
}

/// Kinds of op the replica times separately.
const APPLY_KINDS: [&str; 4] = ["report_batch", "register_peer", "credit", "debit"];

fn kind(op: &Op) -> usize {
    match op {
        Op::Report(_) => 0,
        Op::Register(_) => 1,
        Op::Credit(..) => 2,
        Op::Debit(..) => 3,
    }
}

/// Departures timed on the replica after its digest is taken.
const REPLICA_DEPARTURES: usize = 100;

// ---------------------------------------------------------------------
// serve_online
// ---------------------------------------------------------------------

/// What one pass of the online traffic measured.
struct Online {
    ops: u64,
    opinions: u64,
    errors: u64,
    elapsed_s: f64,
    windows: Windows,
    late: Samples,
    /// `report_batch` calls alone (issue to return).
    report_call: Samples,
    reads: u64,
    read_failures: u64,
    /// The reader's own window, for reads per second.
    read_window_s: f64,
    read_latency: Samples,
    /// Traced reads only: `ConcurrentEngine::reputation` and
    /// `ReputationService::status`, timed separately.
    snapshot_read: Samples,
    status_read: Samples,
    digest: (u64, u64),
    live_subjects: u64,
}

/// One pass: `n_ops` ops sent open-loop at [`ONLINE_RATE`] by this
/// thread, while one reader thread probes in a closed loop.
fn online_pass(svc: &ReputationService, seed: u64, n_ops: u64, traced: bool) -> Online {
    let clock = clock_cost_ns();
    let mut gen = OpGen::new(seed, SUBJECTS);
    let keys = ReaderKeys::new(seed, gen.zipf().clone());
    let schedule = Schedule::at_rate(ONLINE_RATE);
    let stop = AtomicBool::new(false);
    let mut run = Online {
        ops: n_ops,
        opinions: 0,
        errors: 0,
        elapsed_s: 0.0,
        windows: Windows::new(),
        late: Samples::new(),
        report_call: Samples::new(),
        reads: 0,
        read_failures: 0,
        read_window_s: 0.0,
        read_latency: Samples::new(),
        snapshot_read: Samples::new(),
        status_read: Samples::new(),
        digest: (0, 0),
        live_subjects: 0,
    };
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(svc, keys, &stop, traced, clock));
        let start = Instant::now();
        let mut last = start;
        for i in 0..n_ops {
            let op = gen.next_online();
            let due = schedule.due_ns(i);
            while (start.elapsed().as_nanos() as u64) < due {
                std::thread::yield_now();
            }
            let issued = Instant::now();
            let result = call(svc, &op);
            let returned = Instant::now();
            run.windows.work(1, (returned - last).as_secs_f64());
            last = returned;
            let timing = OpTiming::new(
                due,
                (issued - start).as_nanos() as u64,
                (last - start).as_nanos() as u64,
            );
            run.late.record(timing.late_ns as f64);
            run.opinions += op.opinions() as u64;
            match result {
                Ok(()) => {
                    run.windows.latency(timing.latency_ns as f64);
                    if matches!(op, Op::Report(_)) {
                        run.report_call.record(timing.service_ns as f64);
                    }
                }
                Err(e) => {
                    run.errors += 1;
                    run.windows.failure();
                    eprintln!("op {i} failed: {e}");
                }
            }
            run.windows.close_after(WINDOW_S);
        }
        run.elapsed_s = (last - start).as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });
    run.reads = reader.reads;
    run.read_failures = reader.failures;
    run.read_latency = reader.latency;
    run.snapshot_read = reader.snapshot;
    run.status_read = reader.status;
    run.read_window_s = reader.elapsed_s;
    run.digest = digest(svc.engine());
    run.live_subjects = gen.live_subjects();
    run
}

/// The reader's tally.
struct Reads {
    reads: u64,
    failures: u64,
    elapsed_s: f64,
    latency: Samples,
    snapshot: Samples,
    status: Samples,
}

/// Closed-loop `reputation` + `status` probes until `stop`. Every
/// probed subject is a founder, so a `None` is a failed read.
fn read_loop(
    svc: &ReputationService,
    mut keys: ReaderKeys,
    stop: &AtomicBool,
    traced: bool,
    clock: f64,
) -> Reads {
    let mut out = Reads {
        reads: 0,
        failures: 0,
        elapsed_s: 0.0,
        latency: Samples::new(),
        snapshot: Samples::new(),
        status: Samples::new(),
    };
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let key = keys.next_key();
        out.reads += 1;
        let (rep, status) = if out.reads % READ_SAMPLE_EVERY != 0 {
            (svc.reputation(key), svc.status(key))
        } else if traced {
            let a = Instant::now();
            let rep = svc.engine().reputation(key);
            let b = Instant::now();
            let status = svc.status(key);
            let c = Instant::now();
            out.snapshot.record((ns(a, b) - clock).max(0.0));
            out.status.record((ns(b, c) - clock).max(0.0));
            out.latency.record(ns(a, c));
            (rep, status)
        } else {
            let a = Instant::now();
            let rep = svc.reputation(key);
            let status = svc.status(key);
            out.latency.record(ns(a, Instant::now()));
            (rep, status)
        };
        if rep.is_none() || status.is_none() {
            out.failures += 1;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Runs `serve_online` and fills `report`.
pub fn online(args: &Args, report: &mut Report) -> Result<(), ServeError> {
    let dir = WorkDir::create("serve_online")?;
    let cfg = config(args.seed);
    let n_ops = (ONLINE_RATE * args.seconds).round().max(1.0) as u64;
    let (svc, setup) = set_up(&dir, cfg, SETUPS)?;
    let run = online_pass(&svc, args.seed, n_ops, false);
    report.set("setup_s", median(&setup));
    report_online(&run, report);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());
    report.note("run.setups", setup.len().to_string());
    report.note("run.open_loop_rate", format!("{ONLINE_RATE}"));
    report.note("run.ops", n_ops.to_string());
    report.note("run.reads", run.reads.to_string());
    report.note("run.read_sample_every", READ_SAMPLE_EVERY.to_string());
    drop(svc);
    if !report.traced() {
        return Ok(());
    }

    let (svc, _) = set_up(&dir, cfg, 1)?;
    let traced = online_pass(&svc, args.seed, n_ops, true);
    drop(svc);
    report.check(traced.digest == run.digest, || {
        format!(
            "traced service digest {:?} differs from untraced {:?}",
            traced.digest, run.digest
        )
    });
    report.check(traced.errors == 0 && traced.read_failures == 0, || {
        "the traced pass had failed ops or reads".into()
    });
    let reads_per_s = |r: &Online| r.reads as f64 / r.read_window_s;
    report.set(
        "trace.overhead_frac",
        reads_per_s(&run) / reads_per_s(&traced) - 1.0,
    );
    let snap = traced.snapshot_read.sorted();
    report.set_quantile("rocq.snapshot.reputation.p50_ns", snap.median(), 1.0);
    report.set_quantile("rocq.snapshot.reputation.p99_ns", snap.tail(99.0), 1.0);
    let status = traced.status_read.sorted();
    report.set_quantile("core.serve.status.p50_ns", status.median(), 1.0);
    report.set_quantile("core.serve.status.p99_ns", status.tail(99.0), 1.0);

    let mut gen = OpGen::new(args.seed, SUBJECTS);
    let ops = (0..n_ops).map(|_| gen.next_online());
    let replica = replay(&dir, cfg, ops, report)?;
    report.check(replica.digest == traced.digest, || {
        format!(
            "replica digest {:?} differs from the service's {:?}",
            replica.digest, traced.digest
        )
    });
    report.set(
        "core.serve.mutate_residual.p50_ns",
        traced.report_call.sorted().median().value - replica.append_p50 - replica.apply_p50,
    );

    // Departures, left out of the open-loop mix, timed on the replica.
    let clock = clock_cost_ns();
    let mut departures = Samples::new();
    for &peer in gen.arrivals().iter().take(REPLICA_DEPARTURES) {
        let a = Instant::now();
        replica.engine.remove_peer(peer);
        departures.record((ns(a, Instant::now()) - clock).max(0.0));
    }
    report.set_quantile(
        "rocq.concurrent.remove_peer.p50_ns",
        departures.sorted().median(),
        1.0,
    );
    Ok(())
}

fn report_online(run: &Online, report: &mut Report) {
    report.attempted += run.ops + run.reads;
    report.failed += run.errors + run.read_failures;
    report.check(run.errors == 0, || format!("{} ops failed", run.errors));
    report.check(run.read_failures == 0, || {
        format!(
            "{} reads of registered subjects returned None",
            run.read_failures
        )
    });
    report.check(run.reads > 0, || "the reader made no progress".into());
    report.check(run.digest.0 == run.live_subjects, || {
        format!(
            "service holds {} subjects, the op stream leaves {}",
            run.digest.0, run.live_subjects
        )
    });
    let summary = run.windows.summary(WARMUP_WINDOWS);
    report.set("ops_per_s", summary.rate);
    report.set_quantile("op_latency_p50_us", summary.p50, 1e-3);
    report.set_quantile("op_latency_p90_us", summary.p90, 1e-3);
    report.set_quantile("op_latency_p99_us", summary.p99, 1e-3);
    report.note("run.windows", summary.windows.to_string());
    let reads = run.read_latency.sorted();
    report.set_quantile("read_latency_p50_ns", reads.median(), 1.0);
    report.set_quantile("read_latency_p99_ns", reads.tail(99.0), 1.0);
    report.set("reads_per_s", run.reads as f64 / run.read_window_s);
    report.set("ingest_opinions_per_s", run.opinions as f64 / run.elapsed_s);
    report.set_quantile("loadgen.late.p99_us", run.late.sorted().tail(99.0), 1e-3);
}

// ---------------------------------------------------------------------
// The traced replica
// ---------------------------------------------------------------------

/// What the replica replay measured, and the replica itself.
struct Replica {
    engine: ConcurrentEngine,
    digest: (u64, u64),
    append_p50: f64,
    apply_p50: f64,
}

/// Replays founders' registration plus `ops` through a bare
/// `ConcurrentEngine` and a file `JournalWriter`: each op is encoded,
/// appended (flushed per record, as the service does) and applied, each
/// step timed.
fn replay(
    dir: &WorkDir,
    cfg: ServeConfig,
    ops: impl Iterator<Item = Op>,
    report: &mut Report,
) -> Result<Replica, ServeError> {
    let clock = clock_cost_ns();
    let engine = ConcurrentEngine::new(cfg.params, cfg.num_sm, cfg.partitions, cfg.seed);
    let path = dir.join("replica.journal");
    let mut writer = JournalWriter::with_policy(
        File::create(&path)?,
        journal_seed(cfg.seed, 0),
        cfg.journal_sync,
    );

    let register = JournalOp::RegisterBatch {
        batch: founders()
            .into_iter()
            .map(|(p, r)| (p, r.value()))
            .collect(),
    };
    writer.append(&register)?;
    let t = Instant::now();
    apply(&engine, &register);
    report.set(
        "rocq.concurrent.register_batch_s",
        t.elapsed().as_secs_f64(),
    );

    let mut encode = Samples::new();
    let mut append = Samples::new();
    let mut applied: Vec<Samples> = APPLY_KINDS.iter().map(|_| Samples::new()).collect();
    let (mut frames, mut opinions, mut report_ns) = (1u64, 0u64, 0.0);
    for op in ops {
        let record = journal_op(&op);
        let a = Instant::now();
        let bytes = replend_wire::to_bytes(&record)
            .map_err(|e| ServeError::Checkpoint(format!("encode: {e}")))?;
        let b = Instant::now();
        black_box(bytes);
        writer.append(&record)?;
        let c = Instant::now();
        apply(&engine, &record);
        let d = Instant::now();
        encode.record((ns(a, b) - clock).max(0.0));
        append.record((ns(b, c) - clock).max(0.0));
        let k = kind(&op);
        applied[k].record((ns(c, d) - clock).max(0.0));
        if k == 0 {
            report_ns += (ns(c, d) - clock).max(0.0);
        }
        frames += 1;
        opinions += op.opinions() as u64;
    }
    writer.sync()?;
    drop(writer);
    let bytes = std::fs::metadata(&path)?.len();

    report.set_quantile("wire.encode.p50_ns", encode.sorted().median(), 1.0);
    let append = append.sorted();
    report.set_quantile("wire.journal_append.p50_ns", append.median(), 1.0);
    report.set_quantile("wire.journal_append.p99_ns", append.tail(99.0), 1.0);
    report.set("wire.journal.frames", frames as f64);
    report.set(
        "wire.journal.bytes_per_opinion",
        bytes as f64 / opinions.max(1) as f64,
    );
    let reports: Sorted = applied[0].sorted();
    report.set_quantile("rocq.concurrent.report_batch.p50_ns", reports.median(), 1.0);
    report.set_quantile(
        "rocq.concurrent.report_batch.p99_ns",
        reports.tail(99.0),
        1.0,
    );
    report.set(
        "rocq.concurrent.report_batch.ns_per_opinion",
        report_ns / opinions.max(1) as f64,
    );
    for (k, name) in APPLY_KINDS.iter().enumerate().skip(1) {
        if applied[k].seen() > 0 {
            report.set_quantile(
                &format!("rocq.concurrent.{name}.p50_ns"),
                applied[k].sorted().median(),
                1.0,
            );
        }
    }
    report.note("trace.clock_cost_ns", format!("{clock}"));
    Ok(Replica {
        digest: digest(&engine),
        engine,
        append_p50: append.median().value,
        apply_p50: reports.median().value,
    })
}

// ---------------------------------------------------------------------
// serve_bulk_restart
// ---------------------------------------------------------------------

/// The checkpoint file's document, mirrored field for field so the
/// traced run can time its decode apart from `open()`.
#[derive(Deserialize)]
struct CheckpointDoc {
    #[allow(dead_code)]
    generation: u64,
    #[allow(dead_code)]
    ops: u64,
    #[allow(dead_code)]
    policy: StatusPolicy,
    partitions: Vec<Vec<u8>>,
}

/// What one pass of the bulk traffic measured.
#[derive(Default)]
struct Bulk {
    batches: u64,
    opinions: u64,
    ingest_s: f64,
    /// One window per cycle: its batches, `checkpoint()` and `open()`.
    windows: Windows,
    report_call: Samples,
    checkpoint_s: Vec<f64>,
    restart_s: Vec<f64>,
    checkpoint_bytes: u64,
    errors: u64,
    digest: (u64, u64),
    // Traced decomposition, one entry per cycle.
    export_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    import_s: Vec<f64>,
    replay_s: Vec<f64>,
}

/// One pass: [`CYCLES`] × (closed-loop ingest, `checkpoint()`, a short
/// suffix, drop, `open()`), checking after each restart that the
/// reopened state equals the state before the drop. Every service call
/// of a cycle (the batches, `checkpoint()` and `open()`) is one unit
/// operation of the cycle's window, so checkpoint and restart time
/// lower `ops_per_s`.
fn bulk_pass(
    mut svc: ReputationService,
    dir: &WorkDir,
    cfg: ServeConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Bulk, ServeError> {
    let mut gen = OpGen::new(seed, SUBJECTS);
    let per_cycle = ((seconds * BULK_BATCHES_PER_SECOND).round() as u64).max(1);
    let path = dir.join("journal");
    let mut run = Bulk::default();
    let mut ingest = |svc: &ReputationService, run: &mut Bulk| {
        let op = gen.next_bulk(BULK_TRANSACTIONS);
        let a = Instant::now();
        let result = call(svc, &op);
        let secs = a.elapsed().as_secs_f64();
        run.ingest_s += secs;
        run.batches += 1;
        run.opinions += op.opinions() as u64;
        run.windows.work(1, secs);
        match result {
            Ok(()) => {
                run.windows.latency(secs * 1e9);
                run.report_call.record(secs * 1e9);
            }
            Err(e) => {
                run.errors += 1;
                run.windows.failure();
                eprintln!("bulk batch failed: {e}");
            }
        }
    };
    for cycle in 0..CYCLES {
        for _ in 0..per_cycle {
            ingest(&svc, &mut run);
        }
        if traced {
            let a = Instant::now();
            let parts = svc.engine().export_partitions();
            let b = Instant::now();
            let blobs: Vec<Result<Vec<u8>, WireError>> =
                parts.par_iter().map(replend_wire::to_bytes).collect();
            let c = Instant::now();
            black_box(blobs);
            run.export_s.push((b - a).as_secs_f64());
            run.encode_s.push((c - b).as_secs_f64());
        }
        let t = Instant::now();
        let ckpt = svc.checkpoint()?;
        run.checkpoint_s.push(maintenance(&mut run.windows, t));
        run.checkpoint_bytes = ckpt.bytes;
        for _ in 0..SUFFIX_BATCHES {
            ingest(&svc, &mut run);
        }
        let before = digest(svc.engine());
        drop(svc);
        let t = Instant::now();
        let (reopened, summary) = ReputationService::open(cfg, &path)?;
        run.restart_s.push(maintenance(&mut run.windows, t));
        run.windows.close();
        svc = reopened;
        let after = digest(svc.engine());
        report.check(after == before, || {
            format!("cycle {cycle}: state after open() {after:?} differs from before {before:?}")
        });
        report.check(
            summary.restored_from_checkpoint() && summary.records == SUFFIX_BATCHES,
            || format!("cycle {cycle}: open() restored {summary:?}"),
        );
        if traced {
            let rebuilt = decompose_restart(cfg, &path, ckpt.generation, &mut run)?;
            report.check(rebuilt == after, || {
                format!("cycle {cycle}: checkpoint + suffix rebuilt {rebuilt:?}, open() {after:?}")
            });
        }
    }
    run.digest = digest(svc.engine());
    report.check(run.digest.0 == SUBJECTS, || {
        format!(
            "{} subjects after the run, {SUBJECTS} registered",
            run.digest.0
        )
    });
    Ok(run)
}

/// Counts a `checkpoint()` or `open()` call that started at `start` as
/// one unit operation of the open window, and returns its seconds.
fn maintenance(windows: &mut Windows, start: Instant) -> f64 {
    let secs = start.elapsed().as_secs_f64();
    windows.work(1, secs);
    windows.latency(secs * 1e9);
    secs
}

/// Rebuilds the reopened state by hand, timing each part `open()` is
/// made of: checkpoint decode, partition import, journal suffix replay.
fn decompose_restart(
    cfg: ServeConfig,
    path: &std::path::Path,
    generation: u64,
    run: &mut Bulk,
) -> Result<(u64, u64), ServeError> {
    let bytes = std::fs::read(replend_core::serve::checkpoint_path(path))?;
    let a = Instant::now();
    let (_, doc) = replend_wire::decode_checkpoint::<CheckpointDoc>(&bytes)
        .map_err(|e| ServeError::Checkpoint(format!("decode: {e}")))?;
    let parts: Vec<Result<PartitionCheckpoint, WireError>> = doc
        .partitions
        .par_iter()
        .map(|blob| replend_wire::from_bytes(blob))
        .collect();
    let parts = parts
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ServeError::Checkpoint(format!("partition decode: {e}")))?;
    let b = Instant::now();
    let engine = ConcurrentEngine::import_partitions(&parts)
        .map_err(|e| ServeError::Checkpoint(format!("import: {}", e.0)))?;
    let c = Instant::now();
    let mut reader = JournalReader::new(
        BufReader::new(File::open(path)?),
        journal_seed(cfg.seed, generation),
    );
    while let Some(op) = reader.next::<JournalOp>()? {
        apply(&engine, &op);
    }
    let d = Instant::now();
    run.decode_s.push((b - a).as_secs_f64());
    run.import_s.push((c - b).as_secs_f64());
    run.replay_s.push((d - c).as_secs_f64());
    Ok(digest(&engine))
}

fn report_bulk(run: &Bulk, report: &mut Report) {
    // Each cycle's checkpoint() and open() are unit operations too.
    report.attempted += run.batches + 2 * u64::from(CYCLES);
    report.failed += run.errors;
    report.check(run.errors == 0, || format!("{} batches failed", run.errors));
    // One window per cycle; the set-ups already warmed the service.
    let summary = run.windows.summary(0);
    report.set("ops_per_s", summary.rate);
    report.set("ingest_opinions_per_s", run.opinions as f64 / run.ingest_s);
    report.set_quantile("op_latency_p50_us", summary.p50, 1e-3);
    report.set_quantile("op_latency_p90_us", summary.p90, 1e-3);
    report.set_quantile("op_latency_p99_us", summary.p99, 1e-3);
    report.set("checkpoint_s", median(&run.checkpoint_s));
    report.set("restart_s", median(&run.restart_s));
    report.note("run.batches", run.batches.to_string());
    report.note("run.cycles", CYCLES.to_string());
    report.note("run.checkpoint_bytes", run.checkpoint_bytes.to_string());
}

/// Runs `serve_bulk_restart` and fills `report`.
pub fn bulk_restart(args: &Args, report: &mut Report) -> Result<(), ServeError> {
    let dir = WorkDir::create("serve_bulk_restart")?;
    let cfg = config(args.seed);
    let (svc, setup) = set_up(&dir, cfg, SETUPS)?;
    let run = bulk_pass(svc, &dir, cfg, args.seed, args.seconds, false, report)?;
    report.set("setup_s", median(&setup));
    report_bulk(&run, report);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());
    report.note("run.setups", setup.len().to_string());
    if !report.traced() {
        return Ok(());
    }

    let (svc, _) = set_up(&dir, cfg, 1)?;
    let traced = bulk_pass(svc, &dir, cfg, args.seed, args.seconds, true, report)?;
    report.check(traced.errors == 0, || {
        "the traced pass had failed batches".into()
    });
    let rate = |r: &Bulk| r.batches as f64 / r.ingest_s;
    report.set("trace.overhead_frac", rate(&run) / rate(&traced) - 1.0);
    // Residuals per cycle, then the median: the whole call minus the
    // parts timed beside it in the same cycle.
    let residual = |whole: &[f64], parts: &[&[f64]]| -> f64 {
        let per_cycle: Vec<f64> = (0..whole.len())
            .map(|i| whole[i] - parts.iter().map(|p| p[i]).sum::<f64>())
            .collect();
        median(&per_cycle)
    };
    report.set("rocq.state.export_partitions_s", median(&traced.export_s));
    report.set("wire.partition_encode_s", median(&traced.encode_s));
    report.set(
        "checkpoint.residual_s",
        residual(&traced.checkpoint_s, &[&traced.export_s, &traced.encode_s]),
    );
    report.set(
        "checkpoint.bytes_per_subject",
        traced.checkpoint_bytes as f64 / SUBJECTS as f64,
    );
    report.set("wire.partition_decode_s", median(&traced.decode_s));
    report.set("rocq.state.import_partitions_s", median(&traced.import_s));
    report.set("restart.replay_s", median(&traced.replay_s));
    report.set(
        "restart.residual_s",
        residual(
            &traced.restart_s,
            &[&traced.decode_s, &traced.import_s, &traced.replay_s],
        ),
    );

    // The replica replays the traced pass's op stream: the same seed,
    // as many batches as that pass ingested.
    let mut gen = OpGen::new(args.seed, SUBJECTS);
    let ops = (0..traced.batches).map(|_| gen.next_bulk(BULK_TRANSACTIONS));
    let replica = replay(&dir, cfg, ops, report)?;
    report.check(replica.digest == traced.digest, || {
        format!(
            "replica digest {:?} differs from the service's {:?}",
            replica.digest, traced.digest
        )
    });
    let call = traced.report_call.sorted();
    report.set(
        "core.serve.mutate_residual.p50_ns",
        call.median().value - replica.append_p50 - replica.apply_p50,
    );
    Ok(())
}
