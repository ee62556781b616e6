//! Transport-agnostic cluster workers.
//!
//! The multi-community cluster's execution model is a **job / report
//! protocol**: a coordinator describes a slice of independent
//! communities as a [`WorkerJob`] (full builder spec, seed schedule
//! indices, tick count, sampling/histogram knobs) and a [`Worker`]
//! returns one [`CommunityReport`] per community. Everything a merge
//! needs — population counters, protocol stats, the O(1) reputation
//! means, histogram buckets, the sampled series — is *in the report*,
//! so the coordinator never needs shared memory with the simulation:
//!
//! * [`InProcessWorker`] runs the job on this process's rayon pool
//!   (the classic `--communities K` path);
//! * [`SubprocessWorker`] spawns a `replend worker` child per job and
//!   speaks the `replend-wire` format over its stdio pipes —
//!   shared-nothing scale-out across processes (and, with a remote
//!   launcher in place of `std::process`, across hosts).
//!
//! Reports are deterministic functions of `(job, index)`: a
//! community's report is **bit-identical** whichever worker produced
//! it, which is what makes `--workers N` output byte-identical to the
//! in-process path (pinned by the CLI integration tests and the CI
//! smoke step).
//!
//! ## The stdio protocol
//!
//! Frames as in [`replend_wire::write_frame`], each carrying a
//! versioned [`SummaryEnvelope`]:
//!
//! ```text
//! coordinator → worker   one frame per WorkerJob (any number of
//!                        jobs; stdin EOF ends the session)
//! worker → coordinator   one frame per CommunityReport, streamed in
//!                        job-index order, all of a job's reports
//!                        before the next job is read
//! ```
//!
//! The envelope's `seed` carries the job's `base_seed` so a
//! coordinator can reject misrouted summaries; its `version` is
//! checked before any payload decode ([`replend_wire`] docs state the
//! bump policy).

use crate::community::CommunityBuilder;
use crate::stats::{CommunityStats, Population};
use crate::{BootstrapPolicy, EngineKind};
use replend_types::hash::seed_for_run;
use replend_types::Table1;
use replend_wire::{read_frame, write_frame, SummaryEnvelope, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A slice of cluster work: which communities to run (by seed-schedule
/// index), under which full configuration, for how long, and which
/// extras to sample. Crosses the process boundary encoded with
/// `replend-wire`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerJob {
    /// Full simulation configuration (Table 1 + infrastructure
    /// knobs).
    pub config: Table1,
    /// Bootstrap policy.
    pub policy: BootstrapPolicy,
    /// Reputation engine selection.
    pub engine: EngineKind,
    /// Barabási–Albert attachment parameter of the topology.
    pub ba_attachment: u64,
    /// Probability an introducer-side score manager crashes before
    /// forwarding the loan credit.
    pub sm_crash_prob: f64,
    /// Member departure churn rate (0 = the paper's model).
    pub departure_rate: f64,
    /// Event-log retention per community (0 = logging disabled).
    /// Carried for spec fidelity — reports do not currently ship log
    /// contents, but workers must simulate exactly what the builder
    /// describes.
    pub log_capacity: u64,
    /// Base seed of the cluster; community `i` runs with
    /// `seed_for_run(base_seed, i)`.
    pub base_seed: u64,
    /// Seed-schedule indices of the communities this job covers.
    pub indices: Vec<u64>,
    /// Ticks to advance each community.
    pub ticks: u64,
    /// Sample the mean cooperative reputation every this many ticks
    /// into [`CommunityReport::series`] (0 = no series).
    pub sample_interval: u64,
    /// Bucket count of [`CommunityReport::histogram`] (0 = no
    /// histogram).
    pub histogram_buckets: u64,
}

impl WorkerJob {
    /// A job covering `indices` of a cluster built from `builder`
    /// with the given base seed. Tick count and sampling knobs start
    /// at zero — the coordinator fills them per run.
    pub fn from_builder(builder: &CommunityBuilder, base_seed: u64, indices: Vec<u64>) -> Self {
        WorkerJob {
            config: builder.config,
            policy: builder.policy,
            engine: builder.engine,
            ba_attachment: builder.ba_m as u64,
            sm_crash_prob: builder.sm_crash_prob,
            departure_rate: builder.departure_rate,
            log_capacity: builder.log_capacity as u64,
            base_seed,
            indices,
            ticks: 0,
            sample_interval: 0,
            histogram_buckets: 0,
        }
    }

    /// The same job restricted to a different index slice.
    fn with_indices(&self, indices: Vec<u64>) -> Self {
        WorkerJob {
            indices,
            ..self.clone()
        }
    }

    /// Splits the job into at most `n` contiguous slices (in index
    /// order, so concatenating the slices' reports reproduces the
    /// original index order). Empty slices are dropped — a job with
    /// no indices splits into no slices at all.
    pub fn split(&self, n: usize) -> Vec<WorkerJob> {
        let n = n.max(1).min(self.indices.len().max(1));
        let chunk = self.indices.len().div_ceil(n).max(1);
        self.indices
            .chunks(chunk)
            .map(|slice| self.with_indices(slice.to_vec()))
            .collect()
    }
}

/// Everything the cluster merge needs from one finished community.
/// Crosses the process boundary encoded with `replend-wire`; every
/// `f64` travels bit-exact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommunityReport {
    /// Seed-schedule index of the community.
    pub index: u64,
    /// Final population snapshot.
    pub population: Population,
    /// Cumulative protocol counters.
    pub stats: CommunityStats,
    /// Mean reputation over cooperative members, if any.
    pub mean_coop_rep: Option<f64>,
    /// Mean reputation over uncooperative members, if any.
    pub mean_uncoop_rep: Option<f64>,
    /// Member-reputation histogram buckets
    /// ([`WorkerJob::histogram_buckets`] bins over `[0, 1]`; empty
    /// when not requested).
    pub histogram: Vec<u64>,
    /// Mean cooperative reputation sampled every
    /// [`WorkerJob::sample_interval`] ticks (empty when not
    /// requested). `None` marks a sample taken while the community
    /// had no cooperative members — distinct from a true `0.0` mean,
    /// so cluster merges stay exact when some communities are empty.
    pub series: Vec<Option<f64>>,
}

/// A worker transport failure (the wire layer, the pipe, or the peer
/// misbehaving).
#[derive(Debug)]
pub enum WorkerError {
    /// Encode/decode failure, including protocol-version mismatches.
    Wire(WireError),
    /// Pipe or process-spawn failure.
    Io(std::io::Error),
    /// The peer violated the protocol (bad exit status, wrong report
    /// count, misrouted seed, invalid job).
    Protocol(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Wire(e) => write!(f, "wire error: {e}"),
            WorkerError::Io(e) => write!(f, "worker I/O error: {e}"),
            WorkerError::Protocol(m) => write!(f, "worker protocol error: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<WireError> for WorkerError {
    fn from(e: WireError) -> Self {
        WorkerError::Wire(e)
    }
}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> Self {
        WorkerError::Io(e)
    }
}

/// An executor of [`WorkerJob`]s. Implementations must return one
/// report per job index, in index order, each bit-identical to what
/// [`run_job`] produces in-process — transports move bytes, they do
/// not get to change results.
pub trait Worker: Send {
    /// Runs the job to completion and returns its reports.
    fn run(&mut self, job: &WorkerJob) -> Result<Vec<CommunityReport>, WorkerError>;
}

/// Builds and runs one community of a job, producing its report.
/// The single definition of "what a community report means" — every
/// transport bottoms out here.
pub fn run_one(job: &WorkerJob, index: u64) -> CommunityReport {
    let mut community = CommunityBuilder::new(job.config)
        .policy(job.policy)
        .engine(job.engine)
        .ba_attachment(job.ba_attachment as usize)
        .sm_crash_prob(job.sm_crash_prob)
        .departure_rate(job.departure_rate)
        .log_capacity(job.log_capacity as usize)
        .seed(seed_for_run(job.base_seed, index))
        .build();
    let series = if job.sample_interval > 0 {
        // The sample stays `Option` end to end: a cohort with no
        // cooperative members reports "no mean", never a fake 0.0.
        community.run_sampled_with(job.ticks, job.sample_interval, |c| {
            c.mean_cooperative_reputation()
        })
    } else {
        community.run(job.ticks);
        Vec::new()
    };
    let histogram = if job.histogram_buckets > 0 {
        community
            .reputation_histogram(job.histogram_buckets as usize)
            .buckets()
            .to_vec()
    } else {
        Vec::new()
    };
    CommunityReport {
        index,
        population: community.population(),
        stats: *community.stats(),
        mean_coop_rep: community.mean_cooperative_reputation(),
        mean_uncoop_rep: community.mean_uncooperative_reputation(),
        histogram,
        series,
    }
}

/// Runs every community of a job on the rayon pool, reports in index
/// order (the pool returns outputs in input order, so this is
/// bit-identical to a serial loop).
pub fn run_job(job: &WorkerJob) -> Vec<CommunityReport> {
    use rayon::prelude::*;
    job.indices
        .par_iter()
        .map(|&index| run_one(job, index))
        .collect()
}

/// The in-process transport: runs jobs on this process's pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessWorker;

impl Worker for InProcessWorker {
    fn run(&mut self, job: &WorkerJob) -> Result<Vec<CommunityReport>, WorkerError> {
        Ok(run_job(job))
    }
}

/// The cross-process transport: spawns a child per job and speaks the
/// framed envelope protocol over its stdio pipes.
#[derive(Clone, Debug)]
pub struct SubprocessWorker {
    program: PathBuf,
    args: Vec<String>,
}

impl SubprocessWorker {
    /// A worker spawning `program worker` (the `replend-cli`
    /// subcommand) per job.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        SubprocessWorker {
            program: program.into(),
            args: vec!["worker".into()],
        }
    }

    /// A worker spawning `program` with custom arguments (tests use
    /// this to exercise protocol failures).
    pub fn with_args(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        SubprocessWorker {
            program: program.into(),
            args,
        }
    }
}

/// Folds the worker's captured stderr into an error message. Keeps
/// typed `Wire`/`Io` errors intact when the child said nothing.
fn with_stderr(err: WorkerError, stderr: &str) -> WorkerError {
    let stderr = stderr.trim();
    if stderr.is_empty() {
        return err;
    }
    WorkerError::Protocol(format!("{err}; worker stderr: {stderr}"))
}

impl Worker for SubprocessWorker {
    fn run(&mut self, job: &WorkerJob) -> Result<Vec<CommunityReport>, WorkerError> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        // Drain stderr on its own thread for the child's whole life:
        // a worker that chats on stderr must never block on a full
        // pipe, but whatever it said must reach the error message.
        // The tail accumulates *incrementally* in a shared buffer
        // (bounded; excess is discarded) rather than being returned on
        // join: a misbehaving worker can fork descendants that inherit
        // the pipe's write end and outlive the kill, so EOF — and
        // therefore a join — may never come. The drain thread signals
        // EOF over a channel and the coordinator waits for it only a
        // bounded grace period before reading whatever has arrived.
        let mut stderr = child.stderr.take().expect("stderr was piped");
        let stderr_tail = std::sync::Arc::new(std::sync::Mutex::new(String::new()));
        let (stderr_eof_tx, stderr_eof_rx) = std::sync::mpsc::channel::<()>();
        {
            let tail = std::sync::Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match stderr.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            let mut tail = tail.lock().expect("stderr tail lock");
                            if tail.len() < 16 * 1024 {
                                tail.push_str(&String::from_utf8_lossy(&buf[..n]));
                                tail.truncate(16 * 1024);
                            }
                        }
                    }
                }
                let _ = stderr_eof_tx.send(());
            });
        }

        let mut reports = Vec::with_capacity(job.indices.len());
        let outcome = (|| -> Result<(), WorkerError> {
            // One job per child: write it, close stdin so the child's
            // serve loop terminates after this job.
            {
                let mut stdin = child.stdin.take().expect("stdin was piped");
                let envelope = SummaryEnvelope::wrap(job.base_seed, job)?;
                write_frame(&mut stdin, &envelope.encode()?)?;
            }
            let mut stdout = child.stdout.take().expect("stdout was piped");
            while let Some(frame) = read_frame(&mut stdout)? {
                let envelope = SummaryEnvelope::decode(&frame)?;
                if envelope.seed != job.base_seed {
                    return Err(WorkerError::Protocol(format!(
                        "summary for seed {} on the stream of seed {}",
                        envelope.seed, job.base_seed
                    )));
                }
                reports.push(envelope.open::<CommunityReport>()?);
            }
            Ok(())
        })();

        // Reap the child on *every* path. On a mid-stream failure we
        // stop draining stdout, so the child could block forever on a
        // full pipe — kill it first, then wait; otherwise just wait.
        // Either way no zombie outlives this call.
        if outcome.is_err() {
            let _ = child.kill();
        }
        let status = child.wait();
        // Wait briefly for the drain thread to see EOF so a
        // well-behaved child's last words are all captured; if a
        // leaked descendant still holds the pipe open (only a kill
        // of the direct child can leave one behind), take the tail
        // as-is and let the drain thread finish in the background.
        let _ = stderr_eof_rx.recv_timeout(std::time::Duration::from_secs(2));
        let stderr_tail = stderr_tail.lock().expect("stderr tail lock").clone();

        outcome.map_err(|e| with_stderr(e, &stderr_tail))?;
        let status = status?;
        if !status.success() {
            return Err(with_stderr(
                WorkerError::Protocol(format!("worker process exited with {status}")),
                &stderr_tail,
            ));
        }
        if reports.len() != job.indices.len() {
            return Err(with_stderr(
                WorkerError::Protocol(format!(
                    "worker returned {} reports for {} communities",
                    reports.len(),
                    job.indices.len()
                )),
                &stderr_tail,
            ));
        }
        for (report, &index) in reports.iter().zip(&job.indices) {
            if report.index != index {
                return Err(with_stderr(
                    WorkerError::Protocol(format!(
                        "worker returned report for community {} where {} was expected",
                        report.index, index
                    )),
                    &stderr_tail,
                ));
            }
        }
        Ok(reports)
    }
}

/// The worker side of the stdio protocol — the body of the
/// `replend worker` subcommand, on abstract streams so tests can
/// drive it over in-memory buffers. Reads framed jobs until EOF,
/// streaming each job's reports (in index order) before reading the
/// next.
pub fn serve<R: Read, W: Write>(reader: &mut R, writer: &mut W) -> Result<(), WorkerError> {
    while let Some(frame) = read_frame(reader)? {
        let envelope = SummaryEnvelope::decode(&frame)?;
        let job: WorkerJob = envelope.open()?;
        job.config
            .validate()
            .map_err(|e| WorkerError::Protocol(format!("invalid job configuration: {e}")))?;
        for report in run_job(&job) {
            let envelope = SummaryEnvelope::wrap(job.base_seed, &report)?;
            write_frame(writer, &envelope.encode()?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use replend_types::hash::seed_for_run;

    fn small_job(indices: Vec<u64>) -> WorkerJob {
        let builder = CommunityBuilder::new(
            Table1::paper_defaults()
                .with_num_init(40)
                .with_arrival_rate(0.05)
                .with_num_trans(5_000),
        );
        let mut job = WorkerJob::from_builder(&builder, 77, indices);
        job.ticks = 1_500;
        job
    }

    #[test]
    fn job_round_trips_through_the_wire() {
        let mut job = small_job(vec![0, 1, 5]);
        job.sample_interval = 500;
        job.histogram_buckets = 10;
        let bytes = replend_wire::to_bytes(&job).unwrap();
        let back: WorkerJob = replend_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn report_matches_direct_community_run() {
        let mut job = small_job(vec![3]);
        job.sample_interval = 500;
        job.histogram_buckets = 8;
        let report = run_one(&job, 3);
        assert_eq!(report.index, 3);

        let mut solo = CommunityBuilder::new(job.config)
            .seed(seed_for_run(77, 3))
            .build();
        let series = solo.run_sampled_with(job.ticks, 500, |c| c.mean_cooperative_reputation());
        assert_eq!(report.population, solo.population());
        assert_eq!(report.stats, *solo.stats());
        assert_eq!(
            report.mean_coop_rep.map(f64::to_bits),
            solo.mean_cooperative_reputation().map(f64::to_bits)
        );
        assert_eq!(report.series, series);
        assert_eq!(
            report.histogram,
            solo.reputation_histogram(8).buckets().to_vec()
        );
    }

    #[test]
    fn run_job_covers_indices_in_order() {
        let job = small_job(vec![2, 0, 4]);
        let reports = run_job(&job);
        assert_eq!(
            reports.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![2, 0, 4]
        );
        // Each report is the index's deterministic function, not a
        // position artifact.
        assert_eq!(reports[1], run_one(&job, 0));
    }

    #[test]
    fn split_covers_all_indices_contiguously() {
        let job = small_job((0..7).collect());
        let parts = job.split(3);
        assert_eq!(parts.len(), 3);
        let rejoined: Vec<u64> = parts.iter().flat_map(|p| p.indices.clone()).collect();
        assert_eq!(rejoined, (0..7).collect::<Vec<_>>());
        // More workers than communities: one community per slice.
        assert_eq!(job.split(100).len(), 7);
        // Degenerate empty job: nothing to run, no slices.
        assert_eq!(small_job(vec![]).split(4).len(), 0);
    }

    #[test]
    fn serve_round_trips_over_in_memory_pipes() {
        let mut job = small_job(vec![0, 1]);
        job.ticks = 800;
        let envelope = SummaryEnvelope::wrap(job.base_seed, &job).unwrap();
        let mut stdin = Vec::new();
        write_frame(&mut stdin, &envelope.encode().unwrap()).unwrap();

        let mut stdout = Vec::new();
        serve(&mut stdin.as_slice(), &mut stdout).unwrap();

        let mut reader = stdout.as_slice();
        let mut reports = Vec::new();
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            let envelope = SummaryEnvelope::decode(&frame).unwrap();
            assert_eq!(envelope.seed, job.base_seed);
            reports.push(envelope.open::<CommunityReport>().unwrap());
        }
        assert_eq!(
            reports,
            run_job(&job),
            "served reports must be bit-identical"
        );
    }

    #[test]
    fn serve_rejects_version_mismatch_and_bad_jobs() {
        // Bumped version: typed error before the payload is decoded.
        let job = small_job(vec![0]);
        let mut envelope = SummaryEnvelope::wrap(job.base_seed, &job).unwrap();
        envelope.version += 1;
        let mut stdin = Vec::new();
        write_frame(&mut stdin, &envelope.encode().unwrap()).unwrap();
        let err = serve(&mut stdin.as_slice(), &mut Vec::new()).unwrap_err();
        assert!(
            matches!(
                err,
                WorkerError::Wire(WireError::VersionMismatch { found, .. })
                    if found == replend_wire::PROTOCOL_VERSION + 1
            ),
            "{err:?}"
        );

        // An invalid configuration is rejected before any simulation
        // is built (the builder would panic; the worker must not).
        let mut bad = small_job(vec![0]);
        bad.config.sim.f_uncoop = 2.0;
        let envelope = SummaryEnvelope::wrap(bad.base_seed, &bad).unwrap();
        let mut stdin = Vec::new();
        write_frame(&mut stdin, &envelope.encode().unwrap()).unwrap();
        let err = serve(&mut stdin.as_slice(), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, WorkerError::Protocol(_)), "{err:?}");

        // An empty stream is a clean no-op session.
        serve(&mut [].as_slice(), &mut Vec::new()).unwrap();
    }
}
