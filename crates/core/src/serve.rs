//! The serve layer: an online, concurrently-readable reputation
//! service over the arena engine, with an append-only write-ahead
//! feedback journal as its durable source of truth.
//!
//! Everything before this module is batch-simulation-shaped — one
//! owner mutates an engine while readers wait their turn. A deployed
//! reputation store is used the other way around: a heavy stream of
//! `reputation()` / status probes from admission control, punctuated
//! by feedback ingest. [`ReputationService`] serves that shape:
//!
//! * **Wait-free reads.** Subjects live in a [`ConcurrentEngine`] —
//!   a lock-per-partition facade whose hot read fields are published
//!   through an epoch-versioned snapshot slab — so `reputation()` and
//!   `status()` probes take **no lock at all**: they read the slab,
//!   validate the partition epoch, and retry only if a batch
//!   published mid-read. Every individual subject is linearizable and
//!   every read observes exactly a pre-batch or post-batch state
//!   (never a mix), bit-identical to what the locked path would
//!   return; cross-subject sweeps are still not a consistent global
//!   snapshot (see the `replend_rocq::concurrent` module docs).
//! * **Status tiers.** [`StatusPolicy`] maps a subject's reputation
//!   *and* its applied-report count to an operational
//!   [`SubjectStatus`]: `Whitelisted` / `Throttled` / `Banned`. The
//!   interaction floor keeps a newcomer with two low reports from
//!   being banned on no evidence — below `min_observations` the
//!   policy stays permissive and lets the lending protocol's own
//!   stake bear the risk. `status()` is one lock-free read of the
//!   coherent `(reputation, interactions)` pair plus the policy's
//!   three compares.
//! * **Write-ahead journal.** With a journal attached, every mutation
//!   is appended to an append-only log of length-prefixed
//!   `replend-wire` frames *before* it touches the engine. The
//!   [`SyncPolicy`] picks the durability point: `Always` flushes
//!   every record before applying it (the strict WAL contract);
//!   `Batch(N)` group-commits — frames buffer in memory and hit the
//!   file every `N` appends, trading up to `N - 1` applied-but-
//!   unflushed operations on a crash for fewer syscalls, while the
//!   byte stream (and therefore replay state) stays identical. A
//!   restarted service replays the log through the same apply path
//!   and reaches byte-identical engine state — pinned by the
//!   determinism suite. A torn final frame is truncated on open;
//!   under group commit a torn tail can only start at a flushed-batch
//!   boundary, so the truncation is still exact.
//! * **Checkpointed restarts.** Replaying a long-lived journal from
//!   the beginning makes restart time proportional to service
//!   *lifetime*; [`ReputationService::checkpoint`] bounds it by
//!   service *size*. A checkpoint atomically persists the full engine
//!   state: each partition is exported and wire-encoded in one
//!   partition-parallel task, so its exported copy is freed once its
//!   blob exists; the blobs are framed straight into a temp file (no
//!   buffer of the whole file), fsynced, and renamed over the
//!   previous checkpoint. The journal is then truncated to empty and
//!   re-stamped with the next **generation seed** — so
//!   [`ReputationService::open`] restores the latest checkpoint (each
//!   partition decoded and imported in one partition-parallel task)
//!   and replays only the short journal suffix written since. The
//!   generation salt is the crash-safety hinge: a crash between the
//!   checkpoint rename and the journal truncation leaves a journal
//!   whose every record is already inside the checkpoint, and its
//!   stale-generation seed makes that detectable — replay discards it
//!   instead of double-applying. A torn or corrupt checkpoint file
//!   fails its decode gates and `open` falls back to full journal
//!   replay; a post-compaction journal whose checkpoint is missing is
//!   a **hard error**, never a silent partial restore. Restored state
//!   is bit-identical to a from-scratch replay — pinned by the
//!   checkpoint equivalence suite.
//!
//! The one-writer/many-readers split is by construction: mutators
//! serialize on the journal lock (a WAL has one tail), while readers
//! bypass locks entirely on the snapshot slab. [`run_ingest_workload`]
//! is the service loop the `replend serve` subcommand drives: a
//! deterministic synthetic ingest stream with reader threads
//! hammering the read path the whole time.

use replend_rocq::concurrent::ConcurrentEngine;
use replend_rocq::state::{InvalidState, PartitionCheckpoint};
use replend_rocq::RocqParams;
use replend_types::hash::{salted, splitmix64};
use replend_types::{Feedback, PeerId, Reputation};
pub use replend_wire::SyncPolicy;
use replend_wire::{
    decode_checkpoint, write_checkpoint, ByteRun, JournalError, JournalReader, JournalWriter,
    WireError,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The operational tier admission control acts on: serve the request,
/// serve it rate-limited, or refuse it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubjectStatus {
    /// Full service: reputable, or not yet enough evidence to judge.
    Whitelisted,
    /// Degraded service: reputation below the throttle line.
    Throttled,
    /// Refused: reputation below the ban line with real evidence.
    Banned,
}

impl SubjectStatus {
    /// Stable lowercase name for reports and CLI output.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SubjectStatus::Whitelisted => "whitelisted",
            SubjectStatus::Throttled => "throttled",
            SubjectStatus::Banned => "banned",
        }
    }
}

impl fmt::Display for SubjectStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Maps (reputation, applied-report count) to a [`SubjectStatus`].
///
/// Tiering on reputation alone would ban every newcomer the first
/// time a liar reported on them; the `min_observations` evidence
/// floor (cf. the `ReputationBox` admission tiers this layer is
/// modeled on) keeps the policy permissive until the score managers
/// have actually heard enough.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusPolicy {
    /// Applied reports required before a subject can be throttled or
    /// banned. Below this the status is always `Whitelisted`.
    pub min_observations: u64,
    /// Reputations strictly below this are at most `Throttled`.
    pub throttle_below: f64,
    /// Reputations strictly below this are `Banned`.
    pub ban_below: f64,
}

impl Default for StatusPolicy {
    fn default() -> Self {
        StatusPolicy {
            min_observations: 10,
            throttle_below: 0.5,
            ban_below: 0.2,
        }
    }
}

impl StatusPolicy {
    /// The tier for a subject with the given aggregate reputation and
    /// applied-report count.
    pub fn classify(&self, reputation: Reputation, observations: u64) -> SubjectStatus {
        if observations < self.min_observations {
            return SubjectStatus::Whitelisted;
        }
        let r = reputation.value();
        if r < self.ban_below {
            SubjectStatus::Banned
        } else if r < self.throttle_below {
            SubjectStatus::Throttled
        } else {
            SubjectStatus::Whitelisted
        }
    }

    /// Checks the thresholds are ordered and in range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.ban_below) || !(0.0..=1.0).contains(&self.throttle_below) {
            return Err("status thresholds must lie in [0, 1]".into());
        }
        if self.ban_below > self.throttle_below {
            return Err(format!(
                "ban_below ({}) must not exceed throttle_below ({})",
                self.ban_below, self.throttle_below
            ));
        }
        Ok(())
    }
}

/// Static configuration of a [`ReputationService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// ROCQ parameters for every partition engine. The crash model
    /// defaults to off (`crash_prob = 0`): a service node does not
    /// simulate its own replica crashes.
    pub params: RocqParams,
    /// Score-manager replicas per subject.
    pub num_sm: usize,
    /// Lock partitions (independent read/write domains).
    pub partitions: usize,
    /// Engine seed; also stamped into every journal frame so a log
    /// cannot be replayed into a differently-seeded service.
    pub seed: u64,
    /// The status-tier thresholds.
    pub policy: StatusPolicy,
    /// When journal appends reach the file: every record
    /// ([`SyncPolicy::Always`], the default) or group-committed in
    /// batches ([`SyncPolicy::Batch`]). Ignored by in-memory services.
    pub journal_sync: SyncPolicy,
    /// Auto-checkpoint cadence: `Some(n)` takes a checkpoint (and
    /// compacts the journal) after every `n` journalled mutations;
    /// `None` (the default) checkpoints only on explicit
    /// [`ReputationService::checkpoint`] calls. Ignored by in-memory
    /// services.
    pub checkpoint_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            params: RocqParams {
                crash_prob: 0.0,
                ..RocqParams::default()
            },
            // Table 1's `numSM` paper default.
            num_sm: 6,
            partitions: 8,
            seed: 0,
            policy: StatusPolicy::default(),
            journal_sync: SyncPolicy::Always,
            checkpoint_every: None,
        }
    }
}

/// One journalled mutation. The journal is the write-ahead log of
/// *operations*, not of resulting states: replaying the ops through
/// the same engine code is what makes restart byte-identical, and it
/// keeps each frame small and version-gated by `replend-wire`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// `register_peer(peer, initial)`.
    Register { peer: PeerId, initial: f64 },
    /// `remove_peer(peer)`.
    Remove { peer: PeerId },
    /// `report_batch(&batch)`.
    Batch { batch: Vec<Feedback> },
    /// `credit(subject, amount)`.
    Credit { subject: PeerId, amount: f64 },
    /// `debit(subject, amount)`.
    Debit { subject: PeerId, amount: f64 },
    /// `register_batch(&batch)` — the bulk-registration fast path:
    /// one journal record and one snapshot-epoch window per partition
    /// for the whole batch, instead of a frame + flush + epoch bump
    /// per peer. Appended as the **trailing** enum variant so
    /// journals written before this op existed still decode (the wire
    /// enum policy: trailing additions are compatible).
    RegisterBatch { batch: Vec<(PeerId, f64)> },
}

/// Serve-layer failures: journal I/O, journal decode/replay, and
/// checkpoint problems that must not be silently papered over.
#[derive(Debug)]
pub enum ServeError {
    /// Appending to or replaying the journal failed.
    Journal(JournalError),
    /// Opening, truncating or seeking the journal file failed.
    Io(io::Error),
    /// A checkpoint failure that has no safe fallback: encoding the
    /// state failed, the checkpoint belongs to a different service
    /// (seed mismatch), its shape disagrees with the config, or the
    /// journal is a post-compaction suffix whose checkpoint is
    /// missing or unreadable. (A merely torn/corrupt checkpoint is
    /// *not* an error — `open` falls back to full journal replay.)
    Checkpoint(String),
    /// A mutation carried a value outside its domain: an opinion or
    /// initial reputation not in `[0, 1]` (NaN included), or a
    /// non-finite or negative credit/debit amount. A live mutation is
    /// refused before it reaches the journal, so neither the journal
    /// nor the engine changed; a journal record is refused on replay
    /// before it reaches the engine, so `open` fails.
    InvalidInput {
        /// The offending field: `"opinion"`, `"initial"` or `"amount"`.
        field: &'static str,
        /// Position of the offending element within its batch
        /// (`None` for a single-value op).
        index: Option<usize>,
        /// The refused value.
        value: f64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Journal(e) => write!(f, "journal: {e}"),
            ServeError::Io(e) => write!(f, "journal file: {e}"),
            ServeError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            ServeError::InvalidInput {
                field,
                index: Some(i),
                value,
            } => write!(f, "invalid {field} {value} at batch index {i}"),
            ServeError::InvalidInput {
                field,
                index: None,
                value,
            } => write!(f, "invalid {field} {value}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl JournalOp {
    /// Refuses a value outside the API's input domain: an opinion or
    /// an initial reputation not in `[0, 1]` (NaN included), or a
    /// non-finite or negative credit/debit amount (the engine applies
    /// the magnitude, so a negative credit would raise the subject).
    /// Live mutations are checked before they are journalled, and
    /// journal records before they are replayed.
    fn check(&self) -> Result<(), ServeError> {
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        let (field, index, value) = match self {
            JournalOp::Register { initial, .. } if !unit(*initial) => ("initial", None, *initial),
            JournalOp::RegisterBatch { batch } => {
                match batch.iter().position(|&(_, initial)| !unit(initial)) {
                    Some(i) => ("initial", Some(i), batch[i].1),
                    None => return Ok(()),
                }
            }
            JournalOp::Batch { batch } => match batch.iter().position(|f| !unit(f.opinion)) {
                Some(i) => ("opinion", Some(i), batch[i].opinion),
                None => return Ok(()),
            },
            JournalOp::Credit { amount, .. } | JournalOp::Debit { amount, .. }
                if !(amount.is_finite() && *amount >= 0.0) =>
            {
                ("amount", None, *amount)
            }
            _ => return Ok(()),
        };
        Err(ServeError::InvalidInput {
            field,
            index,
            value,
        })
    }
}

/// What [`ReputationService::open`] found in an existing journal (and
/// checkpoint, if one was restored).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Operations replayed from the journal's intact prefix — after a
    /// checkpoint restore this is only the post-checkpoint suffix.
    pub records: u64,
    /// Bytes of intact journal retained.
    pub bytes: u64,
    /// True when a torn final frame was truncated away.
    pub truncated_torn_tail: bool,
    /// Operations whose effects arrived pre-applied inside the
    /// restored checkpoint (0 when no checkpoint was restored).
    pub replayed_from_checkpoint: u64,
    /// Journal generation of the restored checkpoint; 0 means the
    /// engine was rebuilt by full journal replay (checkpoint
    /// generations start at 1).
    pub checkpoint_generation: u64,
}

impl ReplaySummary {
    /// Operations replayed one-by-one from the journal — the
    /// complement of [`ReplaySummary::replayed_from_checkpoint`].
    pub fn replayed_from_journal(&self) -> u64 {
        self.records
    }

    /// True when the engine was restored from a checkpoint rather
    /// than rebuilt from the journal alone.
    pub fn restored_from_checkpoint(&self) -> bool {
        self.checkpoint_generation > 0
    }
}

/// What one [`ReputationService::checkpoint`] call persisted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The journal generation that *follows* this checkpoint (the
    /// checkpoint file stores the same number).
    pub generation: u64,
    /// Cumulative journalled operations captured by the checkpoint.
    pub ops: u64,
    /// Encoded checkpoint size on disk.
    pub bytes: u64,
}

/// The checkpoint file payload, framed by
/// [`replend_wire::write_checkpoint`] (magic + versioned, seed-
/// stamped envelope). Partitions ride as independently wire-encoded
/// blobs so both encode and decode fan out over the thread pool; each
/// blob is one byte run, written to the file in one call on encode
/// and borrowed from the file's bytes on decode.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CheckpointDoc<'a> {
    /// Journal generation after this checkpoint; always ≥ 1.
    generation: u64,
    /// Cumulative journalled operations the state includes.
    ops: u64,
    /// The status policy in force when the checkpoint was taken —
    /// recorded for introspection; the live policy always comes from
    /// the opening config (tier thresholds are read-time
    /// classification, not engine state).
    policy: StatusPolicy,
    /// One wire-encoded [`PartitionCheckpoint`] per engine partition.
    #[serde(borrow)]
    partitions: Vec<ByteRun<'a>>,
}

/// The seed stamped into journal records of generation `generation`.
///
/// Generation 0 (the pre-first-checkpoint journal) uses the service
/// seed itself, so journals written before checkpoints existed replay
/// unchanged. Each compaction advances the generation, and the salted
/// stamp is what makes the compaction crash-window safe: a journal
/// left behind by a crash between checkpoint rename and journal
/// truncation carries the *previous* generation's seed, fails the
/// seed gate, and is discarded — every record in it is already inside
/// the checkpoint.
pub fn journal_seed(seed: u64, generation: u64) -> u64 {
    if generation == 0 {
        seed
    } else {
        splitmix64(salted(seed, generation))
    }
}

/// The checkpoint file that pairs with the journal at `journal`:
/// the same path with `.ckpt` appended.
pub fn checkpoint_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// In-flight checkpoint writes go to this sibling path and are
/// renamed into place only when fully synced; a crash mid-write
/// leaves a `.tmp` orphan that is simply ignored.
fn checkpoint_tmp_path(checkpoint: &Path) -> PathBuf {
    let mut os = checkpoint.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs the directory holding `path`, making a just-renamed file's
/// directory entry durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// The journal tail guarded by the service's write mutex: the writer
/// plus the checkpoint bookkeeping that must move atomically with it.
struct JournalState {
    writer: JournalWriter<File>,
    /// Current journal generation (0 until the first checkpoint).
    generation: u64,
    /// Every journalled op since the service's birth — checkpointed
    /// ops included. Stored in the next checkpoint as its `ops`.
    ops_total: u64,
    /// Ops appended to the current journal generation; drives the
    /// `checkpoint_every` trigger.
    since_checkpoint: u64,
}

/// Where a journalled service checkpoints to.
struct CheckpointSpec {
    path: PathBuf,
    every: Option<u64>,
}

/// The online reputation service. Mutators take `&self` and serialize
/// on the journal lock; reads go straight to the concurrent engine's
/// lock-free snapshot slabs, so the service can be shared across
/// reader threads (`&ReputationService` is `Send + Sync`).
pub struct ReputationService {
    engine: ConcurrentEngine,
    policy: StatusPolicy,
    seed: u64,
    /// `None` for an in-memory (journal-less) service. The mutex is
    /// the WAL tail: it orders append *and* apply, so journal order
    /// is exactly apply order — the replay contract. Checkpointing
    /// holds the same lock, so a checkpoint is a clean cut of the op
    /// stream.
    journal: Option<Mutex<JournalState>>,
    /// Checkpoint destination and cadence; `Some` exactly when
    /// `journal` is.
    checkpoint: Option<CheckpointSpec>,
}

impl ReputationService {
    /// An in-memory service: no durability, same semantics otherwise.
    pub fn in_memory(config: ServeConfig) -> Self {
        ReputationService {
            engine: ConcurrentEngine::new(
                config.params,
                config.num_sm,
                config.partitions,
                config.seed,
            ),
            policy: config.policy,
            seed: config.seed,
            journal: None,
            checkpoint: None,
        }
    }

    /// Opens the service state rooted at the journal `path`: restores
    /// the latest durable checkpoint (at [`checkpoint_path`]) when
    /// one is present and intact, replays the journal — the full log
    /// without a checkpoint, only the post-checkpoint suffix with one
    /// — truncates a torn tail if the last run crashed mid-append,
    /// and attaches the file as the service's write-ahead log.
    ///
    /// The checkpoint fallback ladder, in order:
    ///
    /// 1. intact checkpoint → restore it, replay the journal suffix;
    /// 2. checkpoint absent, torn, or corrupt (bad magic, short file,
    ///    failed decode, invalid state) → full generation-0 journal
    ///    replay;
    /// 3. journal seed says it is a post-compaction suffix but no
    ///    usable checkpoint exists → [`ServeError::Checkpoint`]. A
    ///    partial state must never be served as if it were whole.
    ///
    /// A checkpoint whose seed is not this service's is rejected with
    /// a hard error (rung 3, not rung 2): it is some *other*
    /// service's state, and "fall back" could silently shadow it.
    ///
    /// Both restore and replay run through the same apply path live
    /// mutations use, so the rebuilt engine is byte-identical to the
    /// pre-restart one — the determinism suite pins this. Replay checks
    /// each record against the live API's input domain first and
    /// refuses one outside it with [`ServeError::InvalidInput`].
    pub fn open(config: ServeConfig, path: &Path) -> Result<(Self, ReplaySummary), ServeError> {
        let ckpt_path = checkpoint_path(path);
        let mut summary = ReplaySummary::default();
        let generation;
        let mut service = match Self::load_checkpoint(&ckpt_path, &config)? {
            Some((engine, doc_generation, ops)) => {
                generation = doc_generation;
                summary.replayed_from_checkpoint = ops;
                summary.checkpoint_generation = doc_generation;
                ReputationService {
                    engine,
                    policy: config.policy,
                    seed: config.seed,
                    journal: None,
                    checkpoint: None,
                }
            }
            None => {
                generation = 0;
                Self::in_memory(config)
            }
        };

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;

        let stamp = journal_seed(config.seed, generation);
        let mut reader = JournalReader::new(BufReader::new(&mut file), stamp);
        // Set when the journal predates the checkpoint (crash between
        // checkpoint rename and journal truncation): every record in
        // it is already inside the restored state, so the whole file
        // is dropped and the interrupted compaction completed.
        let mut stale = false;
        loop {
            match reader.next::<JournalOp>() {
                Ok(Some(op)) => {
                    op.check()?;
                    service.apply(&op);
                    summary.records += 1;
                }
                Ok(None) => break,
                Err(JournalError::SeedMismatch { found, .. })
                    if generation > 0
                        && summary.records == 0
                        && found == journal_seed(config.seed, generation - 1) =>
                {
                    stale = true;
                    break;
                }
                Err(JournalError::SeedMismatch { expected, found }) if generation == 0 => {
                    return Err(ServeError::Checkpoint(format!(
                        "journal records carry seed {found:#018x} instead of the \
                         generation-0 seed {expected:#018x}: the journal is a \
                         post-compaction suffix but no usable checkpoint was found \
                         at {}; refusing to replay a partial history",
                        ckpt_path.display()
                    )));
                }
                Err(e) => return Err(e.into()),
            }
        }
        summary.bytes = if stale { 0 } else { reader.consumed() };
        summary.truncated_torn_tail = !stale && reader.torn_tail();
        if stale || summary.truncated_torn_tail {
            // Torn tail: the op was journalled but never applied
            // (append happens first and flushes); dropping it loses
            // nothing the engine ever saw. Stale generation: finish
            // the truncation the crashed run never got to.
            file.set_len(summary.bytes)?;
        }
        file.seek(SeekFrom::Start(summary.bytes))?;
        if stale {
            file.sync_all()?;
        }
        service.journal = Some(Mutex::new(JournalState {
            writer: JournalWriter::with_policy(file, stamp, config.journal_sync),
            generation,
            ops_total: summary.replayed_from_checkpoint + summary.records,
            since_checkpoint: summary.records,
        }));
        service.checkpoint = Some(CheckpointSpec {
            path: ckpt_path,
            every: config.checkpoint_every,
        });
        Ok((service, summary))
    }

    /// Reads and validates the checkpoint at `path`. `Ok(None)` means
    /// "no usable checkpoint, full replay is safe" (absent, torn, or
    /// corrupt file); hard errors are reserved for checkpoints that
    /// must not be silently ignored (wrong seed, wrong shape, wrong
    /// protocol version).
    #[allow(clippy::type_complexity)]
    fn load_checkpoint(
        path: &Path,
        config: &ServeConfig,
    ) -> Result<Option<(ConcurrentEngine, u64, u64)>, ServeError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (seed, doc) = match decode_checkpoint::<CheckpointDoc>(&bytes) {
            Ok(decoded) => decoded,
            Err(WireError::VersionMismatch { expected, found }) => {
                return Err(ServeError::Checkpoint(format!(
                    "checkpoint {} was written by wire protocol v{found}, this build \
                     speaks v{expected}",
                    path.display()
                )));
            }
            // Torn or corrupt bytes: bad magic, short file, trailing
            // garbage, failed payload decode. The journal still holds
            // the full generation-0 history in this situation.
            Err(_) => return Ok(None),
        };
        if seed != config.seed {
            return Err(ServeError::Checkpoint(format!(
                "checkpoint {} carries seed {seed:#018x}, service uses {:#018x}: \
                 this is a different service's state",
                path.display(),
                config.seed
            )));
        }
        if doc.generation == 0 {
            // Generations start at 1; a zero can only be corruption
            // that happened to decode.
            return Ok(None);
        }
        if doc.partitions.len() != config.partitions {
            return Err(ServeError::Checkpoint(format!(
                "checkpoint {} holds {} partition(s), config asks for {}: partition \
                 count cannot change across a restore",
                path.display(),
                doc.partitions.len(),
                config.partitions
            )));
        }
        // Each blob is decoded in its import task, so its decoded
        // partition is freed once the partition is built. A blob that
        // does not decode is refused like invalid state.
        let imported = ConcurrentEngine::import_partitions_with(doc.partitions.len(), |i| {
            replend_wire::from_bytes::<PartitionCheckpoint>(doc.partitions[i].0)
                .map_err(|e| InvalidState(format!("partition {i} does not decode: {e}")))
        });
        match imported {
            Ok(engine) => Ok(Some((engine, doc.generation, doc.ops))),
            // Well-framed but undecodable or semantically invalid
            // state — treat as corrupt and fall back.
            Err(_) => Ok(None),
        }
    }

    /// The underlying concurrent engine, for read fan-out.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    fn apply(&self, op: &JournalOp) {
        match op {
            JournalOp::Register { peer, initial } => {
                self.engine.register_peer(*peer, Reputation::new(*initial));
            }
            JournalOp::Remove { peer } => self.engine.remove_peer(*peer),
            JournalOp::Batch { batch } => self.engine.report_batch(batch),
            JournalOp::Credit { subject, amount } => self.engine.credit(*subject, *amount),
            JournalOp::Debit { subject, amount } => self.engine.debit(*subject, *amount),
            JournalOp::RegisterBatch { batch } => {
                let batch: Vec<(PeerId, Reputation)> = batch
                    .iter()
                    .map(|&(peer, initial)| (peer, Reputation::new(initial)))
                    .collect();
                self.engine.register_batch(&batch);
            }
        }
    }

    /// Check, journal, then apply. Holding the journal lock across the
    /// last two steps makes journal order identical to apply order;
    /// the `checkpoint_every` trigger fires here, under the same lock,
    /// so an auto-checkpoint is a clean cut of the op stream.
    fn mutate(&self, op: JournalOp) -> Result<(), ServeError> {
        op.check()?;
        match &self.journal {
            Some(journal) => {
                let mut state = journal.lock().expect("journal lock poisoned");
                state.writer.append(&op)?;
                self.apply(&op);
                state.ops_total += 1;
                state.since_checkpoint += 1;
                if let Some(spec) = &self.checkpoint {
                    if spec.every.is_some_and(|n| state.since_checkpoint >= n) {
                        self.write_checkpoint(&mut state, &spec.path)?;
                    }
                }
            }
            None => self.apply(&op),
        }
        Ok(())
    }

    /// Persists a checkpoint of the full engine state and compacts
    /// the journal to empty. Requires a journalled service.
    ///
    /// The sequence is crash-safe at every cut: sync the journal
    /// (group-commit buffers included), export every partition under
    /// its read lock, encode partition-parallel, write to a temp
    /// file, fsync, rename over the previous checkpoint, fsync the
    /// directory — and only *then* truncate the journal and advance
    /// its seed generation. The journal is never shortened before the
    /// checkpoint that supersedes it is durable.
    pub fn checkpoint(&self) -> Result<CheckpointReport, ServeError> {
        let (journal, spec) = match (&self.journal, &self.checkpoint) {
            (Some(journal), Some(spec)) => (journal, spec),
            _ => {
                return Err(ServeError::Checkpoint(
                    "an in-memory service has no checkpoint file".into(),
                ))
            }
        };
        let mut state = journal.lock().expect("journal lock poisoned");
        self.write_checkpoint(&mut state, &spec.path)
    }

    /// The checkpoint sequence, under the (held) journal lock.
    fn write_checkpoint(
        &self,
        state: &mut JournalState,
        path: &Path,
    ) -> Result<CheckpointReport, ServeError> {
        state.writer.sync()?;
        // Each partition is encoded in its export task, so its
        // exported vectors are freed once its blob exists.
        let blobs = self
            .engine
            .export_partitions_with(|part| replend_wire::to_bytes(&part))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServeError::Checkpoint(format!("encoding a partition failed: {e}")))?;
        let doc = CheckpointDoc {
            generation: state.generation + 1,
            ops: state.ops_total,
            policy: self.policy,
            partitions: blobs.iter().map(|blob| ByteRun(blob)).collect(),
        };

        // Framed straight into the file: no buffer of the whole file.
        let tmp = checkpoint_tmp_path(path);
        let bytes = {
            let mut file = BufWriter::new(File::create(&tmp)?);
            let bytes = write_checkpoint(&mut file, self.seed, &doc)?;
            file.get_ref().sync_all()?;
            bytes
        };
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;

        // The checkpoint is durable and contains every journalled op
        // (taken under the journal lock, after sync). Compact: empty
        // the journal and move to the next seed generation, so a
        // journal that survives a crash in this window is detectably
        // stale rather than silently double-applied.
        let file = state.writer.get_mut();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.sync_all()?;
        state.generation += 1;
        state.since_checkpoint = 0;
        let generation = state.generation;
        state.writer.set_seed(journal_seed(self.seed, generation));
        Ok(CheckpointReport {
            generation,
            ops: state.ops_total,
            bytes,
        })
    }

    /// Registers a subject (journalled). Idempotent.
    pub fn register_peer(&self, peer: PeerId, initial: Reputation) -> Result<(), ServeError> {
        self.mutate(JournalOp::Register {
            peer,
            initial: initial.value(),
        })
    }

    /// Registers a batch of subjects in bulk (journalled as **one**
    /// record): per partition, one write-lock acquisition and one
    /// snapshot-epoch publish for the whole batch. Equivalent to —
    /// and bit-identical with — a [`ReputationService::register_peer`]
    /// loop, minus a journal frame and an epoch bump per peer.
    /// Idempotent per peer, like `register_peer`.
    pub fn register_batch(&self, batch: &[(PeerId, Reputation)]) -> Result<(), ServeError> {
        self.mutate(JournalOp::RegisterBatch {
            batch: batch
                .iter()
                .map(|&(peer, initial)| (peer, initial.value()))
                .collect(),
        })
    }

    /// Removes a subject (journalled).
    pub fn remove_peer(&self, peer: PeerId) -> Result<(), ServeError> {
        self.mutate(JournalOp::Remove { peer })
    }

    /// Ingests a feedback batch (journalled as one record). Refuses
    /// the whole batch with [`ServeError::InvalidInput`] when any
    /// opinion lies outside `[0, 1]`.
    pub fn report_batch(&self, batch: &[Feedback]) -> Result<(), ServeError> {
        self.mutate(JournalOp::Batch {
            batch: batch.to_vec(),
        })
    }

    /// Raises `subject`'s reputation (journalled). A non-finite or
    /// negative `amount` is refused with [`ServeError::InvalidInput`].
    pub fn credit(&self, subject: PeerId, amount: f64) -> Result<(), ServeError> {
        self.mutate(JournalOp::Credit { subject, amount })
    }

    /// Lowers `subject`'s reputation (journalled). A non-finite or
    /// negative `amount` is refused with [`ServeError::InvalidInput`].
    pub fn debit(&self, subject: PeerId, amount: f64) -> Result<(), ServeError> {
        self.mutate(JournalOp::Debit { subject, amount })
    }

    /// The aggregate reputation of `subject` — a lock-free,
    /// epoch-validated snapshot read; never waits on ingest.
    pub fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.engine.reputation(subject)
    }

    /// The subject's operational tier, classified from a coherent
    /// lock-free `(reputation, interactions)` snapshot read.
    pub fn status(&self, subject: PeerId) -> Option<SubjectStatus> {
        let (reputation, observations) = self.engine.observe(subject)?;
        Some(self.policy.classify(reputation, observations))
    }

    /// Registered subjects.
    pub fn subjects(&self) -> usize {
        self.engine.len()
    }

    /// Counts subjects per status tier in one sweep.
    pub fn status_census(&self) -> StatusCensus {
        let mut census = StatusCensus::default();
        let policy = self.policy;
        self.engine.for_each_subject(|_, reputation, observations| {
            match policy.classify(reputation, observations) {
                SubjectStatus::Whitelisted => census.whitelisted += 1,
                SubjectStatus::Throttled => census.throttled += 1,
                SubjectStatus::Banned => census.banned += 1,
            }
        });
        census
    }
}

/// Subjects per tier, from [`ReputationService::status_census`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusCensus {
    /// Subjects at full service.
    pub whitelisted: u64,
    /// Subjects rate-limited.
    pub throttled: u64,
    /// Subjects refused.
    pub banned: u64,
}

impl StatusCensus {
    /// All subjects counted.
    pub fn total(&self) -> u64 {
        self.whitelisted + self.throttled + self.banned
    }
}

/// Shape of the synthetic serve workload: `subjects` peers (a
/// deterministic mix of honest and lying reporters), `rounds` ingest
/// batches of `batch` opinions each, with `readers` threads issuing
/// reputation/status probes for the whole ingest window.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Subjects registered up front.
    pub subjects: u64,
    /// Ingest batches to apply.
    pub rounds: u64,
    /// Opinions per batch.
    pub batch: usize,
    /// Concurrent reader threads (0 = ingest only).
    pub readers: usize,
    /// Workload seed (reporter/subject/opinion selection); independent
    /// of the engine seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            subjects: 10_000,
            rounds: 100,
            batch: 1_000,
            readers: 2,
            seed: 1,
        }
    }
}

/// What [`run_ingest_workload`] did. Engine state is a deterministic
/// function of (engine seed, workload config); `reads` is a load
/// metric and varies with scheduling.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadReport {
    /// Subjects registered (pre-existing subjects are kept).
    pub registered: u64,
    /// Opinions ingested (`rounds × batch`).
    pub feedback: u64,
    /// Reputation/status probes completed by the reader threads while
    /// ingest was running.
    pub reads: u64,
    /// Tier census after the final batch.
    pub census: StatusCensus,
}

/// Deterministic opinion for `reporter` about `subject` at `round`:
/// roughly 70 % of subjects behave well (mostly 1-opinions), the rest
/// draw mostly 0s, so the census populates every tier.
fn synthetic_opinion(seed: u64, reporter: u64, subject: u64, round: u64) -> f64 {
    let honest = splitmix64(salted(seed, subject)) % 10 < 7;
    let noise = splitmix64(salted(
        seed,
        reporter ^ (round << 32) ^ subject.rotate_left(17),
    )) % 10;
    let positive = if honest { noise < 9 } else { noise < 2 };
    if positive {
        1.0
    } else {
        0.0
    }
}

/// The service loop: registers `cfg.subjects` subjects, then applies
/// `cfg.rounds` synthetic feedback batches while `cfg.readers`
/// threads continuously probe `reputation()` + `status()` against the
/// live service. This is exactly what `replend serve` runs.
///
/// The ingest stream (and therefore the final engine state) is fully
/// deterministic; the read count is not.
pub fn run_ingest_workload(
    service: &ReputationService,
    cfg: WorkloadConfig,
) -> Result<WorkloadReport, ServeError> {
    let mut report = WorkloadReport::default();
    if cfg.subjects > 0 {
        // Bulk registration: one journal record and one epoch window
        // per partition, instead of a frame + flush per subject.
        let batch: Vec<(PeerId, Reputation)> = (0..cfg.subjects)
            .map(|s| (PeerId(s), Reputation::new(0.5)))
            .collect();
        service.register_batch(&batch)?;
        report.registered = cfg.subjects;
    }

    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let ingest_result: Mutex<Result<u64, ServeError>> = Mutex::new(Ok(0));

    std::thread::scope(|scope| {
        for r in 0..cfg.readers {
            let stop = &stop;
            let reads = &reads;
            scope.spawn(move || {
                let mut probe = splitmix64(salted(cfg.seed, r as u64 + 1));
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let subject = PeerId(probe % cfg.subjects.max(1));
                    // Both read entry points: the O(1) aggregate and
                    // the tier classification.
                    let rep = service.reputation(subject);
                    let status = service.status(subject);
                    debug_assert_eq!(rep.is_some(), status.is_some());
                    local += 2;
                    probe = splitmix64(probe);
                    // Publish periodically, not just at exit, so the
                    // ingest thread can observe read progress while
                    // this reader is still running (see the wait
                    // below).
                    if local >= 128 {
                        reads.fetch_add(local, Ordering::Relaxed);
                        local = 0;
                    }
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }

        let mut batch = Vec::with_capacity(cfg.batch);
        let mut applied = 0u64;
        let outcome = (|| -> Result<(), ServeError> {
            for round in 0..cfg.rounds {
                batch.clear();
                for i in 0..cfg.batch as u64 {
                    let k = splitmix64(salted(cfg.seed, round * cfg.batch as u64 + i));
                    let reporter = k % cfg.subjects.max(1);
                    let subject = splitmix64(k) % cfg.subjects.max(1);
                    batch.push(Feedback::new(
                        PeerId(reporter),
                        PeerId(subject),
                        synthetic_opinion(cfg.seed, reporter, subject, round),
                    ));
                }
                service.report_batch(&batch)?;
                applied += batch.len() as u64;
            }
            Ok(())
        })();
        // A short ingest on a saturated host can finish before any
        // reader thread gets a timeslice; the workload's contract is
        // reads *against the live service*, so hold the service live
        // until the readers have made progress (they publish every 64
        // probes). Bounded: the OS preempts this yield loop in favour
        // of the spawned readers.
        if cfg.readers > 0 {
            while reads.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        *ingest_result.lock().expect("ingest result lock poisoned") = outcome.map(|()| applied);
    });

    report.feedback = ingest_result
        .into_inner()
        .expect("ingest result lock poisoned")?;
    report.reads = reads.into_inner();
    report.census = service.status_census();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig {
            partitions: 4,
            seed: 77,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn status_policy_tiers() {
        let p = StatusPolicy::default();
        assert!(p.validate().is_ok());
        // Below the evidence floor: always whitelisted.
        assert_eq!(
            p.classify(Reputation::new(0.0), 9),
            SubjectStatus::Whitelisted
        );
        // With evidence: banned / throttled / whitelisted by value.
        assert_eq!(p.classify(Reputation::new(0.1), 10), SubjectStatus::Banned);
        assert_eq!(
            p.classify(Reputation::new(0.3), 10),
            SubjectStatus::Throttled
        );
        assert_eq!(
            p.classify(Reputation::new(0.8), 10),
            SubjectStatus::Whitelisted
        );
        // Boundaries are strict `<`.
        assert_eq!(
            p.classify(Reputation::new(0.2), 10),
            SubjectStatus::Throttled
        );
        assert_eq!(
            p.classify(Reputation::new(0.5), 10),
            SubjectStatus::Whitelisted
        );
        let bad = StatusPolicy {
            ban_below: 0.8,
            throttle_below: 0.5,
            ..p
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn in_memory_service_serves_status() {
        let service = ReputationService::in_memory(config());
        assert!(service.journal.is_none());
        service
            .register_peer(PeerId(1), Reputation::new(0.9))
            .unwrap();
        service
            .register_peer(PeerId(2), Reputation::new(0.9))
            .unwrap();
        assert_eq!(service.status(PeerId(1)), Some(SubjectStatus::Whitelisted));
        // Pile on negative evidence until peer 1 crosses the ban line.
        let batch: Vec<Feedback> = (0..12)
            .map(|_| Feedback::new(PeerId(2), PeerId(1), 0.0))
            .collect();
        for _ in 0..20 {
            service.report_batch(&batch).unwrap();
        }
        assert_eq!(service.status(PeerId(1)), Some(SubjectStatus::Banned));
        assert_eq!(service.status(PeerId(99)), None);
        let census = service.status_census();
        assert_eq!(census.total(), 2);
        assert_eq!(census.banned, 1);
    }

    #[test]
    fn workload_reads_run_against_live_ingest() {
        let service = ReputationService::in_memory(config());
        let report = run_ingest_workload(
            &service,
            WorkloadConfig {
                subjects: 200,
                rounds: 20,
                batch: 100,
                readers: 2,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(report.registered, 200);
        assert_eq!(report.feedback, 2_000);
        assert!(report.reads > 0, "readers made progress during ingest");
        assert_eq!(report.census.total(), 200);
        assert!(
            report.census.banned > 0 && report.census.whitelisted > 0,
            "synthetic mix populates multiple tiers: {:?}",
            report.census
        );
    }

    /// Point reads agree with the census sweep: reputation bits and
    /// the tier of each swept pair.
    #[test]
    fn point_reads_agree_with_sweep() {
        let service = ReputationService::in_memory(config());
        run_ingest_workload(
            &service,
            WorkloadConfig {
                subjects: 120,
                rounds: 8,
                batch: 60,
                readers: 0,
                seed: 13,
            },
        )
        .unwrap();
        let bits = |r: Reputation| r.value().to_bits();
        let mut swept = 0;
        service
            .engine
            .for_each_subject(|subject, reputation, observations| {
                swept += 1;
                assert_eq!(
                    service.reputation(subject).map(bits),
                    Some(bits(reputation))
                );
                assert_eq!(
                    service.status(subject),
                    Some(service.policy.classify(reputation, observations))
                );
            });
        assert_eq!(swept, 120);
    }

    #[test]
    fn group_commit_restart_matches_always_sync() {
        let dir = std::env::temp_dir().join(format!("replend-serve-gc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |name: &str, sync: SyncPolicy| {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            let cfg = ServeConfig {
                journal_sync: sync,
                ..config()
            };
            {
                let (service, _) = ReputationService::open(cfg, &path).unwrap();
                run_ingest_workload(
                    &service,
                    WorkloadConfig {
                        subjects: 90,
                        rounds: 6,
                        batch: 50,
                        readers: 0,
                        seed: 21,
                    },
                )
                .unwrap();
                // Dropping the service's journal flushes the tail.
            }
            let (reopened, summary) = ReputationService::open(cfg, &path).unwrap();
            assert!(!summary.truncated_torn_tail);
            let mut state: Vec<(u64, u64, u64)> = Vec::new();
            reopened
                .engine()
                .for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
            state.sort_unstable();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            (state, bytes)
        };
        let (always_state, always_bytes) = run("always.journal", SyncPolicy::Always);
        let (batch_state, batch_bytes) = run("batch.journal", SyncPolicy::Batch(32));
        // Group commit changes when bytes are flushed, never which
        // bytes: identical log, identical replayed state.
        assert_eq!(always_bytes, batch_bytes);
        assert_eq!(always_state, batch_state);
        let _ = std::fs::remove_dir(&dir);
    }

    /// Fresh scratch directory unique to (test, process).
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("replend-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sorted `(peer, reputation bits, applied reports)` — the full
    /// observable read state.
    fn fingerprint(service: &ReputationService) -> Vec<(u64, u64, u64)> {
        let mut state = Vec::new();
        service
            .engine()
            .for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
        state.sort_unstable();
        state
    }

    fn small_workload(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            subjects: 80,
            rounds: 6,
            batch: 40,
            readers: 0,
            seed,
        }
    }

    #[test]
    fn bulk_register_journals_one_record() {
        let dir = scratch("bulk");
        let path = dir.join("svc.journal");
        let batch: Vec<(PeerId, Reputation)> = (0..50u64)
            .map(|s| (PeerId(s), Reputation::new(0.5)))
            .collect();
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            service.register_batch(&batch).unwrap();
        }
        let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
        assert_eq!(summary.records, 1, "one frame for the whole batch");
        assert_eq!(reopened.subjects(), 50);

        // Bit-identical to the per-peer loop.
        let looped = ReputationService::in_memory(config());
        for &(p, r) in &batch {
            looped.register_peer(p, r).unwrap();
        }
        assert_eq!(fingerprint(&looped), fingerprint(&reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_restart_matches_full_replay_and_compacts() {
        let dir = scratch("ckpt");
        let path = dir.join("svc.journal");
        // Reference: the same op stream with no checkpoint anywhere.
        let reference = ReputationService::in_memory(config());
        run_ingest_workload(&reference, small_workload(21)).unwrap();
        run_ingest_workload(&reference, small_workload(22)).unwrap();

        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            run_ingest_workload(&service, small_workload(21)).unwrap();
            let report = service.checkpoint().unwrap();
            assert_eq!(report.generation, 1);
            assert_eq!(report.ops, 1 + 6, "one bulk register + six batches");
            // Compaction: the journal is empty once the checkpoint is
            // durable.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
            assert!(checkpoint_path(&path).exists());
            // The suffix.
            run_ingest_workload(&service, small_workload(22)).unwrap();
        }

        let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
        assert!(summary.restored_from_checkpoint());
        assert_eq!(summary.checkpoint_generation, 1);
        assert_eq!(summary.replayed_from_checkpoint, 7);
        assert_eq!(summary.replayed_from_journal(), 7, "suffix only");
        assert_eq!(fingerprint(&reopened), fingerprint(&reference));

        // The restart composes: further identical ops land on
        // identical bits.
        run_ingest_workload(&reopened, small_workload(23)).unwrap();
        run_ingest_workload(&reference, small_workload(23)).unwrap();
        assert_eq!(fingerprint(&reopened), fingerprint(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_corrupt_checkpoint_falls_back_to_full_replay() {
        let dir = scratch("torn-ckpt");
        let path = dir.join("svc.journal");
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            run_ingest_workload(&service, small_workload(31)).unwrap();
        }
        let reference = ReputationService::in_memory(config());
        run_ingest_workload(&reference, small_workload(31)).unwrap();

        // A valid checkpoint taken against a copy of the same journal
        // gives us realistic bytes to tear.
        let twin = dir.join("twin.journal");
        std::fs::copy(&path, &twin).unwrap();
        {
            let (twin_svc, _) = ReputationService::open(config(), &twin).unwrap();
            twin_svc.checkpoint().unwrap();
        }
        let valid = std::fs::read(checkpoint_path(&twin)).unwrap();

        for (label, bytes) in [
            ("garbage", b"not a checkpoint".to_vec()),
            ("torn early", valid[..3].to_vec()),
            ("torn mid-payload", valid[..valid.len() * 2 / 3].to_vec()),
            ("trailing garbage", [&valid[..], b"x"].concat()),
        ] {
            std::fs::write(checkpoint_path(&path), &bytes).unwrap();
            let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
            assert!(
                !summary.restored_from_checkpoint(),
                "{label}: must fall back to full replay"
            );
            assert_eq!(summary.records, 7, "{label}");
            assert_eq!(fingerprint(&reopened), fingerprint(&reference), "{label}");
        }

        // An orphaned temp file from a crash mid-write is ignored.
        std::fs::remove_file(checkpoint_path(&path)).unwrap();
        std::fs::write(checkpoint_tmp_path(&checkpoint_path(&path)), &valid).unwrap();
        let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
        assert!(!summary.restored_from_checkpoint());
        assert_eq!(fingerprint(&reopened), fingerprint(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A well-framed checkpoint whose envelope, seed, generation and
    /// partition count all pass, but whose one partition blob fails:
    /// either it does not decode, or it decodes and the import refuses
    /// it as invalid state. Whichever partition it is, `open` falls
    /// back to a full journal replay.
    #[test]
    fn one_failing_partition_blob_falls_back_to_full_replay() {
        let dir = scratch("bad-blob");
        let path = dir.join("svc.journal");
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            run_ingest_workload(&service, small_workload(33)).unwrap();
        }
        let reference = ReputationService::in_memory(config());
        run_ingest_workload(&reference, small_workload(33)).unwrap();

        let twin = dir.join("twin.journal");
        std::fs::copy(&path, &twin).unwrap();
        {
            let (twin_svc, _) = ReputationService::open(config(), &twin).unwrap();
            twin_svc.checkpoint().unwrap();
        }
        let valid = std::fs::read(checkpoint_path(&twin)).unwrap();
        let (seed, doc) = decode_checkpoint::<CheckpointDoc>(&valid).unwrap();
        let last = doc.partitions.len() - 1;
        assert_eq!(last, 3);

        for victim in [0, 1, last] {
            // One subject without its slab row: the blob decodes, but
            // the import refuses it.
            let mut parts: Vec<PartitionCheckpoint> = doc
                .partitions
                .iter()
                .map(|blob| replend_wire::from_bytes(blob.0).unwrap())
                .collect();
            assert!(
                parts[victim].slab.pop().is_some(),
                "partition {victim} is empty"
            );
            assert!(ConcurrentEngine::import_partitions(&parts).is_err());
            let refused = replend_wire::to_bytes(&parts[victim]).unwrap();
            for (label, blob) in [
                ("undecodable", &b"not a partition"[..]),
                ("invalid state", &refused[..]),
            ] {
                let mut bad = doc.clone();
                bad.partitions[victim] = ByteRun(blob);
                let bytes = replend_wire::encode_checkpoint(seed, &bad).unwrap();
                std::fs::write(checkpoint_path(&path), &bytes).unwrap();
                let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
                let context = format!("{label} blob in partition {victim}");
                assert!(!summary.restored_from_checkpoint(), "{context}");
                assert_eq!(summary.records, 7, "{context}: the whole journal");
                assert_eq!(fingerprint(&reopened), fingerprint(&reference), "{context}");
            }
        }

        // The untouched document restores, so each failure above was
        // the one bad blob's.
        let bytes = replend_wire::encode_checkpoint(seed, &doc).unwrap();
        assert_eq!(bytes, valid);
        std::fs::write(checkpoint_path(&path), &bytes).unwrap();
        let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
        assert!(summary.restored_from_checkpoint());
        assert_eq!(fingerprint(&reopened), fingerprint(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint file is the bytes `encode_checkpoint` makes of
    /// the service's document, and its report counts them.
    #[test]
    fn streamed_checkpoint_equals_the_encoded_document() {
        let dir = scratch("streamed");
        let path = dir.join("svc.journal");
        let cfg = ServeConfig {
            partitions: 8,
            ..config()
        };
        let (service, _) = ReputationService::open(cfg, &path).unwrap();
        run_ingest_workload(&service, small_workload(61)).unwrap();
        service.remove_peer(PeerId(5)).unwrap();
        service.credit(PeerId(6), 0.25).unwrap();
        service.debit(PeerId(7), 0.125).unwrap();
        let report = service.checkpoint().unwrap();

        let blobs: Vec<Vec<u8>> = service
            .engine()
            .export_partitions()
            .iter()
            .map(|part| replend_wire::to_bytes(part).unwrap())
            .collect();
        assert!(
            blobs.iter().all(|blob| blob.len() > 64),
            "every partition holds state"
        );
        let doc = CheckpointDoc {
            generation: report.generation,
            ops: report.ops,
            policy: cfg.policy,
            partitions: blobs.iter().map(|blob| ByteRun(blob)).collect(),
        };
        let file = std::fs::read(checkpoint_path(&path)).unwrap();
        assert_eq!(
            file,
            replend_wire::encode_checkpoint(cfg.seed, &doc).unwrap()
        );
        assert_eq!(report.bytes, file.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_journal_is_discarded_after_rename_crash() {
        let dir = scratch("stale-gen");
        let path = dir.join("svc.journal");
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            run_ingest_workload(&service, small_workload(41)).unwrap();
        }
        let generation0 = std::fs::read(&path).unwrap();
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            service.checkpoint().unwrap();
        }
        // Crash window: the checkpoint rename landed but the journal
        // truncation never ran — the full generation-0 journal is
        // still on disk, every record of it inside the checkpoint.
        std::fs::write(&path, &generation0).unwrap();

        let (reopened, summary) = ReputationService::open(config(), &path).unwrap();
        assert!(summary.restored_from_checkpoint());
        assert_eq!(summary.records, 0, "stale journal replays nothing");
        assert_eq!(summary.bytes, 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "interrupted compaction is completed on open"
        );
        let reference = ReputationService::in_memory(config());
        run_ingest_workload(&reference, small_workload(41)).unwrap();
        assert_eq!(fingerprint(&reopened), fingerprint(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_seed_checkpoint_and_orphan_suffix_are_hard_errors() {
        let dir = scratch("hard-errors");
        let path = dir.join("svc.journal");
        {
            let (service, _) = ReputationService::open(config(), &path).unwrap();
            run_ingest_workload(&service, small_workload(51)).unwrap();
            service.checkpoint().unwrap();
            // A post-checkpoint suffix.
            service
                .register_peer(PeerId(900), Reputation::new(0.5))
                .unwrap();
        }

        // Wrong service seed: the checkpoint decodes fine but is some
        // other service's state — refuse, don't "fall back".
        let foreign = ServeConfig {
            seed: config().seed + 1,
            ..config()
        };
        match ReputationService::open(foreign, &path) {
            Err(ServeError::Checkpoint(m)) => assert!(m.contains("seed"), "{m}"),
            Err(other) => panic!("expected a checkpoint seed error, got {other}"),
            Ok(_) => panic!("a foreign-seed checkpoint must not open"),
        }

        // Checkpoint gone but the journal is a generation-1 suffix:
        // replaying it alone would serve a partial history.
        std::fs::remove_file(checkpoint_path(&path)).unwrap();
        match ReputationService::open(config(), &path) {
            Err(ServeError::Checkpoint(m)) => assert!(m.contains("suffix"), "{m}"),
            Err(other) => panic!("expected a missing-checkpoint error, got {other}"),
            Ok(_) => panic!("an orphaned suffix journal must not open"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_fires_on_cadence() {
        let dir = scratch("auto-ckpt");
        let path = dir.join("svc.journal");
        let cfg = ServeConfig {
            checkpoint_every: Some(3),
            ..config()
        };
        {
            let (service, _) = ReputationService::open(cfg, &path).unwrap();
            for s in 0..5u64 {
                service
                    .register_peer(PeerId(s), Reputation::new(0.5))
                    .unwrap();
            }
        }
        let (reopened, summary) = ReputationService::open(cfg, &path).unwrap();
        assert_eq!(summary.checkpoint_generation, 1, "cadence hit at op 3");
        assert_eq!(summary.replayed_from_checkpoint, 3);
        assert_eq!(summary.records, 2, "ops 4 and 5 stay in the journal");
        assert_eq!(reopened.subjects(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_final_state_is_deterministic() {
        let fingerprint = |readers: usize| {
            let service = ReputationService::in_memory(config());
            run_ingest_workload(
                &service,
                WorkloadConfig {
                    subjects: 150,
                    rounds: 10,
                    batch: 80,
                    readers,
                    seed: 9,
                },
            )
            .unwrap();
            let mut state: Vec<(u64, u64, u64)> = Vec::new();
            service
                .engine()
                .for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
            state.sort_unstable();
            state
        };
        // Reader pressure must not perturb the engine state.
        assert_eq!(fingerprint(0), fingerprint(3));
    }
}
