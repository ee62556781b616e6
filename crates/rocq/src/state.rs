//! Serialisable engine state for checkpointed restarts.
//!
//! The serve layer bounds restart cost with checkpoints: instead of
//! replaying the whole write-ahead journal, it restores the engine
//! from a recent [`EngineState`] snapshot and replays only the
//! journal suffix written after it. That makes the export/import pair
//! here a **correctness boundary**: the restored engine must be
//! *bit-identical* to the engine that was exported — not just
//! equal-looking aggregates, but identical future behaviour under any
//! further operation stream, because the suffix replay (and
//! everything after it) must land on the same bits a full from-scratch
//! replay would produce.
//!
//! ## Derive, don't store
//!
//! Restart cost is dominated by decoding and rebuilding the
//! checkpoint, so the format stores only what cannot be recomputed:
//!
//! * **Membership is never stored.** A peer is a member exactly while
//!   it is a live subject, so the subject index below is the member
//!   registry; a partition-set checkpoint's membership is the union of
//!   its partitions' subjects.
//! * **Registration incarnations are never stored.** A book row's
//!   interaction count is tagged with the reporter's incarnation, and
//!   only the tag's equality with the reporter's *current* incarnation
//!   is observable. Export writes each row's count as the reporter
//!   would read it — 0 when the tag is stale — and import tags every
//!   row and every live subject with one fixed incarnation, so equal
//!   state still encodes to equal bytes.
//! * **The overlay is stored only where it exists.** The simulated
//!   overlay (ring, replica-key index, re-home counters) can change a
//!   value only through a crash loss with no sibling to recover from,
//!   so an engine keeps one exactly when `params.crash_prob > 0` and
//!   `num_sm == 1`, and [`EngineState::overlay`] is `Some` exactly
//!   then — import refuses a state where the two disagree, a crash-on
//!   `num_sm > 1` state carrying an overlay included. Import also
//!   refuses a ring that is not exactly the live subjects' node ids
//!   and a non-zero re-home counter on a vacant handle: either would
//!   silently change future crash rolls.
//! * **Replica keys and the key index are never stored.** A replica's
//!   ring key is the pure function `replica_key(subject, 0)`, and
//!   import rebuilds the `(key, handle)` index from it. Even when two
//!   subjects collide on one 64-bit key, the order of their handles is
//!   unobservable: different subjects' crash recoveries touch disjoint
//!   state. Replica hosts are not modelled at all: nothing reads which
//!   node manages a replica.
//! * **One score lane and one credibility per row.** A subject's
//!   `num_sm` replicas see the same report stream with the same
//!   credibilities, and crash recovery copies a sibling that is
//!   already bit-equal, so the replicas never differ and the engine
//!   holds one `(r, w)` lane per handle and one credibility per book
//!   row. Export writes exactly those. The
//!   [`ShardState::slab_uniform`] and [`ShardState::book_row_uniform`]
//!   bitmaps, which once flagged lanes and rows packed to one value,
//!   are kept for format stability: export sets every bit, and import
//!   refuses a cleared one, since no engine can produce it.
//! * **Vacant-slot residue is canonicalised, not exported.** The
//!   registration slot-reuse path overwrites every per-handle field
//!   before any read (cached, peer, book, score lanes — see
//!   `RocqEngine::register_peer`; removal zeroes a slot's re-home
//!   counter), so vacant slots export as zeros / empty and import as
//!   the same canonical residue. The *slot assignment itself* is observable through
//!   future recycling, which is why the free list is exported in
//!   release order and restored verbatim: the restored engine
//!   recycles slots in the same LIFO order the original would have.
//!
//! ## Invariants the format preserves
//!
//! * **Hash-keyed maps are exported sorted** (subject index,
//!   credibility rows) so the encoded
//!   bytes are canonical — two exports of the same engine state are
//!   byte-identical, which lets tests fingerprint a checkpoint.
//!   Iteration order of the underlying hash maps is unobservable by
//!   contract, so re-insertion order is free.
//! * **Floats are bit patterns.** Every `f64` here rides the wire
//!   crate's IEEE-754 bit-exact encoding; import installs the bits
//!   without renormalisation (`ScoreState::from_raw_parts`, verbatim
//!   credibility rows).
//! * **Batch/touch sequence numbers restart at zero.** The per-batch
//!   dedup compares sequence numbers for equality only and the
//!   counter is monotonic, so a restored engine starting at 0 with
//!   all `touched_seq` entries 0 behaves bit-identically to the
//!   original timeline at any counter value.
//! * **Hot arrays stay flat on the wire.** Books and score lanes are
//!   encoded as flat `Vec<f64>` / `Vec<PeerId>` runs with per-handle
//!   lengths, not per-subject nested structures — the decoder's cost
//!   is a handful of large memcpy-speed array reads instead of
//!   millions of small allocations.

use crate::params::RocqParams;
use replend_types::arena::Handle;
use replend_types::{NodeId, PeerId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An engine's complete subject arena, in the derive-don't-store
/// layout described in the [module docs](self).
///
/// Handle-indexed arrays (`cached`, `peers`, `book_lens`, the slab
/// lanes) run to `capacity`, with vacant slots
/// canonicalised (zeros / empty); occupancy is defined by `index`
/// (live) and `free` (vacant), which must partition `0..capacity`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardState {
    /// Total arena slots ever created (`== handle-array length`).
    pub capacity: u32,
    /// Vacated handles awaiting reuse, oldest release first.
    pub free: Vec<Handle>,
    /// Live-subject occupancy: `(peer, handle)`, sorted by peer —
    /// also the engine's member registry (members are its subjects).
    pub index: Vec<(PeerId, Handle)>,
    /// Cached aggregate reputation per handle (bit-exact values);
    /// vacant slots canonicalised to `0.0`.
    pub cached: Vec<f64>,
    /// Handle → subject id; vacant slots canonicalised to `PeerId(0)`.
    pub peers: Vec<PeerId>,
    /// Bitmap over handles: bit `h` set ⇔ handle `h`'s `num_sm`
    /// replicas travel as one lane. Every bit is set (the replicas
    /// never differ; padding bits of the last byte are clear), and
    /// import refuses any other bitmap. Kept for format stability.
    pub slab_uniform: Vec<u8>,
    /// Score-slab `r` lanes, one per handle in handle order (vacant
    /// handles carry the default state).
    pub slab_r: Vec<f64>,
    /// Packed score-slab `w` lanes, parallel to `slab_r`.
    pub slab_w: Vec<f64>,
    /// Credibility rows per handle (0 for vacant handles).
    pub book_lens: Vec<u32>,
    /// Bitmap over emitted rows (concatenated in handle order): bit
    /// set ⇔ the row's credibility travels as one value for all
    /// `num_sm` replicas. Every bit is set, as for
    /// [`ShardState::slab_uniform`].
    pub book_row_uniform: Vec<u8>,
    /// Flat row reporters, sorted by reporter within each book.
    pub book_reporters: Vec<PeerId>,
    /// Flat row interaction counts, parallel to `book_reporters`: the
    /// reporter's first-hand interactions with the book's subject, 0
    /// when the reporter departed since they were counted.
    pub book_counts: Vec<u32>,
    /// Flat row credibilities, one per row, parallel to
    /// `book_reporters`.
    pub book_rows: Vec<f64>,
}

/// The simulated overlay of a crash-model engine (see the
/// [module docs](self)): everything the deterministic crash rolls of
/// future churn depend on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlayState {
    /// Ring membership in ring (ascending `NodeId`) order.
    pub ring: Vec<NodeId>,
    /// Per-handle re-home counters of the single replica (`capacity`
    /// entries, since only a `num_sm = 1` engine has an overlay); 0 on
    /// vacant handles.
    pub rehomes: Vec<u64>,
    /// Replica re-homings processed so far.
    pub rehomings: u64,
    /// Re-homings that lost state under the crash model.
    pub crash_losses: u64,
}

/// A full [`RocqEngine`](crate::engine::RocqEngine) snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// Engine parameters (validated again on import).
    pub params: RocqParams,
    /// Replication factor: the aggregate's replica count.
    pub num_sm: u64,
    /// Engine seed — source of the deterministic crash rolls.
    pub seed: u64,
    /// The subject arena (its index doubles as the member registry).
    pub shard: ShardState,
    /// The simulated overlay: present exactly when
    /// `params.crash_prob > 0` and `num_sm == 1`.
    pub overlay: Option<OverlayState>,
}

/// One [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine)
/// partition: its engine plus the wait-free read slab's
/// applied-report counts (which live *only* in the slab — the
/// engine's per-reporter interaction counts go stale on reporter
/// departure while the served per-subject count persists). The engine
/// rows' counts are written as the reporter's home partition reads
/// them, so a departed reporter's rows carry 0 here. The slab's
/// reputation bits and registration incarnations are **not** stored:
/// the slab is pinned bit-identical to the engine's cached aggregates
/// and incarnations, so import republishes them from the restored
/// engine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionCheckpoint {
    /// The partition's engine. Every subject must hash to this
    /// partition (`splitmix64(peer) % partitions` is its index), so no
    /// peer lives in two partitions.
    pub engine: EngineState,
    /// Snapshot-slab rows: `(peer, applied reports)`, strictly
    /// ascending by peer (import rejects any other order).
    /// Must list exactly the partition's registered subjects.
    pub slab: Vec<(u64, u64)>,
}

/// A semantic defect in decoded state: lengths that disagree with the
/// declared capacity, handles out of range, malformed rows. Raised by
/// import instead of panicking so a corrupt-but-well-framed
/// checkpoint file falls back to full journal replay rather than
/// aborting the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidState(pub String);

impl fmt::Display for InvalidState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid engine state: {}", self.0)
    }
}

impl std::error::Error for InvalidState {}
