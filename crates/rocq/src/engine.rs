//! The [`ReputationEngine`] trait and the replicated [`RocqEngine`].
//!
//! The trait is the engine's operation set: register/remove peers,
//! deliver post-transaction opinions, query aggregates, and apply the
//! lending protocol's direct credits and debits. [`RocqEngine`]
//! implements it with full score-manager replication, simulating the
//! Chord overlay only when its crash model can change a value;
//! [`reference`](crate::reference) implements it with the pre-arena
//! memory layout as a semantic oracle, and the oracle suites drive
//! both engines through the trait.
//!
//! ## Determinism
//!
//! Crash-loss decisions are a deterministic hash of `(engine seed,
//! subject, replica slot, per-replica re-homing count)` rather than
//! draws from a shared RNG stream, so they do not depend on the order
//! in which a handoff visits replicas, and
//! [`ReputationEngine::drain_deltas`] emits deltas in a canonical
//! order (sorted by subject id — within a subject, mutation order).
//! Every golden output depends on that delta order.
//!
//! ## Memory layout: the dense subject arena
//!
//! Subjects live in a **dense slot arena** instead of a hash map of
//! records: a `PeerId → `[`Handle`] hash index is consulted **once**
//! per feedback, and every per-subject field is a contiguous `Vec`
//! indexed by the handle. Every hash probe on this path — the index
//! and the credibility books — goes through a
//! [`PeerMap`], so hashing a key costs
//! one `splitmix64` mix. Handles are stable for a subject's lifetime
//! and recycled through a free list ([`SlotAllocator`]) when churn
//! vacates them — recycling order is deterministic and, because all
//! state is keyed by handle through the index, unobservable in results
//! (pinned by the churn oracle in `replend-tests` against the
//! [`reference`](crate::reference) layout).
//!
//! The arrays split **hot from cold**. The `report_batch` loops
//! touch only: the handle index (probed once per opinion, in the
//! resolve pass, for the reporter's incarnation and the subject's
//! handle; the apply pass reuses the handle — and the concurrent
//! facade resolves both ends at its read slab, so its partitions skip
//! this probe), the per-subject
//! `CredibilityBook` (one hash probe yielding the reporter's
//! interaction count with the subject *and* its credibility, inline in
//! the row — the reference layout pays a pair-log probe plus three
//! probes per replica), and the subject's one `(r, w)` lane of the
//! `ScoreSlab`; the cache refresh then reads the same lane plus the
//! `cached`/`touched_seq` arrays.
//!
//! ## One lane for `numSM` replicas
//!
//! Every subject has `numSM` score-manager replicas, but they can
//! never differ: each sees the same reports with the same
//! credibilities, and crash recovery copies a sibling that is already
//! bit-equal. So the engine stores **one** score lane per subject and
//! **one** credibility per (reporter, subject) row whatever `numSM`
//! is, and a crash loss changes state only when `numSM = 1` (no
//! sibling: the lane and the book reset). The aggregate keeps the
//! historical replica-mean definition, `numSM` copies summed left to
//! right and divided by `numSM`, so every result bit matches the
//! [`reference`](crate::reference) layout, which keeps real per-replica
//! tables (see the `slab` module docs for the layout and the
//! determinism rule).
//!
//! Replica placement (ring, replica-key index, re-home counters) is
//! the private `overlay` module's `Overlay`. It can change a value only
//! through a crash loss with no sibling to recover from, so the engine
//! holds one exactly when `params.crash_prob > 0` and `numSM = 1`;
//! without it, as in the service, every figure and scenario and every
//! `numSM > 1` crash run, registration and removal touch only the
//! arena.
//!
//! ## Departures touch only the departed peer
//!
//! Every registration hands the peer a fresh **incarnation** number,
//! kept per handle. A book row stores the reporter's interaction count
//! under the incarnation it was counted for, and a row whose tag is
//! not the reporter's current incarnation reads as count 0. So
//! [`ReputationEngine::remove_peer`] forgets the departed peer's
//! counts without visiting anyone else's state: its counts as a
//! subject go with its replaced book, its counts as a reporter go
//! stale by construction.
//!
//! ## Allocation-free steady state
//!
//! Every buffer the batch path needs — the resolve scratch, the
//! first-touch (`touched`) list, the delta buffer and the
//! canonical-order permutation of
//! [`ReputationEngine::drain_deltas`] — is owned by the engine and
//! *cleared, never freed*. Once the buffers and hash tables have
//! grown to the workload's working set, a steady-state
//! `report_batch` + `drain_deltas` cycle performs **zero heap
//! allocations** (asserted by a counting-allocator test in
//! `replend-tests` and a capacity-stability test below).

use crate::credibility::CredibilityBook;
use crate::overlay::Overlay;
use crate::params::RocqParams;
use crate::quality::quality_from_count;
use crate::score::ScoreState;
use crate::slab::{prefetch, ScoreSlab, PREFETCH_DISTANCE};
use crate::state::{EngineState, InvalidState, ShardState};
use replend_types::arena::{Handle, SlotAlloc, SlotAllocator};
use replend_types::hash::PeerMap;
use replend_types::{Feedback, PeerId, Reputation, ReputationDelta};

/// The reputation engine's operations: the seam through which the
/// oracle suites drive [`RocqEngine`] and
/// [`ReferenceEngine`](crate::reference::ReferenceEngine) identically.
pub trait ReputationEngine {
    /// Introduces a new subject with the given starting reputation
    /// (0 for un-introduced entrants, `introAmt` once credited, …).
    /// The peer also joins the score-manager overlay where the engine
    /// simulates one — for [`RocqEngine`], only with the crash model
    /// on and `numSM = 1`.
    fn register_peer(&mut self, peer: PeerId, initial: Reputation);

    /// Removes a subject and its overlay presence.
    fn remove_peer(&mut self, peer: PeerId);

    /// True if `peer` is registered.
    fn contains(&self, peer: PeerId) -> bool;

    /// Delivers `reporter`'s opinion (∈ [0, 1]) about `subject` to
    /// the subject's score managers. Unknown peers are ignored.
    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64);

    /// The current aggregate reputation of `subject`, or `None` if
    /// unknown.
    fn reputation(&self, subject: PeerId) -> Option<Reputation>;

    /// Directly raises `subject`'s reputation by `amount`
    /// (lending repayment / reward), clamped at 1.
    fn credit(&mut self, subject: PeerId, amount: f64);

    /// Directly lowers `subject`'s reputation by `amount`
    /// (lending stake / penalty), clamped at 0.
    fn debit(&mut self, subject: PeerId, amount: f64);

    /// Delivers a tick's worth of opinions in one call, applied in
    /// order with semantics identical to calling
    /// [`ReputationEngine::report`] per element, with per-subject
    /// bookkeeping (the cache refresh) amortised across the batch.
    fn report_batch(&mut self, batch: &[Feedback]);

    /// Appends to `out` every aggregate change since the last drain
    /// and clears the internal buffer. Within one subject, deltas
    /// chain in mutation order; across subjects the order is
    /// canonical (engine-defined but independent of how the engine
    /// partitions its work internally).
    ///
    /// This is how the community keeps its incrementally-maintained
    /// mean-reputation accumulators in sync without polling every
    /// member: reports, lending credits/debits and crash-recovery
    /// re-homings all surface here as [`ReputationDelta`]s.
    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>);
}

/// The incarnation of every live subject after a checkpoint import.
/// Incarnations are derived, never stored: only equality with a book
/// row's tag is observable, so import tags every row with this value
/// and later registrations count up from it.
const IMPORTED_INCARNATION: u64 = 1;

/// One admitted opinion of a batch, resolved to its subject's handle:
/// what [`EngineShard::apply_resolved`] folds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Resolved {
    pub(crate) reporter: PeerId,
    /// The reporter's incarnation.
    pub(crate) tag: u64,
    pub(crate) subject: Handle,
    pub(crate) opinion: f64,
}

/// The engine's subject store, a dense slot arena (see the module
/// docs for the layout).
#[derive(Clone, Debug)]
struct EngineShard {
    /// `PeerId → Handle`: the single index probe on the feedback hot
    /// path (one `splitmix64` mix). Source of truth for slot occupancy.
    index: PeerMap<PeerId, Handle>,
    /// Free-list allocator; handles are stable per subject lifetime.
    alloc: SlotAllocator,
    // ---- hot arrays, one entry per handle ----
    /// Cached replica-mean aggregate, maintained at every mutation
    /// point so [`ReputationEngine::reputation`] is an O(1) read.
    cached: Vec<Reputation>,
    /// Sequence number of the last batch that touched the subject
    /// (O(1) per-batch cache-refresh dedup).
    touched_seq: Vec<u64>,
    /// Registration incarnation: the tag the subject's interaction
    /// counts carry in other subjects' book rows while it reports.
    incarnation: Vec<u64>,
    /// Score states, one `(r, w)` lane per handle standing for all
    /// `numSM` replicas — the slab the report and the cache refresh
    /// read (see [`ScoreSlab`]).
    slab: ScoreSlab,
    // ---- cold arrays, one entry per handle ----
    /// Handle → subject id (delta emission, crash rolls).
    peers: Vec<PeerId>,
    /// Per-subject credibility ledger (the credibility and the tagged
    /// interaction count in one row per reporter).
    books: Vec<CredibilityBook>,
    // ---- buffers ----
    /// Aggregate changes since the last drain, in mutation order.
    /// Drained with capacity retained.
    deltas: Vec<ReputationDelta>,
    /// Reusable first-touch scratch of
    /// [`ReputationEngine::report_batch`] (cleared, never freed).
    touched: Vec<Handle>,
    /// Reusable resolve scratch of [`ReputationEngine::report_batch`]:
    /// the admitted opinions of the batch with their subject handles,
    /// in batch order (cleared, never freed).
    resolved: Vec<Resolved>,
    /// The incarnation the next registration hands out.
    next_incarnation: u64,
    /// Replication factor (the aggregate's replica count), copied from
    /// the engine.
    num_sm: usize,
}

impl EngineShard {
    fn new(num_sm: usize) -> Self {
        EngineShard {
            index: PeerMap::default(),
            alloc: SlotAllocator::new(),
            cached: Vec::new(),
            touched_seq: Vec::new(),
            incarnation: Vec::new(),
            slab: ScoreSlab::new(),
            peers: Vec::new(),
            books: Vec::new(),
            deltas: Vec::new(),
            touched: Vec::new(),
            resolved: Vec::new(),
            next_incarnation: IMPORTED_INCARNATION,
            num_sm,
        }
    }

    /// The current incarnation of `peer`, `None` when it is not a
    /// member.
    #[inline]
    fn incarnation_of(&self, peer: PeerId) -> Option<u64> {
        self.index.get(&peer).map(|h| self.incarnation[h.index()])
    }

    /// Recovers `h`'s only replica after the crash model lost its
    /// state (an overlay exists only at `numSM = 1`, so there is no
    /// sibling to copy): the subject's lane resets, its book resets to
    /// `initial_credibility`, and the cached aggregate refreshes.
    fn recover_lane(&mut self, h: Handle, initial_credibility: f64) {
        debug_assert_eq!(self.num_sm, 1, "a sibling would mask the loss");
        self.slab
            .set(h.index(), ScoreState::new(Reputation::ZERO, 0.0));
        self.books[h.index()].reset(initial_credibility);
        self.refresh_cache(h);
    }

    /// Applies one opinion to the replicas of the subject at `h`
    /// *without* refreshing the cached aggregate (shared by [`report`]
    /// and [`report_batch`], which refresh at different
    /// granularities). The caller has already checked that `reporter`
    /// is a member and passes its incarnation `tag`.
    ///
    /// [`report`]: ReputationEngine::report
    /// [`report_batch`]: ReputationEngine::report_batch
    #[inline]
    fn apply_report(
        &mut self,
        params: &RocqParams,
        reporter: PeerId,
        tag: u64,
        h: Handle,
        opinion: f64,
    ) {
        let (n, cred) = self.books[h.index()].record(reporter, tag, params.initial_credibility);
        let q = quality_from_count(n, params.eta, params.min_quality);
        // The fused report + credibility update of the subject's lane
        // (see [`ScoreSlab::report`]).
        self.slab.report(
            h.index(),
            cred,
            opinion,
            q,
            params.gamma,
            params.agreement_threshold,
            params.weight_cap,
        );
    }

    /// Refreshes `subject`'s cached aggregate, emitting a delta when
    /// it moved.
    fn refresh_cache(&mut self, h: Handle) {
        let new = self.slab.aggregate(h.index(), self.num_sm);
        let old = std::mem::replace(&mut self.cached[h.index()], new);
        let delta = ReputationDelta {
            subject: self.peers[h.index()],
            old,
            new,
        };
        if !delta.is_noop() {
            self.deltas.push(delta);
        }
    }

    /// Applies the resolved opinions `batch` in order as batch `seq`,
    /// then refreshes each touched subject's cached aggregate once, in
    /// first-touch order. The per-subject sequence number makes the
    /// dedup O(1) regardless of batch size. The result is bit-identical
    /// to sequential `report` calls.
    ///
    /// It runs in two passes over one code path for every batch size:
    ///
    /// 1. **Warm up** only reads. For each opinion it prefetches the
    ///    book header of the subject [`PREFETCH_DISTANCE`] opinions
    ///    ahead, then loads its own subject's score lane and the
    ///    reporter's book row, so the cache misses of independent
    ///    opinions overlap instead of stalling one apply at a time.
    /// 2. **Apply** folds the opinions in batch order.
    ///
    /// Every handle must be live, which is checked against the index
    /// in debug builds. Applying changes counts, credibilities and
    /// scores, but it never registers or removes a subject, so no
    /// handle goes stale during the batch.
    fn apply_resolved(&mut self, params: &RocqParams, seq: u64, batch: &[Resolved]) {
        for (i, r) in batch.iter().enumerate() {
            if let Some(ahead) = batch.get(i + PREFETCH_DISTANCE) {
                prefetch(&self.books[ahead.subject.index()]);
            }
            let h = r.subject;
            debug_assert_eq!(
                self.index.get(&self.peers[h.index()]),
                Some(&h),
                "resolved handle {h:?} is not live in the index"
            );
            // Warm-up loads: their values are discarded (pass 2 reads
            // the state current when it gets there); `black_box` only
            // keeps the loads from being optimised away.
            std::hint::black_box(self.slab.get(h.index()));
            std::hint::black_box(self.books[h.index()].has_row(r.reporter));
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for r in batch {
            self.apply_report(params, r.reporter, r.tag, r.subject, r.opinion);
            let h = r.subject;
            if self.touched_seq[h.index()] != seq {
                self.touched_seq[h.index()] = seq;
                touched.push(h);
            }
        }
        for &h in &touched {
            self.refresh_cache(h);
        }
        self.touched = touched;
    }

    /// Exports the complete subject arena in the
    /// derive-don't-store layout (see the [`state`](crate::state)
    /// module docs). Vacant slots are canonicalised, and every handle
    /// and credibility row is flagged uniform with its one value (the
    /// replicas never differ). Interaction counts
    /// are read through `incarnation_of` (see
    /// [`RocqEngine::export_state`]), so a stale count exports as 0.
    /// The delta buffer must be drained first — deltas are a transient
    /// hand-off to the caller, not durable state.
    fn export(&self, incarnation_of: impl Fn(PeerId) -> Option<u64>) -> ShardState {
        debug_assert!(self.deltas.is_empty(), "export with undrained deltas");
        let capacity = self.alloc.capacity();
        let mut index: Vec<(PeerId, Handle)> = self.index.iter().map(|(&p, &h)| (p, h)).collect();
        index.sort_unstable_by_key(|&(p, _)| p);
        let mut occupied = vec![false; capacity];
        for &(_, h) in &index {
            occupied[h.index()] = true;
        }

        // Score slab: one lane per handle, the canonical default for
        // vacant handles.
        let (vacant_r, vacant_w) = ScoreState::default().raw_parts();
        let mut slab_r = Vec::with_capacity(capacity);
        let mut slab_w = Vec::with_capacity(capacity);
        for (h, &live) in occupied.iter().enumerate() {
            let (r, w) = if live {
                self.slab.get(h).raw_parts()
            } else {
                (vacant_r, vacant_w)
            };
            slab_r.push(r);
            slab_w.push(w);
        }

        // Credibility books, flattened: per-handle row counts, then
        // reporters, interaction counts and credibilities as single
        // flat runs.
        let mut book_lens = Vec::with_capacity(capacity);
        let mut book_reporters = Vec::new();
        let mut book_counts = Vec::new();
        let mut book_rows = Vec::new();
        let mut rows_scratch: Vec<(PeerId, u32, f64)> = Vec::new();
        for (h, &live) in occupied.iter().enumerate() {
            if !live {
                book_lens.push(0);
                continue;
            }
            rows_scratch.clear();
            rows_scratch.extend(self.books[h].iter_rows(&incarnation_of));
            rows_scratch.sort_unstable_by_key(|&(p, _, _)| p);
            book_lens.push(rows_scratch.len() as u32);
            for &(p, count, cred) in &rows_scratch {
                book_reporters.push(p);
                book_counts.push(count);
                book_rows.push(cred);
            }
        }

        ShardState {
            capacity: capacity as u32,
            free: self.alloc.free_handles().to_vec(),
            index,
            cached: self
                .cached
                .iter()
                .zip(&occupied)
                .map(|(r, &live)| if live { r.value() } else { 0.0 })
                .collect(),
            peers: self
                .peers
                .iter()
                .zip(&occupied)
                .map(|(&p, &live)| if live { p } else { PeerId(0) })
                .collect(),
            slab_uniform: uniform_bitmap(capacity),
            slab_r,
            slab_w,
            book_lens,
            book_row_uniform: uniform_bitmap(book_rows.len()),
            book_reporters,
            book_counts,
            book_rows,
        }
    }

    /// Rebuilds the store from exported state — the exact inverse of
    /// [`EngineShard::export`]. Lanes and rows are installed
    /// bit-for-bit; a cleared uniformity bit is refused, since no
    /// engine can write one. Scratch
    /// buffers start empty and the touch-sequence array starts at
    /// zero (sound: the batch counter restarts at zero too and dedup
    /// compares equality only). Every subject and every book row gets
    /// [`IMPORTED_INCARNATION`]: a live reporter's exported counts are
    /// current again, and a departed reporter's exported 0 reads as 0
    /// under any tag.
    fn import(s: &ShardState, num_sm: usize) -> Result<Self, InvalidState> {
        let capacity = s.capacity as usize;
        if s.cached.len() != capacity || s.peers.len() != capacity || s.book_lens.len() != capacity
        {
            return Err(InvalidState(format!(
                "handle arrays disagree with capacity {capacity}"
            )));
        }
        if s.slab_uniform != uniform_bitmap(capacity) {
            return Err(InvalidState("score lanes not flagged uniform".into()));
        }
        // Occupancy: the live index and the free list must partition
        // the arena exactly.
        let mut occupied = vec![false; capacity];
        for &(_, h) in &s.index {
            if h.index() >= capacity || occupied[h.index()] {
                return Err(InvalidState(
                    "live handle out of range or duplicated".into(),
                ));
            }
            occupied[h.index()] = true;
        }
        let mut freed = vec![false; capacity];
        for &h in &s.free {
            if h.index() >= capacity || freed[h.index()] || occupied[h.index()] {
                return Err(InvalidState(
                    "free handle out of range or duplicated".into(),
                ));
            }
            freed[h.index()] = true;
        }
        if s.index.len() + s.free.len() != capacity {
            return Err(InvalidState("slots neither live nor free".into()));
        }
        if s.slab_r.len() != capacity || s.slab_w.len() != capacity {
            return Err(InvalidState("slab length disagrees with capacity".into()));
        }
        let rows_total: usize = s.book_lens.iter().map(|&n| n as usize).sum();
        if s.book_row_uniform != uniform_bitmap(rows_total) {
            return Err(InvalidState("credibility rows not flagged uniform".into()));
        }
        if s.book_reporters.len() != rows_total
            || s.book_counts.len() != rows_total
            || s.book_rows.len() != rows_total
        {
            return Err(InvalidState(
                "book row arrays disagree with row counts".into(),
            ));
        }
        if (0..capacity).any(|h| !occupied[h] && s.book_lens[h] != 0) {
            return Err(InvalidState("credibility rows on a vacant slot".into()));
        }

        let mut shard = EngineShard::new(num_sm);
        shard.alloc = SlotAllocator::from_parts(s.capacity, s.free.clone());
        shard.index = s.index.iter().copied().collect();
        shard.cached = s.cached.iter().map(|&v| Reputation::new(v)).collect();
        shard.touched_seq = vec![0; capacity];
        shard.incarnation = vec![IMPORTED_INCARNATION; capacity];
        shard.next_incarnation = IMPORTED_INCARNATION + 1;
        shard.peers.clone_from(&s.peers);

        for (&r, &w) in s.slab_r.iter().zip(&s.slab_w) {
            shard.slab.push(ScoreState::from_raw_parts(r, w));
        }

        let mut row_n = 0usize;
        shard.books = Vec::with_capacity(capacity);
        for &len in &s.book_lens {
            let mut book = CredibilityBook::with_capacity(len as usize);
            for _ in 0..len {
                book.insert_row(
                    s.book_reporters[row_n],
                    s.book_rows[row_n],
                    s.book_counts[row_n],
                    IMPORTED_INCARNATION,
                );
                row_n += 1;
            }
            shard.books.push(book);
        }

        Ok(shard)
    }
}

/// `n` set bits, padding bits of the last byte clear: the uniformity
/// bitmap of every export (see [`ShardState::slab_uniform`]).
fn uniform_bitmap(n: usize) -> Vec<u8> {
    let mut bits = vec![u8::MAX; n / 8];
    if n % 8 != 0 {
        bits.push((1 << (n % 8)) - 1);
    }
    bits
}

/// True when a crash loss can change a value, so the engine simulates
/// the overlay: the crash model is on and a lost replica has no
/// sibling (`numSM = 1`). A sibling is always bit-equal to the lost
/// replica, so with `numSM > 1` every recovery is a no-op.
fn simulates_overlay(crash_prob: f64, num_sm: usize) -> bool {
    crash_prob > 0.0 && num_sm == 1
}

/// The replicated ROCQ engine.
///
/// Every subject has `numSM` score-manager replicas. Where a crash can
/// change a value (`crash_prob > 0` and `numSM = 1`), every registered
/// peer is also an overlay node (in the paper, peers *are* the DHT
/// nodes that act as score managers), so registration causes a ring
/// join, removal a ring leave, and both re-home replicas that may lose
/// their state. Elsewhere re-homing could change nothing, so the
/// engine keeps no overlay (see the module docs). Subjects live in one
/// dense-arena store; concurrent partitioning is
/// [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine)'s job.
pub struct RocqEngine {
    params: RocqParams,
    num_sm: usize,
    /// Engine seed — the source of the deterministic crash rolls.
    seed: u64,
    /// The simulated overlay, present exactly when
    /// `simulates_overlay` holds.
    overlay: Option<Overlay>,
    /// The subject store. Its index is also the member registry: a
    /// peer is a member exactly while it has subject state here.
    shard: EngineShard,
    /// Monotonic id of the current `report_batch` call.
    batch_seq: u64,
    /// Permutation buffer of the canonical drain order (cleared,
    /// never freed).
    drain_order: Vec<u32>,
}

impl RocqEngine {
    /// An engine with `num_sm` score managers per subject (the
    /// Table-1 configuration).
    ///
    /// # Panics
    /// If `params` fail validation or `num_sm` is zero.
    pub fn new(params: RocqParams, num_sm: usize, seed: u64) -> Self {
        params.validate().expect("invalid ROCQ parameters");
        assert!(num_sm > 0, "need at least one score manager");
        RocqEngine {
            params,
            num_sm,
            seed,
            overlay: simulates_overlay(params.crash_prob, num_sm)
                .then(|| Overlay::new(seed, params.crash_prob)),
            shard: EngineShard::new(num_sm),
            batch_seq: 0,
            drain_order: Vec::new(),
        }
    }

    /// Total replica re-homings caused by churn so far — always 0
    /// when the engine simulates no overlay (crash model off, or
    /// `numSM > 1`).
    pub fn rehomings(&self) -> u64 {
        self.overlay.as_ref().map_or(0, |o| o.rehomings)
    }

    /// Re-homings that lost state under the crash model.
    pub fn crash_losses(&self) -> u64 {
        self.overlay.as_ref().map_or(0, |o| o.crash_losses)
    }

    /// Number of registered subjects.
    pub(crate) fn subjects_len(&self) -> usize {
        self.shard.index.len()
    }

    /// Exports the engine's complete state for checkpointing. The
    /// result is canonical — two exports of the same state encode to
    /// identical bytes — and [`RocqEngine::import_state`] restores an
    /// engine whose future behaviour is bit-identical to this one's
    /// under any further operation stream (see the
    /// [`state`](crate::state) module docs for the invariants).
    ///
    /// `incarnation_of` answers for every reporter with a book row:
    /// its current incarnation, or `None` once it departed. For a
    /// whole engine that is the engine's own member record; a
    /// [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine)
    /// partition asks the reporter's home partition. Incarnations
    /// themselves are never exported.
    ///
    /// Pending aggregate deltas must be drained first
    /// ([`ReputationEngine::drain_deltas`]); they are a transient
    /// hand-off to the accounting layer, not durable state.
    pub(crate) fn export_state(
        &self,
        incarnation_of: impl Fn(PeerId) -> Option<u64>,
    ) -> EngineState {
        EngineState {
            params: self.params,
            num_sm: self.num_sm as u64,
            seed: self.seed,
            shard: self.shard.export(incarnation_of),
            overlay: self.overlay.as_ref().map(Overlay::export),
        }
    }

    /// Every member with its registration incarnation, in arbitrary
    /// order.
    pub(crate) fn incarnations(&self) -> impl Iterator<Item = (PeerId, u64)> + '_ {
        let shard = &self.shard;
        shard
            .index
            .iter()
            .map(|(&peer, h)| (peer, shard.incarnation[h.index()]))
    }

    /// Rebuilds an engine from exported state — the inverse of
    /// [`RocqEngine::export_state`]. Semantic defects (lengths
    /// disagreeing with the declared capacity, out-of-range handles,
    /// invalid parameters, an overlay whose presence disagrees with
    /// `params.crash_prob` and `numSM`, an overlay that would change
    /// future crash rolls) surface as [`InvalidState`] so a corrupt
    /// checkpoint can fall back to full journal replay instead of
    /// aborting.
    pub(crate) fn import_state(state: &EngineState) -> Result<Self, InvalidState> {
        state
            .params
            .validate()
            .map_err(|e| InvalidState(format!("params: {e}")))?;
        let num_sm = usize::try_from(state.num_sm)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| InvalidState(format!("invalid numSM {}", state.num_sm)))?;
        let crash_prob = state.params.crash_prob;
        if state.overlay.is_some() != simulates_overlay(crash_prob, num_sm) {
            return Err(InvalidState(format!(
                "overlay presence disagrees with crash_prob {crash_prob} and numSM {num_sm}"
            )));
        }
        let mut engine = RocqEngine::new(state.params, num_sm, state.seed);
        engine.shard = EngineShard::import(&state.shard, num_sm)?;
        engine.overlay = match &state.overlay {
            Some(o) => Some(Overlay::import(o, &state.shard, state.seed, crash_prob)?),
            None => None,
        };
        Ok(engine)
    }

    /// [`ReputationEngine::register_peer`], returning the subject's
    /// handle: the fresh one, or the one a member already holds (its
    /// state untouched). The handle comes from the registration itself,
    /// so a caller that publishes by handle needs no second probe.
    pub(crate) fn register(&mut self, peer: PeerId, initial: Reputation) -> Handle {
        if let Some(&h) = self.shard.index.get(&peer) {
            return h;
        }
        // The peer becomes an overlay node first (it may end up
        // hosting some of its own replicas on tiny rings — harmless).
        if let Some(overlay) = &mut self.overlay {
            for &lost in overlay.join(peer, &self.shard.peers) {
                self.shard
                    .recover_lane(lost, self.params.initial_credibility);
            }
        }
        let shard = &mut self.shard;
        let incarnation = shard.next_incarnation;
        shard.next_incarnation += 1;
        let h = match shard.alloc.alloc() {
            SlotAlloc::Fresh(h) => {
                shard.cached.push(Reputation::ZERO);
                shard.touched_seq.push(0);
                shard.incarnation.push(incarnation);
                shard.peers.push(peer);
                shard.books.push(CredibilityBook::default());
                shard.slab.push(ScoreState::default());
                h
            }
            SlotAlloc::Reused(h) => {
                // Overwrite the vacated slot in place; the fresh book
                // drops the previous occupant's rows.
                shard.touched_seq[h.index()] = 0;
                shard.incarnation[h.index()] = incarnation;
                shard.peers[h.index()] = peer;
                shard.books[h.index()] = CredibilityBook::default();
                h
            }
        };
        shard.slab.set(
            h.index(),
            ScoreState::new(initial, self.params.prior_weight),
        );
        shard.cached[h.index()] = shard.slab.aggregate(h.index(), self.num_sm);
        shard.index.insert(peer, h);
        if let Some(overlay) = &mut self.overlay {
            overlay.place(peer, h);
        }
        h
    }

    /// Handles ever allocated: every live handle is below it.
    pub(crate) fn capacity(&self) -> usize {
        self.shard.alloc.capacity()
    }

    /// Makes room for `additional` more subjects at once: the index,
    /// and every per-handle array for the ones the free list cannot
    /// seat, so a registration group grows each of them once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let shard = &mut self.shard;
        shard.index.reserve(additional);
        let fresh = additional.saturating_sub(shard.alloc.free_handles().len());
        shard.cached.reserve(fresh);
        shard.touched_seq.reserve(fresh);
        shard.incarnation.reserve(fresh);
        shard.peers.reserve(fresh);
        shard.books.reserve(fresh);
        shard.slab.reserve(fresh);
    }

    /// The handle of member `peer`, `None` for a non-member.
    pub(crate) fn handle_of(&self, peer: PeerId) -> Option<Handle> {
        self.shard.index.get(&peer).copied()
    }

    /// The cached aggregate of the subject at live handle `h`.
    pub(crate) fn reputation_at(&self, h: Handle) -> Reputation {
        self.shard.cached[h.index()]
    }

    /// The registration incarnation of the subject at live handle `h`.
    pub(crate) fn incarnation_at(&self, h: Handle) -> u64 {
        self.shard.incarnation[h.index()]
    }

    /// Drops the pending aggregate deltas unread, for a caller that
    /// publishes the changed aggregates by handle instead.
    pub(crate) fn discard_deltas(&mut self) {
        self.shard.deltas.clear();
    }

    /// [`ReputationEngine::report_batch`] for a caller that has
    /// already resolved both ends of every opinion: the reporter's
    /// membership and incarnation, and the subject's live handle. A
    /// [`ConcurrentEngine`](crate::concurrent::ConcurrentEngine)
    /// partition needs this: its reporters may be homed in other
    /// partitions, so only the facade can answer for them, and the
    /// facade's read slab already maps each subject to its handle, so
    /// the engine's index is not probed again.
    pub(crate) fn report_resolved_batch(&mut self, batch: &[Resolved]) {
        self.batch_seq += 1;
        let params = self.params;
        self.shard.apply_resolved(&params, self.batch_seq, batch);
    }
}

impl ReputationEngine for RocqEngine {
    fn register_peer(&mut self, peer: PeerId, initial: Reputation) {
        self.register(peer, initial);
    }

    fn remove_peer(&mut self, peer: PeerId) {
        let shard = &mut self.shard;
        let Some(h) = shard.index.remove(&peer) else {
            return;
        };
        // Release the subject's heap state (its book holds its counts
        // as a subject); the slot itself is recycled by the free list.
        // Other subjects' books keep the departed peer's rows (as the
        // reference layout's replica tables keep its credibility —
        // earned credibility resumes on re-join); the interaction
        // counts there went stale with its incarnation.
        shard.books[h.index()] = CredibilityBook::default();
        shard.alloc.release(h);
        if let Some(overlay) = &mut self.overlay {
            for &lost in overlay.leave(peer, h, &shard.peers) {
                shard.recover_lane(lost, self.params.initial_credibility);
            }
        }
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.shard.index.contains_key(&peer)
    }

    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64) {
        let Some(tag) = self.shard.incarnation_of(reporter) else {
            return;
        };
        let params = self.params;
        let shard = &mut self.shard;
        if let Some(&h) = shard.index.get(&subject) {
            shard.apply_report(&params, reporter, tag, h, opinion);
            shard.refresh_cache(h);
        }
    }

    fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        let &h = self.shard.index.get(&subject)?;
        Some(self.shard.cached[h.index()])
    }

    fn credit(&mut self, subject: PeerId, amount: f64) {
        let shard = &mut self.shard;
        let Some(&h) = shard.index.get(&subject) else {
            return;
        };
        shard.slab.adjust(h.index(), amount.abs());
        shard.refresh_cache(h);
    }

    fn debit(&mut self, subject: PeerId, amount: f64) {
        let shard = &mut self.shard;
        let Some(&h) = shard.index.get(&subject) else {
            return;
        };
        shard.slab.adjust(h.index(), -amount.abs());
        shard.refresh_cache(h);
    }

    fn report_batch(&mut self, batch: &[Feedback]) {
        self.batch_seq += 1;
        let params = self.params;
        let shard = &mut self.shard;
        // Resolve both ends by index probes, skipping every opinion of
        // a non-member reporter and every opinion on an unknown subject.
        let mut resolved = std::mem::take(&mut shard.resolved);
        resolved.clear();
        resolved.extend(batch.iter().filter_map(|f| {
            Some(Resolved {
                reporter: f.reporter,
                tag: shard.incarnation_of(f.reporter)?,
                subject: *shard.index.get(&f.subject)?,
                opinion: f.opinion,
            })
        }));
        shard.apply_resolved(&params, self.batch_seq, &resolved);
        shard.resolved = resolved;
    }

    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>) {
        // Canonical order: sort by subject, ties by buffer position,
        // i.e. mutation order. The permutation buffer is engine-owned
        // scratch, and the index sort is unstable (in-place,
        // allocation-free) with the position tiebreaker making it
        // order-preserving.
        let RocqEngine {
            shard, drain_order, ..
        } = self;
        let deltas = &shard.deltas;
        drain_order.clear();
        drain_order.extend(0..deltas.len() as u32);
        drain_order.sort_unstable_by_key(|&i| (deltas[i as usize].subject, i));
        out.extend(drain_order.iter().map(|&i| deltas[i as usize]));
        shard.deltas.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::crash_roll;
    use crate::reference::ReferenceEngine;
    use replend_types::NodeId;

    fn engine() -> RocqEngine {
        RocqEngine::new(RocqParams::default(), 6, 42)
    }

    fn engine_with(params: RocqParams, num_sm: usize) -> RocqEngine {
        RocqEngine::new(params, num_sm, 42)
    }

    /// A crash-model engine with one score manager per subject: the
    /// only kind that simulates the overlay.
    fn crash_engine(crash_prob: f64) -> RocqEngine {
        engine_with(
            RocqParams {
                crash_prob,
                ..Default::default()
            },
            1,
        )
    }

    /// Live overlay size, read through the checkpoint; `None` when the
    /// engine simulates no overlay.
    fn overlay_len(e: &mut RocqEngine) -> Option<usize> {
        e.drain_deltas(&mut Vec::new());
        export(e).overlay.map(|o| o.ring.len())
    }

    /// Replica 0's credibility for `reporter`; `None` when `subject`
    /// is unknown.
    fn credibility_of(e: &RocqEngine, subject: PeerId, reporter: PeerId) -> Option<f64> {
        let &h = e.shard.index.get(&subject)?;
        let row = e.shard.books[h.index()]
            .iter_rows(|_| None)
            .find(|&(p, _, _)| p == reporter);
        Some(row.map_or(e.params.initial_credibility, |(_, _, cred)| cred))
    }

    /// `subject`'s score lane, which stands for every replica; `None`
    /// when it is not a subject.
    fn lane(e: &RocqEngine, subject: PeerId) -> Option<ScoreState> {
        let &h = e.shard.index.get(&subject)?;
        Some(e.shard.slab.get(h.index()))
    }

    /// The replica mean recomputed from `numSM` copies of the lane (sum
    /// then divide, in slot order): the value the cached aggregate must
    /// equal.
    fn replica_mean(e: &RocqEngine, subject: PeerId) -> Option<Reputation> {
        let replicas = vec![lane(e, subject)?; e.num_sm];
        let sum: f64 = replicas.iter().map(|s| s.reputation().value()).sum();
        Some(Reputation::new(sum / replicas.len() as f64))
    }

    #[test]
    fn crash_free_replicas_agree() {
        // One lane per subject whatever numSM is; the aggregate is the
        // mean of numSM copies of it.
        let mut e = RocqEngine::new(RocqParams::default(), 6, 9);
        for p in 0..20u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        for r in 0..50u64 {
            e.report(PeerId(r % 19 + 1), PeerId(0), 1.0);
        }
        assert_eq!(e.shard.slab.get(19), lane(&e, PeerId(19)).unwrap());
        assert!(
            lane(&e, PeerId(0)).unwrap().raw_parts().1 > 0.0,
            "reports add evidence"
        );
        assert_eq!(replica_mean(&e, PeerId(0)), e.reputation(PeerId(0)));
    }

    #[test]
    fn persistent_liar_loses_credibility() {
        let mut e = RocqEngine::new(RocqParams::default(), 6, 9);
        for p in 0..20u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        // Liar drags against consensus: credibility must sink below
        // the honest reporters'.
        for round in 0..100u64 {
            e.report(PeerId(1 + round % 18), PeerId(0), 1.0);
            e.report(PeerId(19), PeerId(0), 0.0);
        }
        let honest = credibility_of(&e, PeerId(0), PeerId(1)).unwrap();
        let liar = credibility_of(&e, PeerId(0), PeerId(19)).unwrap();
        assert!(
            liar < honest,
            "liar credibility {liar} should be below honest {honest}"
        );
        assert!(liar < 0.1, "persistent liar should be marginalized: {liar}");
        assert_eq!(credibility_of(&e, PeerId(99), PeerId(1)), None);
    }

    #[test]
    #[should_panic(expected = "at least one score manager")]
    fn zero_sm_rejected() {
        RocqEngine::new(RocqParams::default(), 0, 0);
    }

    #[test]
    fn register_and_query() {
        let mut e = engine();
        e.register_peer(PeerId(1), Reputation::new(0.1));
        assert!(e.contains(PeerId(1)));
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.1).abs() < 1e-12);
        assert_eq!(e.reputation(PeerId(99)), None);
        assert_eq!(overlay_len(&mut e), None, "no crash model, no overlay");

        let mut e = crash_engine(0.5);
        e.register_peer(PeerId(1), Reputation::new(0.1));
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.1).abs() < 1e-12);
        assert_eq!(overlay_len(&mut e), Some(1));
    }

    #[test]
    fn duplicate_registration_keeps_state() {
        let mut e = engine();
        e.register_peer(PeerId(1), Reputation::new(0.1));
        e.credit(PeerId(1), 0.4);
        e.register_peer(PeerId(1), Reputation::ZERO);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn credit_and_debit_shift_exactly() {
        let mut e = engine();
        e.register_peer(PeerId(1), Reputation::new(0.5));
        e.debit(PeerId(1), 0.1);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.4).abs() < 1e-12);
        e.credit(PeerId(1), 0.12);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.52).abs() < 1e-12);
        // Clamping at the edges.
        e.credit(PeerId(1), 5.0);
        assert_eq!(e.reputation(PeerId(1)).unwrap(), Reputation::ONE);
        e.debit(PeerId(1), 5.0);
        assert_eq!(e.reputation(PeerId(1)).unwrap(), Reputation::ZERO);
    }

    #[test]
    fn unknown_subject_ops_are_noops() {
        let mut e = engine();
        e.credit(PeerId(5), 0.5);
        e.debit(PeerId(5), 0.5);
        e.report(PeerId(5), PeerId(6), 1.0);
        assert!(!e.contains(PeerId(5)));
    }

    #[test]
    fn unregistered_reporter_is_ignored() {
        let mut e = engine();
        e.register_peer(PeerId(1), Reputation::new(0.5));
        let before = e.reputation(PeerId(1)).unwrap();
        e.report(PeerId(99), PeerId(1), 0.0);
        assert_eq!(e.reputation(PeerId(1)).unwrap(), before);
    }

    #[test]
    fn good_service_reputation_tends_to_one() {
        // §2: "the reputation value of all cooperative peers should
        // tend to 1".
        let mut e = engine();
        for p in 0..20u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        e.register_peer(PeerId(100), Reputation::new(0.1));
        for round in 0..200 {
            let reporter = PeerId(round % 20);
            e.report(reporter, PeerId(100), 1.0);
        }
        assert!(
            e.reputation(PeerId(100)).unwrap().value() > 0.9,
            "got {}",
            e.reputation(PeerId(100)).unwrap()
        );
    }

    #[test]
    fn bad_service_reputation_tends_to_zero() {
        let mut e = engine();
        for p in 0..20u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        e.register_peer(PeerId(100), Reputation::new(0.1));
        for round in 0..300 {
            e.report(PeerId(round % 20), PeerId(100), 0.0);
        }
        assert!(
            e.reputation(PeerId(100)).unwrap().value() < 0.05,
            "got {}",
            e.reputation(PeerId(100)).unwrap()
        );
    }

    #[test]
    fn liars_lose_influence() {
        // A cooperative subject receives honest 1-opinions from many
        // peers and a constant stream of 0-opinions from one liar.
        // ROCQ's credibility must marginalize the liar: the aggregate
        // stays high.
        let mut e = engine();
        for p in 0..21u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        let subject = PeerId(0);
        let liar = PeerId(20);
        for round in 0..400u64 {
            let honest = PeerId(1 + (round % 19));
            e.report(honest, subject, 1.0);
            e.report(liar, subject, 0.0);
        }
        assert!(
            e.reputation(subject).unwrap().value() > 0.8,
            "liar dragged aggregate to {}",
            e.reputation(subject).unwrap()
        );
    }

    #[test]
    fn remove_peer_cleans_up() {
        for mut e in [engine(), crash_engine(0.5)] {
            for p in 0..10u64 {
                e.register_peer(PeerId(p), Reputation::HALF);
            }
            let overlay = e.overlay.is_some();
            e.remove_peer(PeerId(3));
            assert!(!e.contains(PeerId(3)));
            assert_eq!(e.reputation(PeerId(3)), None);
            assert_eq!(overlay_len(&mut e), overlay.then_some(9));
            // Removing again is a no-op.
            e.remove_peer(PeerId(3));
            assert_eq!(overlay_len(&mut e), overlay.then_some(9));
        }
    }

    #[test]
    fn churn_without_crashes_preserves_reputation() {
        // Crash model off (no overlay), and on with a probability no
        // roll reaches (overlay re-homing without state loss).
        for mut e in [engine(), crash_engine(1e-12)] {
            churn_preserves_reputation(&mut e);
        }
    }

    fn churn_preserves_reputation(e: &mut RocqEngine) {
        for p in 0..50u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        e.register_peer(PeerId(100), Reputation::new(0.1));
        for r in 0..100u64 {
            e.report(PeerId(r % 50), PeerId(100), 1.0);
        }
        let before = e.reputation(PeerId(100)).unwrap().value();
        // Heavy churn: 50 joins and 20 leaves.
        for p in 200..250u64 {
            e.register_peer(PeerId(p), Reputation::HALF);
        }
        for p in 0..20u64 {
            e.remove_peer(PeerId(p));
        }
        let after = e.reputation(PeerId(100)).unwrap().value();
        assert!(
            (before - after).abs() < 1e-9,
            "graceful churn must not change stored reputations: {before} -> {after}"
        );
        assert_eq!(
            e.rehomings() > 0,
            e.overlay.is_some(),
            "churn re-homes replicas exactly when the overlay is simulated"
        );
        assert_eq!(e.crash_losses(), 0);
    }

    #[test]
    fn crashes_are_masked_by_redundancy() {
        let params = RocqParams {
            crash_prob: 1.0, // every re-homing loses state
            ..Default::default()
        };
        // The reference keeps real replicas and really loses them; the
        // arena engine, whose losses could change nothing, simulates
        // no overlay at all.
        let mut e = engine_with(params, 6);
        let mut reference = ReferenceEngine::new(params, 6, 42);
        let engines: [&mut dyn ReputationEngine; 2] = [&mut e, &mut reference];
        let mut before = Vec::new();
        for x in engines {
            for p in 0..50u64 {
                x.register_peer(PeerId(p), Reputation::ONE);
            }
            x.register_peer(PeerId(100), Reputation::new(0.1));
            for r in 0..100u64 {
                x.report(PeerId(r % 50), PeerId(100), 1.0);
            }
            before.push(x.reputation(PeerId(100)).unwrap().value());
            for p in 200..230u64 {
                x.register_peer(PeerId(p), Reputation::HALF);
            }
        }
        assert!(reference.crash_losses() > 0, "crash model must have fired");
        assert_eq!((e.rehomings(), e.crash_losses()), (0, 0));
        // Every sibling is bit-equal to the lost replica, so the
        // recovery copy changes nothing.
        for (x, before) in [
            (&e as &dyn ReputationEngine, before[0]),
            (&reference, before[1]),
        ] {
            let after = x.reputation(PeerId(100)).unwrap().value();
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "redundancy failed to mask crashes: {before} -> {after}"
            );
        }
    }

    #[test]
    fn single_sm_crash_loses_state() {
        // The degenerate numSM = 1 case: a crash has no sibling to
        // recover from, so the reputation resets — the scenario the
        // paper's redundancy exists to prevent.
        let params = RocqParams {
            crash_prob: 1.0,
            ..Default::default()
        };
        let mut e = engine_with(params, 1);
        for p in 0..30u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        // Churn until some subject's single replica is re-homed.
        for p in 100..200u64 {
            e.register_peer(PeerId(p), Reputation::HALF);
        }
        assert!(e.crash_losses() > 0);
        // At least one original subject must have lost its perfect
        // reputation.
        let lost = (0..30u64).any(|p| e.reputation(PeerId(p)).unwrap().value() < 0.999);
        assert!(lost, "with numSM=1 a crash must surface as state loss");
    }

    #[test]
    fn crash_roll_is_uniform_enough() {
        // The deterministic roll replaces an RNG stream; it must
        // still look uniform over [0, 1) across replica identities.
        let n = 10_000u64;
        let mean: f64 = (0..n)
            .map(|i| crash_roll(42, PeerId(i % 500), (i % 6) as usize, i / 500))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn cached_aggregate_matches_replica_mean() {
        let mut e = engine();
        for p in 0..10u64 {
            e.register_peer(PeerId(p), Reputation::new(0.3));
        }
        for r in 0..50u64 {
            e.report(PeerId(r % 10), PeerId(0), 1.0);
        }
        e.credit(PeerId(0), 0.05);
        e.debit(PeerId(0), 0.01);
        assert_eq!(
            replica_mean(&e, PeerId(0)).unwrap().value().to_bits(),
            e.reputation(PeerId(0)).unwrap().value().to_bits(),
            "cache must stay bit-identical to the replica mean"
        );
    }

    #[test]
    fn deltas_track_every_mutation() {
        let mut e = engine();
        e.register_peer(PeerId(1), Reputation::ONE);
        e.register_peer(PeerId(2), Reputation::new(0.5));
        let mut deltas = Vec::new();
        e.drain_deltas(&mut deltas);
        assert!(deltas.is_empty(), "registration emits no deltas");

        let before = e.reputation(PeerId(2)).unwrap();
        e.report(PeerId(1), PeerId(2), 1.0);
        e.credit(PeerId(2), 0.1);
        e.debit(PeerId(2), 0.05);
        e.drain_deltas(&mut deltas);
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0].old, before, "first delta starts at the old value");
        for pair in deltas.windows(2) {
            assert_eq!(pair[0].new, pair[1].old, "deltas chain contiguously");
        }
        assert_eq!(
            deltas.last().unwrap().new,
            e.reputation(PeerId(2)).unwrap(),
            "last delta ends at the current value"
        );
        // Drained: a second drain is empty.
        let mut again = Vec::new();
        e.drain_deltas(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn batched_reports_match_sequential() {
        let batch: Vec<Feedback> = (0..40u64)
            .map(|r| Feedback::new(PeerId(r % 5), PeerId(5 + r % 3), (r % 2) as f64))
            .collect();

        let mut seq = engine();
        let mut bat = engine();
        for e in [&mut seq, &mut bat] {
            for p in 0..10u64 {
                e.register_peer(PeerId(p), Reputation::ONE);
            }
        }
        for f in &batch {
            seq.report(f.reporter, f.subject, f.opinion);
        }
        bat.report_batch(&batch);
        for p in 0..10u64 {
            assert_eq!(
                seq.reputation(PeerId(p)).unwrap().value().to_bits(),
                bat.reputation(PeerId(p)).unwrap().value().to_bits(),
                "peer {p}"
            );
        }
        // The batch path coalesces deltas per subject: net change must
        // agree with the sequential path's endpoints.
        let (mut ds, mut db) = (Vec::new(), Vec::new());
        seq.drain_deltas(&mut ds);
        bat.drain_deltas(&mut db);
        assert!(
            db.len() <= ds.len(),
            "batch emits at most one delta/subject"
        );
        for d in &db {
            let first = ds.iter().find(|x| x.subject == d.subject).unwrap();
            let last = ds.iter().rev().find(|x| x.subject == d.subject).unwrap();
            assert_eq!(d.old, first.old);
            assert_eq!(d.new, last.new);
        }
    }

    /// The two-pass apply where a value read in the warm-up pass would
    /// be stale by the time it is applied: one batch repeats the pair
    /// (1 → 2) six times, so its interaction count crosses the quality
    /// ramp's n ≥ 3 inside the batch, and the pair's credibility and
    /// subject 2's lane move with every repeat. Unknown reporters and
    /// unknown subjects are interleaved. Sequential `report` calls, the
    /// reference layout and the facade must all land on the same bits.
    #[test]
    fn repeated_pairs_in_one_batch_match_sequential_and_reference() {
        use crate::concurrent::ConcurrentEngine;
        let (a, b, c) = (PeerId(1), PeerId(2), PeerId(3));
        let (ghost_reporter, ghost_subject) = (PeerId(90), PeerId(91));
        let mut batch = Vec::new();
        for i in 0..6u64 {
            batch.push(Feedback::new(a, b, (i % 2) as f64));
            batch.push(Feedback::new(ghost_reporter, b, 1.0));
            batch.push(Feedback::new(c, b, 1.0));
            batch.push(Feedback::new(a, ghost_subject, 0.0));
            batch.push(Feedback::new(b, a, (i / 3) as f64));
        }
        let register = |e: &mut dyn ReputationEngine| {
            for p in 0..5u64 {
                e.register_peer(PeerId(p), Reputation::new(0.2 * p as f64));
            }
        };
        let (mut batched, mut sequential) = (engine(), engine());
        let mut reference = ReferenceEngine::new(RocqParams::default(), 6, 42);
        let facade = ConcurrentEngine::new(RocqParams::default(), 6, 3, 42);
        register(&mut batched);
        register(&mut sequential);
        register(&mut reference);
        for p in 0..5u64 {
            facade.register_peer(PeerId(p), Reputation::new(0.2 * p as f64));
        }
        // Twice: the second batch starts with counts of 6 already.
        for _ in 0..2 {
            batched.report_batch(&batch);
            reference.report_batch(&batch);
            facade.report_batch(&batch);
            for f in &batch {
                sequential.report(f.reporter, f.subject, f.opinion);
            }
        }
        for p in (0..5u64).map(PeerId) {
            let expected = sequential.reputation(p).unwrap().value().to_bits();
            assert_eq!(
                batched.reputation(p).unwrap().value().to_bits(),
                expected,
                "{p}"
            );
            assert_eq!(
                reference.reputation(p).unwrap().value().to_bits(),
                expected,
                "{p}"
            );
            assert_eq!(
                facade.reputation(p).unwrap().value().to_bits(),
                expected,
                "{p}"
            );
        }
        // The counts and credibilities behind the bits agree too, and
        // the facade counted each applied opinion once.
        batched.drain_deltas(&mut Vec::new());
        sequential.drain_deltas(&mut Vec::new());
        assert_eq!(export(&batched), export(&sequential));
        let hits = |p| facade.observe(p).unwrap().1;
        assert_eq!((hits(a), hits(b), hits(c)), (12, 24, 0));
    }

    #[test]
    fn crash_recovery_emits_deltas_for_changed_subjects() {
        let params = RocqParams {
            crash_prob: 1.0,
            ..Default::default()
        };
        // numSM = 1: every crash resets state to zero, so re-homed
        // subjects visibly change and must surface as deltas.
        let mut e = engine_with(params, 1);
        for p in 0..30u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        let mut deltas = Vec::new();
        e.drain_deltas(&mut deltas);
        deltas.clear();
        for p in 100..160u64 {
            e.register_peer(PeerId(p), Reputation::HALF);
        }
        e.drain_deltas(&mut deltas);
        assert!(!deltas.is_empty(), "crash-loss re-homings must emit deltas");
        // The *last* delta per subject must end at the live value.
        let mut last: PeerMap<PeerId, Reputation> = PeerMap::default();
        for d in &deltas {
            last.insert(d.subject, d.new);
        }
        for (subject, new) in last {
            assert_eq!(
                new,
                e.reputation(subject).unwrap(),
                "final delta endpoint must match the live aggregate"
            );
        }
    }

    #[test]
    fn handle_reuse_does_not_change_results() {
        // Adversarial churn: vacate slots in one order, refill in
        // another, so the free list recycles handles out of id order.
        // A fresh engine running only the surviving peers' operations
        // must agree bitwise on every surviving subject.
        let mut churned = engine();
        for p in 0..40u64 {
            churned.register_peer(PeerId(p), Reputation::ONE);
        }
        // Vacate a scattered set, then refill with new ids (recycled
        // handles) and keep reporting across old and new subjects.
        for p in [3u64, 17, 5, 29, 11, 23] {
            churned.remove_peer(PeerId(p));
        }
        for p in 100..106u64 {
            churned.register_peer(PeerId(p), Reputation::HALF);
        }
        for r in 0..200u64 {
            churned.report(PeerId(100 + r % 6), PeerId(r % 3 * 2), 1.0);
            churned.report(PeerId((r + 1) % 3 * 2), PeerId(100 + r % 6), (r % 2) as f64);
        }
        // The same trailing workload on an engine that never saw the
        // vacated peers... is not byte-comparable (ring membership
        // differs), so instead assert internal consistency: the
        // cached aggregate equals the replica mean for every live
        // subject, and the arena stayed dense (live slots ≤ peak).
        for p in (0..40u64).filter(|p| ![3, 17, 5, 29, 11, 23].contains(p)) {
            assert_eq!(
                replica_mean(&churned, PeerId(p)).unwrap().value().to_bits(),
                churned.reputation(PeerId(p)).unwrap().value().to_bits(),
                "peer {p}: cache diverged from replica mean after handle reuse"
            );
        }
        assert_eq!(
            churned.subjects_len(),
            40,
            "40 registered − 6 removed + 6 reused"
        );
        assert_eq!(
            churned.shard.alloc.capacity(),
            40,
            "re-registrations must recycle vacated slots, not grow the arena"
        );
    }

    /// The engine-owned scratch the batch path uses, as capacities —
    /// the capacity-stability side of the "allocation-free at steady
    /// state" guarantee (the counting-allocator side lives in
    /// `replend-tests`, which owns the test binary's global
    /// allocator).
    fn scratch_capacities(e: &RocqEngine) -> [usize; 4] {
        [
            e.drain_order.capacity(),
            e.shard.touched.capacity(),
            e.shard.resolved.capacity(),
            e.shard.deltas.capacity(),
        ]
    }

    #[test]
    fn steady_state_scratch_capacities_stabilise() {
        // After a warm-up batch, repeated identical batches must not
        // grow any engine-owned buffer — the "cleared, never freed"
        // contract.
        let mut e = RocqEngine::new(RocqParams::default(), 4, 9);
        for p in 0..300u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        let batch: Vec<Feedback> = (0..900u64)
            .map(|r| Feedback::new(PeerId(r % 300), PeerId((r * 7 + 1) % 300), (r % 2) as f64))
            .collect();
        let mut out = Vec::new();
        for _ in 0..2 {
            e.report_batch(&batch);
            out.clear();
            e.drain_deltas(&mut out);
        }
        let warm = scratch_capacities(&e);
        for _ in 0..5 {
            e.report_batch(&batch);
            out.clear();
            e.drain_deltas(&mut out);
        }
        assert_eq!(warm, scratch_capacities(&e), "scratch grew at steady state");
    }

    /// Sorted `(peer, cached-aggregate bits)` fingerprint.
    fn fingerprint(e: &RocqEngine) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (&p, &h) in &e.shard.index {
            out.push((p.raw(), e.shard.cached[h.index()].value().to_bits()));
        }
        out.sort_unstable();
        out
    }

    /// The whole-engine checkpoint: every reporter answers for itself.
    fn export(e: &RocqEngine) -> EngineState {
        e.export_state(|p| e.shard.incarnation_of(p))
    }

    /// A churny mixed op stream. With an overlay (crash model on,
    /// `num_sm = 1`), replica re-homing counters and crash recovery
    /// state are exercised too.
    fn churny_engine(crash_prob: f64, num_sm: usize) -> RocqEngine {
        let params = RocqParams {
            crash_prob,
            ..RocqParams::default()
        };
        let mut e = RocqEngine::new(params, num_sm, 42);
        for p in 0..60u64 {
            e.register_peer(PeerId(p), Reputation::new(0.4));
        }
        for round in 0..8u64 {
            let batch: Vec<Feedback> = (0..60u64)
                .map(|r| Feedback::new(PeerId(r), PeerId((r * 3 + round) % 60), (r % 2) as f64))
                .collect();
            e.report_batch(&batch);
        }
        for p in [3u64, 17, 41] {
            e.remove_peer(PeerId(p));
        }
        e.credit(PeerId(5), 0.2);
        e.debit(PeerId(6), 0.1);
        let mut sink = Vec::new();
        e.drain_deltas(&mut sink);
        e
    }

    /// The checkpoint correctness contract at the engine level: a
    /// restored engine is indistinguishable from the original under
    /// any further op stream — same aggregate bits, same churn
    /// counters, same crash rolls (which depend on per-replica
    /// re-homing counts surviving the round trip).
    #[test]
    fn export_import_round_trip_preserves_future_behaviour() {
        assert_round_trip_preserves_future_behaviour(churny_engine(0.3, 1));
    }

    /// The same contract without an overlay: a checkpoint with none
    /// restores an engine with none that behaves identically. A
    /// crash-on `numSM = 3` engine exports exactly what its crash-off
    /// twin does, apart from the parameters.
    #[test]
    fn crash_off_export_import_round_trip_preserves_future_behaviour() {
        assert_round_trip_preserves_future_behaviour(churny_engine(0.0, 3));
        let crash_on = export(&churny_engine(0.3, 3));
        assert_eq!(crash_on.overlay, None);
        // Debug prints every f64 in its shortest round-trip form, so
        // equal text means equal bits.
        assert_eq!(
            format!("{:?}", crash_on.shard),
            format!("{:?}", export(&churny_engine(0.0, 3)).shard)
        );
        assert_round_trip_preserves_future_behaviour(churny_engine(0.3, 3));
    }

    fn assert_round_trip_preserves_future_behaviour(mut original: RocqEngine) {
        let state = export(&original);
        assert_eq!(state, export(&original), "export is deterministic");
        assert_eq!(
            state.overlay.is_some(),
            simulates_overlay(original.params.crash_prob, original.num_sm)
        );
        let mut restored = RocqEngine::import_state(&state).expect("state imports");
        assert_eq!(fingerprint(&original), fingerprint(&restored));
        assert_eq!(original.rehomings(), restored.rehomings());
        assert_eq!(original.crash_losses(), restored.crash_losses());
        assert_eq!(overlay_len(&mut original), overlay_len(&mut restored));

        // Identical suffix ops — registrations reuse freed slots,
        // churn rolls crash losses, reports move scores.
        for e in [&mut original, &mut restored] {
            for p in 100..120u64 {
                e.register_peer(PeerId(p), Reputation::new(0.7));
            }
            for p in [9u64, 104] {
                e.remove_peer(PeerId(p));
            }
            let batch: Vec<Feedback> = (0..60u64)
                .map(|r| Feedback::new(PeerId(r % 50), PeerId((r * 7 + 2) % 60), 1.0))
                .collect();
            e.report_batch(&batch);
            e.credit(PeerId(11), 0.3);
        }
        assert_eq!(fingerprint(&original), fingerprint(&restored));
        assert_eq!(original.rehomings(), restored.rehomings());
        assert_eq!(original.crash_losses(), restored.crash_losses());
        let mut a = Vec::new();
        let mut b = Vec::new();
        original.drain_deltas(&mut a);
        restored.drain_deltas(&mut b);
        assert_eq!(a, b, "delta streams diverged after restore");
        assert_eq!(export(&original), export(&restored));
    }

    #[test]
    fn import_rejects_semantic_defects() {
        let state = export(&churny_engine(0.3, 1));

        let mut bad = state.clone();
        bad.shard.cached.pop();
        assert!(
            RocqEngine::import_state(&bad).is_err(),
            "short cached array"
        );

        let mut bad = state.clone();
        bad.shard.free.push(Handle::from_index(u32::MAX as usize));
        assert!(
            RocqEngine::import_state(&bad).is_err(),
            "foreign free handle"
        );

        let mut bad = state.clone();
        assert!(!bad.shard.book_rows.is_empty(), "churny stream grows books");
        bad.shard.book_rows.pop();
        assert!(
            RocqEngine::import_state(&bad).is_err(),
            "short book row run"
        );

        let mut bad = state.clone();
        bad.overlay.as_mut().unwrap().rehomes.pop();
        assert!(
            RocqEngine::import_state(&bad).is_err(),
            "short re-home array"
        );

        let mut bad = state.clone();
        bad.overlay.as_mut().unwrap().ring.reverse();
        assert!(RocqEngine::import_state(&bad).is_err(), "unsorted ring");

        // A sorted ring that misses a live subject, or holds one too
        // many, would move future handoff arcs.
        let mut bad = state.clone();
        bad.overlay.as_mut().unwrap().ring.pop();
        let err = RocqEngine::import_state(&bad).err().expect("refused");
        assert!(err.0.contains("ring"), "{err}");
        let mut bad = state.clone();
        let ring = &mut bad.overlay.as_mut().unwrap().ring;
        ring.push(NodeId(ring.last().unwrap().0.wrapping_add(1)));
        let err = RocqEngine::import_state(&bad).err().expect("refused");
        assert!(err.0.contains("ring"), "{err}");

        // The next occupant of a vacant handle would inherit its
        // re-home count, and with it a different crash roll.
        let mut bad = state.clone();
        let vacant = *bad.shard.free.first().expect("churny stream frees slots");
        bad.overlay.as_mut().unwrap().rehomes[vacant.index()] = 5;
        let err = RocqEngine::import_state(&bad).err().expect("refused");
        assert!(err.0.contains("vacant"), "{err}");

        let mut bad = state.clone();
        bad.num_sm = 0;
        assert!(RocqEngine::import_state(&bad).is_err(), "zero numSM");

        // Replicas never diverge, so no engine exports a cleared
        // uniformity bit: a handle whose numSM lanes are spelled out…
        let wide = export(&churny_engine(0.0, 3));
        let num_sm = wide.num_sm as usize;
        let (_, h) = wide.shard.index[0];
        let h = h.index();
        let mut bad = wide.clone();
        bad.shard.slab_uniform[h / 8] &= !(1 << (h % 8));
        let (r, w) = (bad.shard.slab_r[h], bad.shard.slab_w[h]);
        bad.shard.slab_r.splice(h..=h, vec![r; num_sm]);
        bad.shard.slab_w.splice(h..=h, vec![w; num_sm]);
        let err = RocqEngine::import_state(&bad).err().expect("refused");
        assert!(err.0.contains("uniform"), "{err}");
        // … or a credibility row whose numSM values are spelled out.
        let mut bad = wide;
        bad.shard.book_row_uniform[0] &= !1;
        let cred = bad.shard.book_rows[0];
        bad.shard.book_rows.splice(0..=0, vec![cred; num_sm]);
        let err = RocqEngine::import_state(&bad).err().expect("refused");
        assert!(err.0.contains("uniform"), "{err}");

        // An overlay travels exactly when the crash model is on and
        // numSM = 1, so its presence must agree with both, in both
        // directions.
        let mut missing = state.clone();
        missing.overlay = None;
        let err = RocqEngine::import_state(&missing).err().expect("refused");
        assert!(err.0.contains("overlay"), "{err}");
        let mut stray = export(&churny_engine(0.0, 1));
        stray.overlay = state.overlay.clone();
        let err = RocqEngine::import_state(&stray).err().expect("refused");
        assert!(err.0.contains("overlay"), "{err}");
        let mut stray = export(&churny_engine(0.3, 3));
        stray.overlay = state.overlay;
        let err = RocqEngine::import_state(&stray).err().expect("refused");
        assert!(err.0.contains("overlay"), "{err}");
    }
}
