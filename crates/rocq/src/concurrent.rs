//! [`ConcurrentEngine`]: a lock-per-partition concurrent facade over
//! the arena engine with an epoch-versioned **wait-free read path**,
//! built for the serve layer's read-while-ingest workload.
//!
//! ## Layout
//!
//! The subject space is split by a splitmix64 hash of the peer id
//! into `P` partitions, each holding a full [`RocqEngine`] behind its own
//! `RwLock` **plus** a [`SnapshotSlab`] — an atomically readable copy
//! of the two hot read fields (cached aggregate reputation and
//! applied-report count) guarded by a seqlock-style epoch counter. A
//! subject's entire state lives in exactly one partition, so:
//!
//! * `reputation()` / `observe()` / status and census reads go
//!   to the slab **without taking the partition lock at all**: they
//!   load the epoch, read, and re-validate the epoch, retrying on a
//!   torn window (see the [`snapshot`](crate::snapshot) module docs
//!   for the protocol). Reads never wait for a batch to finish
//!   applying — not even on their own partition.
//! * `report_batch` groups the batch by home partition and
//!   write-locks each touched partition in turn — never more than one
//!   lock at a time, so the facade cannot deadlock (the one holder of
//!   several locks, a checkpoint export, takes only read locks, in
//!   index order). Under the lock, the **subject pass** maps each
//!   opinion's subject to its handle by a probe of the partition's
//!   own slab, quiescent while the lock is held, and drops opinions
//!   on unregistered subjects. The engine applies the group by those
//!   handles with no index probe of its own (a warm-up pass, then the
//!   apply in batch order). The mutator then opens one slab write
//!   (epoch odd), runs one pass over the applied opinions' handles
//!   that copies each subject's cached aggregate and counts its
//!   interactions, and publishes (epoch even) — so the slab jumps
//!   atomically from the pre-batch to the post-batch state.
//!
//! A subject's slab slot **is** its engine handle: registration,
//! re-registration and checkpoint import insert the subject at the
//! handle the engine holds it under, and the slab allocates no slots of
//! its own. So the slab answers the engine's `PeerId → Handle` lookup
//! for the subject pass, and the publish pass indexes the slab by
//! handle, with no peer→slot probe and no sorted delta drain. Debug
//! builds check every resolved handle against the engine's index. The
//! rare mutations (credit, debit, and the lane resets the crash model
//! causes during registration and removal) publish their drained
//! deltas by a by-subject probe instead, inside the window of the
//! mutation that caused them.
//!
//! Any member may report on any subject, so membership is
//! community-wide: it is the union of the partitions' slabs. A peer
//! registers in its home partition alone, and `report_batch` gates
//! each reporter by a lock-free probe of the reporter's home slab,
//! taken while grouping, before any lock or slab write window. Both
//! the gate and the subject pass prefetch the slab bucket of the
//! opinion eight ahead, so the cache misses of neighbouring probes
//! overlap instead of stalling one opinion at a time. The gate's probe
//! also reads the reporter's registration incarnation, which travels
//! with the opinion to the subject's partition: the interaction count
//! there is tagged with it and reads as 0 once the reporter
//! re-registers. So removal takes only the home partition's
//! lock — a departed reporter's counts in other partitions go stale
//! without being visited. The tag also settles the race of a
//! `report_batch` that passed the gate before a concurrent removal:
//! the count it records belongs to the old incarnation.
//!
//! ## Consistency model
//!
//! Every individual subject is **linearizable**: all of its writes go
//! through its home partition's lock, and a slab read observes
//! exactly one published (pre- or post-mutation) state — never a mix
//! of the two, pinned by the interleaving suite in `replend-tests`.
//! Cross-subject reads (a histogram sweep, two `reputation()` calls)
//! are *not* a consistent global snapshot across partitions — a
//! concurrent batch may be applied to partition 2 after partition 1
//! was read. Within one partition, a census sweep **is** coherent:
//! [`ConcurrentEngine::for_each_subject`] retries the lock-free sweep
//! a few times and falls back to the partition read lock (where a
//! single attempt cannot fail) under sustained ingest.
//!
//! ## Determinism
//!
//! Mutations applied in the same order produce bit-identical state —
//! the property the serve layer's write-ahead journal replay relies
//! on. With the crash model off (`crash_prob == 0`, the serve
//! default) the facade's aggregates are bit-identical to a monolithic
//! [`RocqEngine`] fed the same operation stream, and the slab read
//! path returns the engine's cached aggregate bits — pinned by the
//! serve and snapshot-read suites in `replend-tests`.

use crate::engine::{ReputationEngine, Resolved, RocqEngine};
use crate::params::RocqParams;
use crate::slab::PREFETCH_DISTANCE;
use crate::snapshot::{SlabWriter, SnapshotSlab};
use crate::state::{InvalidState, PartitionCheckpoint};
use replend_types::arena::Handle;
use replend_types::hash::{salted, splitmix64, PeerMap};
use replend_types::{Feedback, PeerId, Reputation, ReputationDelta};
use std::borrow::Borrow;
use std::sync::{RwLock, RwLockReadGuard};

/// Lock-free sweep attempts before a census falls back to the
/// partition read lock. Ingest holds the slab's write window only for
/// the post-batch sync, so a handful of retries almost always lands
/// in a quiet window; the fallback bounds the worst case.
const SWEEP_ATTEMPTS: usize = 4;

/// The partition owning `peer` among `partitions` — the facade's
/// single partition function (splitmix64 scatters the dense simulation
/// ids uniformly, so partition loads stay balanced without
/// coordination).
#[inline]
fn partition_of(peer: PeerId, partitions: usize) -> usize {
    (splitmix64(peer.raw()) % partitions as u64) as usize
}

/// One lockable partition: an engine plus the mutator-side
/// scratch. The hot read fields live outside the lock, in the cell's
/// [`SnapshotSlab`].
struct Partition {
    engine: RocqEngine,
    /// Drain scratch for slab sync: cleared, never freed.
    delta_scratch: Vec<ReputationDelta>,
    /// The subject pass's output: the group's opinions on live
    /// subjects, each with its subject's handle (cleared, never freed).
    resolved: Vec<Resolved>,
}

/// A partition cell: the lock-guarded mutable state side by side with
/// the lock-free read slab. Slab writes happen only while holding the
/// partition write lock, so slab readers race with at most one
/// publisher.
struct Cell {
    lock: RwLock<Partition>,
    slab: SnapshotSlab,
}

impl Partition {
    fn new(engine: RocqEngine) -> Self {
        Partition {
            engine,
            delta_scratch: Vec::new(),
            resolved: Vec::new(),
        }
    }

    /// Drains the engine's pending aggregate deltas into the slab
    /// through the open write window `w`. Each delta finds its slot by
    /// a by-subject probe of the slab's table: the path of the rare
    /// mutations (credit, debit, and the crash model's lane resets
    /// during registration and removal). The drain order is mutation
    /// order within a subject, so its last delta, the current
    /// aggregate, is the one that stays.
    fn publish_deltas(&mut self, w: &mut SlabWriter<'_>) {
        self.engine.drain_deltas(&mut self.delta_scratch);
        for d in self.delta_scratch.drain(..) {
            if let Some(slot) = w.slot_of(d.subject) {
                w.set_reputation(slot, d.new.value().to_bits());
            }
        }
    }
}

/// The concurrent facade. All methods take `&self`; locking is
/// internal and per-partition, and the hot reads take no lock. See
/// the module docs for the layout and consistency model.
pub struct ConcurrentEngine {
    cells: Vec<Cell>,
}

impl ConcurrentEngine {
    /// A facade over `partitions` engines. Partition `i`
    /// rolls crash losses from `salted(seed, i)`, so distinct
    /// partitions never share a roll stream.
    ///
    /// # Panics
    /// If `params` fail validation or `num_sm` / `partitions` is zero.
    pub fn new(params: RocqParams, num_sm: usize, partitions: usize, seed: u64) -> Self {
        Self::with_read_epoch(params, num_sm, partitions, seed, 0)
    }

    /// [`ConcurrentEngine::new`] with the partitions' snapshot epochs
    /// seeded at `epoch0` — the epoch protocol compares equality
    /// only, and the interleaving suite uses this to drive reads
    /// across the `u64` wraparound. `epoch0` must be even.
    #[doc(hidden)]
    pub fn with_read_epoch(
        params: RocqParams,
        num_sm: usize,
        partitions: usize,
        seed: u64,
        epoch0: u64,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        ConcurrentEngine {
            cells: (0..partitions)
                .map(|i| Cell {
                    lock: RwLock::new(Partition::new(RocqEngine::new(
                        params,
                        num_sm,
                        salted(seed, i as u64),
                    ))),
                    slab: SnapshotSlab::with_epoch(epoch0),
                })
                .collect(),
        }
    }

    fn home(&self, peer: PeerId) -> &Cell {
        &self.cells[partition_of(peer, self.cells.len())]
    }

    /// Registers a subject with `initial` reputation in its home
    /// partition — the only lock taken. Idempotent, like
    /// [`ReputationEngine::register_peer`].
    pub fn register_peer(&self, peer: PeerId, initial: Reputation) {
        self.register_batch(&[(peer, initial)]);
    }

    /// Registers a batch of subjects, grouped by home partition: each
    /// touched cell takes one write lock and one snapshot epoch
    /// window, and each peer is visited once. The engine's index and
    /// arrays and the slab's table and value arrays are sized once for
    /// the whole group rather than doubled up to it. Final state is
    /// bit-identical to registering the peers one at a time in batch
    /// order: partition engines are independent and each sees its
    /// operations in the same order either way.
    pub fn register_batch(&self, batch: &[(PeerId, Reputation)]) {
        let n = self.cells.len();
        let mut groups: Vec<Vec<(PeerId, Reputation)>> = vec![Vec::new(); n];
        for &entry in batch {
            groups[partition_of(entry.0, n)].push(entry);
        }
        for (cell, group) in self.cells.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut p = cell.lock.write().expect("partition lock poisoned");
            let p = &mut *p;
            p.engine.reserve(group.len());
            // The slot is the handle the registration returns.
            let handles: Vec<Handle> = group
                .iter()
                .map(|&(peer, initial)| p.engine.register(peer, initial))
                .collect();
            // One epoch window per partition: a reader sees the slab
            // before or after this cell's share of the batch, never a
            // half-registered group.
            let mut w = cell.slab.write();
            w.reserve(p.engine.capacity(), group.len());
            for (&(peer, _), h) in group.iter().zip(handles) {
                let slot = h.index() as u32;
                w.insert(peer, slot);
                debug_assert_eq!(w.slot_of(peer), Some(slot), "slab slot is not the handle");
                // Engine values, not `initial`: re-registration keeps
                // the existing score and incarnation, and the slab
                // must stay bit-identical to the engine either way.
                w.set_reputation(slot, p.engine.reputation_at(h).value().to_bits());
                w.set_incarnation(slot, p.engine.incarnation_at(h));
            }
            // With the crash model on, a join can reset other subjects'
            // lanes; those resets land in the same window.
            p.publish_deltas(&mut w);
        }
    }

    /// Removes a subject from its home partition — the only lock
    /// taken. Its interaction counts as a reporter, held in other
    /// partitions, go stale with its incarnation, so a re-registered
    /// peer restarts at interaction count 0 exactly as in one engine.
    pub fn remove_peer(&self, peer: PeerId) {
        let cell = self.home(peer);
        let mut p = cell.lock.write().expect("partition lock poisoned");
        let p = &mut *p;
        if !p.engine.contains(peer) {
            return;
        }
        p.engine.remove_peer(peer);
        // The departure and the lane resets its leave may cause under
        // the crash model are one published state.
        let mut w = cell.slab.write();
        w.remove(peer);
        p.publish_deltas(&mut w);
    }

    /// True when `peer` is a registered subject — a lock-free slab
    /// probe.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.home(peer).slab.contains(peer)
    }

    /// Total registered subjects (lock-free).
    pub fn len(&self) -> usize {
        self.cells.iter().map(|c| c.slab.len()).sum()
    }

    /// True when no subject is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers a batch of opinions, with per-element semantics
    /// identical to [`ReputationEngine::report_batch`] on a monolithic
    /// engine. Both ends of every opinion resolve at the read slabs,
    /// in loops that prefetch the slab bucket of the opinion eight
    /// ahead, so neighbouring probes overlap their cache misses:
    ///
    /// 1. **The reporter gate**, before any lock or write window: a
    ///    lock-free probe of the reporter's home slab for its
    ///    incarnation drops a non-member's opinion and tags a member's;
    ///    the opinion joins its subject's partition group.
    /// 2. **The subject pass**, per group under the partition write
    ///    lock and before the slab's write window opens: each
    ///    subject's slot, which is its engine handle, read from the
    ///    partition's own slab. Only this thread can write that slab
    ///    now, so the read never retries. An unregistered subject's
    ///    opinion is dropped here.
    /// 3. **The engine** applies the group by handle, with no index
    ///    probe.
    /// 4. **The publish**: one slab write window per group, one pass
    ///    over the group's handles (the slots again, so it indexes and
    ///    never probes).
    pub fn report_batch(&self, batch: &[Feedback]) {
        let n = self.cells.len();
        let mut groups: Vec<Vec<(Feedback, u64)>> = vec![Vec::new(); n];
        for (i, f) in batch.iter().enumerate() {
            if let Some(ahead) = batch.get(i + PREFETCH_DISTANCE) {
                self.home(ahead.reporter).slab.prefetch(ahead.reporter);
            }
            // A seqlock read, so it must run outside every slab write
            // window: a read of a slab inside its own window would
            // spin forever.
            if let Some(tag) = self.home(f.reporter).slab.incarnation(f.reporter) {
                groups[partition_of(f.subject, n)].push((*f, tag));
            }
        }
        for (cell, group) in self.cells.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut p = cell.lock.write().expect("partition lock poisoned");
            let p = &mut *p;
            p.resolved.clear();
            for (i, &(f, tag)) in group.iter().enumerate() {
                if let Some((ahead, _)) = group.get(i + PREFETCH_DISTANCE) {
                    cell.slab.prefetch(ahead.subject);
                }
                let subject = cell
                    .slab
                    .slot(f.subject)
                    .map(|slot| Handle::from_index(slot as usize));
                debug_assert_eq!(
                    subject,
                    p.engine.handle_of(f.subject),
                    "slab slot is not the handle"
                );
                if let Some(subject) = subject {
                    p.resolved.push(Resolved {
                        reporter: f.reporter,
                        tag,
                        subject,
                        opinion: f.opinion,
                    });
                }
            }
            p.engine.report_resolved_batch(&p.resolved);
            // One epoch window covers the whole group: aggregate
            // moves and interaction counts land together, so a read
            // sees the pre-group or the post-group state, never a
            // half-applied group. Every applied opinion counts one
            // interaction and republishes its subject's cached
            // aggregate, which the engine refreshed after the last one.
            {
                let mut w = cell.slab.write();
                for r in &p.resolved {
                    let slot = r.subject.index() as u32;
                    w.set_reputation(slot, p.engine.reputation_at(r.subject).value().to_bits());
                    w.add_hits(slot, 1);
                }
            }
            // The window above published every aggregate the batch
            // moved, so the deltas need no sorted drain.
            p.engine.discard_deltas();
        }
    }

    /// Directly raises `subject`'s reputation (lending repayment).
    pub fn credit(&self, subject: PeerId, amount: f64) {
        let cell = self.home(subject);
        let mut p = cell.lock.write().expect("partition lock poisoned");
        let p = &mut *p;
        p.engine.credit(subject, amount);
        p.publish_deltas(&mut cell.slab.write());
    }

    /// Directly lowers `subject`'s reputation (lending stake).
    pub fn debit(&self, subject: PeerId, amount: f64) {
        let cell = self.home(subject);
        let mut p = cell.lock.write().expect("partition lock poisoned");
        let p = &mut *p;
        p.engine.debit(subject, amount);
        p.publish_deltas(&mut cell.slab.write());
    }

    /// The aggregate reputation of `subject` — a lock-free,
    /// epoch-validated slab read of the engine's cached aggregate bits.
    pub fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.observe(subject).map(|(reputation, _)| reputation)
    }

    /// The coherent `(reputation, interactions)` pair of `subject` from
    /// one epoch window — the evidence admission control classifies —
    /// or `None` when it is not a subject. Lock-free, like
    /// [`ConcurrentEngine::reputation`].
    pub fn observe(&self, subject: PeerId) -> Option<(Reputation, u64)> {
        self.home(subject)
            .slab
            .read(subject)
            .map(|(bits, hits)| (Reputation::new(f64::from_bits(bits)), hits))
    }

    /// Visits every subject with its cached aggregate *and* its
    /// applied-report count — the pair the serve layer's status tiers
    /// are derived from. Each partition's sweep is **coherent** (one
    /// epoch window): the lock-free attempt retries a few times under
    /// ingest and then falls back to the partition read lock, where a
    /// single attempt cannot fail. Partitions are visited in index
    /// order; this is not a cross-partition snapshot. Iteration order
    /// within a partition is unspecified.
    pub fn for_each_subject(&self, mut f: impl FnMut(PeerId, Reputation, u64)) {
        let mut sweep: Vec<(u64, u64, u64)> = Vec::new();
        for cell in &self.cells {
            let mut coherent = false;
            for _ in 0..SWEEP_ATTEMPTS {
                if cell.slab.try_sweep(&mut sweep) {
                    coherent = true;
                    break;
                }
                std::thread::yield_now();
            }
            if !coherent {
                // The read lock excludes every slab writer, so this
                // attempt observes a quiescent slab.
                let _p = cell.lock.read().expect("partition lock poisoned");
                let ok = cell.slab.try_sweep(&mut sweep);
                debug_assert!(ok, "sweep under the partition read lock cannot tear");
            }
            for &(peer, bits, hits) in &sweep {
                f(PeerId(peer), Reputation::new(f64::from_bits(bits)), hits);
            }
        }
    }

    /// Exports every partition's state for checkpointing:
    /// [`ConcurrentEngine::export_partitions_with`] keeping each
    /// partition as it is.
    pub fn export_partitions(&self) -> Vec<PartitionCheckpoint> {
        self.export_partitions_with(|part| part)
    }

    /// Exports every partition's state for checkpointing, built
    /// **partition-parallel** over the rayon pool (each partition's
    /// export — the expensive sort-and-copy of its arena — is
    /// independent work), and hands each partition to `consume` in
    /// the same task, as soon as it is built. Returns what `consume`
    /// returns, in partition order. A consumer that encodes its
    /// partition frees the exported vectors once the encoding exists,
    /// so at most one exported partition per pool worker is alive at
    /// a time.
    ///
    /// Every partition's read lock is held for the whole export, so
    /// each partition is internally consistent; for a globally
    /// consistent checkpoint the caller must exclude mutators for the
    /// duration (the serve layer holds its journal lock, which every
    /// mutation path takes first). A book row's interaction count is
    /// exported as its reporter reads it, through the reporter's
    /// current incarnation: every member's incarnation is read once,
    /// under those locks, into one map that every row then probes.
    pub fn export_partitions_with<T: Send>(
        &self,
        consume: impl Fn(PartitionCheckpoint) -> T + Sync,
    ) -> Vec<T> {
        use rayon::prelude::*;
        // Read locks in index order: a mutator holds at most one
        // partition lock at a time, so it never waits on a lock held
        // here while holding one this export waits for.
        let guards: Vec<RwLockReadGuard<'_, Partition>> = self
            .cells
            .iter()
            .map(|cell| cell.lock.read().expect("partition lock poisoned"))
            .collect();
        let members = guards.iter().map(|p| p.engine.subjects_len()).sum();
        let mut incarnations: PeerMap<PeerId, u64> =
            PeerMap::with_capacity_and_hasher(members, Default::default());
        for p in &guards {
            incarnations.extend(p.engine.incarnations());
        }
        (0..guards.len())
            .into_par_iter()
            .map(|i| {
                let (cell, p) = (&self.cells[i], &guards[i]);
                let engine = p
                    .engine
                    .export_state(|reporter| incarnations.get(&reporter).copied());
                // The read lock excludes every slab writer, so one
                // sweep attempt observes a quiescent slab. Only the
                // applied-report counts travel: the reputation bits
                // are pinned to the engine's cached aggregates, which
                // the import republishes.
                let mut swept: Vec<(u64, u64, u64)> = Vec::new();
                let ok = cell.slab.try_sweep(&mut swept);
                debug_assert!(ok, "sweep under the partition read lock cannot tear");
                let mut slab: Vec<(u64, u64)> = swept
                    .into_iter()
                    .map(|(peer, bits, hits)| {
                        debug_assert_eq!(
                            Some(bits),
                            p.engine
                                .reputation(PeerId(peer))
                                .map(|r| r.value().to_bits()),
                            "published slab bits diverged from the engine"
                        );
                        (peer, hits)
                    })
                    .collect();
                slab.sort_unstable_by_key(|&(peer, _)| peer);
                consume(PartitionCheckpoint { engine, slab })
            })
            .collect()
    }

    /// Rebuilds a facade from exported partitions — the inverse of
    /// [`ConcurrentEngine::export_partitions`]:
    /// [`ConcurrentEngine::import_partitions_with`] over a slice.
    pub fn import_partitions(parts: &[PartitionCheckpoint]) -> Result<Self, InvalidState> {
        Self::import_partitions_with(parts.len(), |i| Ok(&parts[i]))
    }

    /// Rebuilds a facade of `partitions` partitions, taking partition
    /// `i` from `load(i)` — the inverse of
    /// [`ConcurrentEngine::export_partitions_with`]. Each partition is
    /// loaded and built in its own task, partition-parallel over the
    /// rayon pool, and an owned partition `load` returns (a decoded
    /// one, say) is freed as soon as its partition is built, so at
    /// most one loaded partition per pool worker is alive at a time.
    /// The restored engine's future behaviour is bit-identical to the
    /// exported one's under any further operation stream.
    ///
    /// A partition `load` refuses fails the import with its
    /// [`InvalidState`]. Beyond the per-partition engine checks, this
    /// requires every subject to sit in its home partition (so no peer
    /// lives in two partitions, and the union of the slabs is the
    /// membership), cross-validates the slab rows against the restored
    /// engine (every row must name a live subject of its partition,
    /// one row per subject) and republishes the engine's cached
    /// aggregate bits into the slab, so a corrupt checkpoint surfaces
    /// as [`InvalidState`] here rather than as a silent
    /// read/locked-path divergence later.
    pub fn import_partitions_with<P: Borrow<PartitionCheckpoint>>(
        partitions: usize,
        load: impl Fn(usize) -> Result<P, InvalidState> + Sync,
    ) -> Result<Self, InvalidState> {
        if partitions == 0 {
            return Err(InvalidState("no partitions".into()));
        }
        use rayon::prelude::*;
        let cells: Vec<Result<Cell, InvalidState>> = (0..partitions)
            .into_par_iter()
            .map(|i| {
                let part = load(i)?;
                let part = part.borrow();
                if let Some(&(peer, _)) = part
                    .engine
                    .shard
                    .index
                    .iter()
                    .find(|&&(peer, _)| partition_of(peer, partitions) != i)
                {
                    return Err(InvalidState(format!(
                        "subject {peer} in partition {i}, but its home is {}",
                        partition_of(peer, partitions)
                    )));
                }
                let engine = RocqEngine::import_state(&part.engine)?;
                if part.slab.len() != engine.subjects_len() {
                    return Err(InvalidState(format!(
                        "slab rows {} != live subjects {}",
                        part.slab.len(),
                        engine.subjects_len()
                    )));
                }
                // Export writes rows sorted by peer. A repeated peer
                // would leave another subject without a slab row.
                if let Some(w) = part.slab.windows(2).find(|w| w[0].0 >= w[1].0) {
                    return Err(InvalidState(format!(
                        "slab rows out of order: subject {} after {}",
                        w[1].0, w[0].0
                    )));
                }
                let slab = SnapshotSlab::new();
                {
                    let mut w = slab.write();
                    // Every slot is a handle below the arena capacity.
                    w.reserve(engine.capacity(), part.slab.len());
                    for &(peer, hits) in &part.slab {
                        let h = engine.handle_of(PeerId(peer)).ok_or_else(|| {
                            InvalidState(format!("slab row for unknown subject {peer}"))
                        })?;
                        // The slot is the restored engine handle.
                        let slot = h.index() as u32;
                        w.insert(PeerId(peer), slot);
                        debug_assert_eq!(w.slot_of(PeerId(peer)), Some(slot));
                        w.set_reputation(slot, engine.reputation_at(h).value().to_bits());
                        w.add_hits(slot, hits);
                        w.set_incarnation(slot, engine.incarnation_at(h));
                    }
                }
                Ok(Cell {
                    lock: RwLock::new(Partition::new(engine)),
                    slab,
                })
            })
            .collect();
        Ok(ConcurrentEngine {
            cells: cells.into_iter().collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EngineState;
    use proptest::prelude::*;

    fn engine(partitions: usize) -> ConcurrentEngine {
        ConcurrentEngine::new(RocqParams::default(), 6, partitions, 42)
    }

    /// Reports applied to `subject` so far (`None` when unknown), read
    /// lock-free from the slab.
    fn interactions(e: &ConcurrentEngine, subject: PeerId) -> Option<u64> {
        e.observe(subject).map(|(_, hits)| hits)
    }

    /// The aggregate reputation of `subject` read from the engine under
    /// its partition's read lock, bypassing the slab — the oracle the
    /// lock-free [`ConcurrentEngine::reputation`] must match bit for
    /// bit.
    fn locked_reputation(e: &ConcurrentEngine, subject: PeerId) -> Option<Reputation> {
        let partition = e.home(subject).lock.read().unwrap();
        partition.engine.reputation(subject)
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        ConcurrentEngine::new(RocqParams::default(), 6, 0, 0);
    }

    #[test]
    fn register_query_remove() {
        let e = engine(4);
        for p in 0..50u64 {
            e.register_peer(PeerId(p), Reputation::new(0.5));
        }
        assert_eq!(e.len(), 50);
        assert!(e.contains(PeerId(7)));
        assert_eq!(interactions(&e, PeerId(7)), Some(0));
        assert!((e.reputation(PeerId(7)).unwrap().value() - 0.5).abs() < 1e-12);
        assert_eq!(e.reputation(PeerId(99)), None);
        assert_eq!(interactions(&e, PeerId(99)), None);
        e.remove_peer(PeerId(7));
        assert!(!e.contains(PeerId(7)));
        assert_eq!(e.len(), 49);
    }

    #[test]
    fn partitions_spread_subjects() {
        let e = engine(4);
        for p in 0..400u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        let loads: Vec<usize> = e.cells.iter().map(|c| c.slab.len()).collect();
        assert_eq!(loads.iter().sum::<usize>(), 400);
        for (i, &l) in loads.iter().enumerate() {
            assert!((50..=150).contains(&l), "partition {i} holds {l} of 400");
        }
    }

    #[test]
    fn cross_partition_reports_are_applied_and_counted() {
        let e = engine(4);
        for p in 0..40u64 {
            e.register_peer(PeerId(p), Reputation::ONE);
        }
        e.register_peer(PeerId(100), Reputation::new(0.1));
        // Reporters hash to all partitions; the subject lives in one.
        let batch: Vec<Feedback> = (0..40u64)
            .map(|r| Feedback::new(PeerId(r), PeerId(100), 1.0))
            .collect();
        for _ in 0..5 {
            e.report_batch(&batch);
        }
        assert!(
            e.reputation(PeerId(100)).unwrap().value() > 0.9,
            "got {}",
            e.reputation(PeerId(100)).unwrap()
        );
        assert_eq!(interactions(&e, PeerId(100)), Some(200));
        // Unknown reporters and unknown subjects are not counted.
        e.report_batch(&[
            Feedback::new(PeerId(999), PeerId(100), 0.0),
            Feedback::new(PeerId(0), PeerId(998), 0.0),
        ]);
        assert_eq!(interactions(&e, PeerId(100)), Some(200));
    }

    #[test]
    fn credit_debit_and_snapshot() {
        let e = engine(3);
        e.register_peer(PeerId(1), Reputation::new(0.5));
        e.debit(PeerId(1), 0.2);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.3).abs() < 1e-12);
        e.credit(PeerId(1), 0.4);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.7).abs() < 1e-12);
        assert_eq!(locked_reputation(&e, PeerId(1)), e.reputation(PeerId(1)));
    }

    #[test]
    fn same_ops_same_bits_across_instances() {
        let run = || {
            let e = engine(4);
            for p in 0..60u64 {
                e.register_peer(PeerId(p), Reputation::new(0.4));
            }
            for round in 0..20u64 {
                let batch: Vec<Feedback> = (0..60u64)
                    .map(|r| Feedback::new(PeerId(r), PeerId((r + round) % 60), 1.0))
                    .collect();
                e.report_batch(&batch);
            }
            e.remove_peer(PeerId(3));
            e.credit(PeerId(5), 0.1);
            census(&e)
        };
        assert_eq!(run(), run());
    }

    /// The snapshot read path and the locked read path are the same
    /// numbers down to the bit, for every subject, after a mixed op
    /// stream — the slab is a copy of the engine's hot fields, not a
    /// reimplementation.
    #[test]
    fn snapshot_reads_match_locked_reads_bit_for_bit() {
        let e = engine(4);
        for p in 0..80u64 {
            e.register_peer(PeerId(p), Reputation::new(p as f64 / 80.0));
        }
        for round in 0..15u64 {
            let batch: Vec<Feedback> = (0..80u64)
                .map(|r| {
                    Feedback::new(
                        PeerId(r),
                        PeerId((r * 7 + round) % 80),
                        if (r + round) % 3 == 0 { 0.0 } else { 1.0 },
                    )
                })
                .collect();
            e.report_batch(&batch);
        }
        e.credit(PeerId(3), 0.2);
        e.debit(PeerId(4), 0.3);
        e.remove_peer(PeerId(5));
        for p in 0..80u64 {
            let snap = e.reputation(PeerId(p));
            let locked = locked_reputation(&e, PeerId(p));
            assert_eq!(
                snap.map(|r| r.value().to_bits()),
                locked.map(|r| r.value().to_bits()),
                "peer {p} diverged between slab and locked reads"
            );
        }
    }

    /// Sorted `(peer, reputation bits, applied reports)` across every
    /// partition — the full observable read state.
    fn census(e: &ConcurrentEngine) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        e.for_each_subject(|p, r, h| out.push((p.raw(), r.value().to_bits(), h)));
        out.sort_unstable();
        out
    }

    #[test]
    fn register_batch_matches_per_peer_loop_bit_for_bit() {
        let batch: Vec<(PeerId, Reputation)> = (0..70u64)
            .map(|p| (PeerId(p), Reputation::new(p as f64 / 70.0)))
            .collect();
        let looped = engine(4);
        for &(p, r) in &batch {
            looped.register_peer(p, r);
        }
        let bulk = engine(4);
        bulk.register_batch(&batch);
        assert_eq!(census(&looped), census(&bulk));

        // Re-registration keeps the existing score on both paths, and
        // a shared feedback suffix lands on the same bits.
        let again: Vec<(PeerId, Reputation)> =
            (60..80u64).map(|p| (PeerId(p), Reputation::HALF)).collect();
        for &(p, r) in &again {
            looped.register_peer(p, r);
        }
        bulk.register_batch(&again);
        let feedback: Vec<Feedback> = (0..80u64)
            .map(|r| Feedback::new(PeerId(r), PeerId((r * 3 + 1) % 80), (r % 2) as f64))
            .collect();
        looped.report_batch(&feedback);
        bulk.report_batch(&feedback);
        assert_eq!(census(&looped), census(&bulk));
    }

    #[test]
    fn partition_export_import_round_trips_bit_for_bit() {
        let e = engine(4);
        e.register_batch(
            &(0..90u64)
                .map(|p| (PeerId(p), Reputation::new(0.4)))
                .collect::<Vec<_>>(),
        );
        for round in 0..10u64 {
            let batch: Vec<Feedback> = (0..90u64)
                .map(|r| Feedback::new(PeerId(r), PeerId((r * 7 + round) % 90), 1.0))
                .collect();
            e.report_batch(&batch);
        }
        e.remove_peer(PeerId(13));
        e.credit(PeerId(2), 0.2);
        e.debit(PeerId(4), 0.1);

        let parts = e.export_partitions();
        let restored = ConcurrentEngine::import_partitions(&parts).expect("partitions import");
        assert_eq!(census(&e), census(&restored));

        // Future behaviour: the same suffix ops land on the same bits
        // through both read paths.
        for engine in [&e, &restored] {
            engine.register_peer(PeerId(200), Reputation::HALF);
            let batch: Vec<Feedback> = (0..90u64)
                .map(|r| Feedback::new(PeerId(r), PeerId((r + 5) % 90), 0.0))
                .collect();
            engine.report_batch(&batch);
            engine.remove_peer(PeerId(7));
        }
        assert_eq!(census(&e), census(&restored));
        for p in 0..90u64 {
            assert_eq!(
                restored.reputation(PeerId(p)).map(|r| r.value().to_bits()),
                locked_reputation(&restored, PeerId(p)).map(|r| r.value().to_bits()),
                "slab and locked reads diverged after restore for peer {p}"
            );
        }
    }

    #[test]
    fn import_rejects_torn_slab_state() {
        let e = engine(2);
        e.register_batch(
            &(0..20u64)
                .map(|p| (PeerId(p), Reputation::new(0.6)))
                .collect::<Vec<_>>(),
        );
        let parts = e.export_partitions();

        let mut bad = parts.clone();
        bad[0].slab.pop();
        assert!(
            ConcurrentEngine::import_partitions(&bad).is_err(),
            "missing slab row"
        );

        let mut bad = parts.clone();
        if let Some(row) = bad[0].slab.first_mut() {
            row.0 = u64::MAX; // a peer the partition engine never registered
        }
        assert!(
            ConcurrentEngine::import_partitions(&bad).is_err(),
            "slab row for a foreign subject"
        );

        let mut bad = parts.clone();
        bad[0].slab[1] = bad[0].slab[0];
        assert!(
            ConcurrentEngine::import_partitions(&bad).is_err(),
            "one subject named by two slab rows"
        );

        assert!(
            ConcurrentEngine::import_partitions(&[]).is_err(),
            "no partitions"
        );

        // Whole partitions in the wrong places: every subject readable
        // through `reputation()` must sit in its home partition.
        let e = engine(4);
        e.register_batch(
            &(0..40u64)
                .map(|p| (PeerId(p), Reputation::new(0.6)))
                .collect::<Vec<_>>(),
        );
        let mut bad = e.export_partitions();
        bad.swap(1, 2);
        assert!(
            ConcurrentEngine::import_partitions(&bad).is_err(),
            "partitions swapped out of their home slots"
        );
    }

    /// A departure takes only the home partition's lock: with another
    /// partition write-locked by this thread, `remove_peer` of a peer
    /// homed elsewhere still returns.
    #[test]
    fn remove_peer_locks_only_the_home_partition() {
        let e = engine(4);
        for p in 0..40u64 {
            e.register_peer(PeerId(p), Reputation::HALF);
        }
        // The peer reports on subjects in every partition first, so
        // each partition holds its interaction counts.
        let peer = PeerId(3);
        let batch: Vec<Feedback> = (0..40u64)
            .map(|s| Feedback::new(peer, PeerId(s), 1.0))
            .collect();
        e.report_batch(&batch);
        let home = partition_of(peer, 4);
        let foreign = (home + 1) % 4;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let guard = e.cells[foreign].lock.write().unwrap();
            scope.spawn(|| {
                e.remove_peer(peer);
                done.send(()).unwrap();
            });
            let returned = finished.recv_timeout(std::time::Duration::from_secs(10));
            drop(guard);
            assert!(
                returned.is_ok(),
                "remove_peer waited for partition {foreign}'s lock"
            );
        });
        assert!(!e.contains(peer));
        assert_eq!(e.len(), 39);
    }

    /// One step of the departure-and-return workload, applied alike to
    /// every engine layout.
    enum Op {
        Register(PeerId),
        Remove(PeerId),
        Report(Vec<Feedback>),
    }

    fn apply_to_engine(e: &mut dyn ReputationEngine, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Register(p) => e.register_peer(*p, Reputation::new(0.4)),
                Op::Remove(p) => e.remove_peer(*p),
                Op::Report(batch) => e.report_batch(batch),
            }
        }
    }

    fn apply_to_facade(e: &ConcurrentEngine, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Register(p) => e.register_peer(*p, Reputation::new(0.4)),
                Op::Remove(p) => e.remove_peer(*p),
                Op::Report(batch) => e.report_batch(batch),
            }
        }
    }

    /// The departed reporter's exported rows: one per subject, each
    /// with its stale count written as 0.
    fn assert_stale_rows(states: &[&EngineState], reporter: PeerId, subjects: usize) {
        let rows: Vec<u32> = states
            .iter()
            .flat_map(|s| s.shard.book_reporters.iter().zip(&s.shard.book_counts))
            .filter(|&(&r, _)| r == reporter)
            .map(|(_, &count)| count)
            .collect();
        assert_eq!(rows.len(), subjects, "one stale row per subject");
        assert!(rows.iter().all(|&c| c == 0), "stale counts export as 0");
    }

    /// `peer`'s incarnation as its own whole engine records it.
    fn own_incarnation(e: &RocqEngine, peer: PeerId) -> Option<u64> {
        e.handle_of(peer).map(|h| e.incarnation_at(h))
    }

    /// Reputation bits of subjects `0..n` and of the reporter.
    fn bits(rep: impl Fn(PeerId) -> Option<Reputation>, n: u64, reporter: PeerId) -> Vec<u64> {
        (0..n)
            .chain([reporter.raw()])
            .map(|p| rep(PeerId(p)).expect("live").value().to_bits())
            .collect()
    }

    /// A checkpoint taken between a reporter's departure and its
    /// return: its rows are still in every partition's books but their
    /// counts are stale. Restoring from it must give the same final
    /// bits as an un-checkpointed twin and the reference layout, and
    /// re-exporting the restored state must give the same bytes.
    #[test]
    fn checkpoint_between_departure_and_return_is_exact() {
        use crate::reference::ReferenceEngine;
        use replend_wire::to_bytes;

        let (n, reporter) = (40u64, PeerId(1_000));
        assert!(
            (0..5).all(|i| (0..n).any(|s| partition_of(PeerId(s), 5) == i)),
            "subjects cover every partition of 5"
        );
        // The reporter sends 3 opinions on every subject, every other
        // member 3 on its neighbour, then the reporter departs. Counts
        // below 3 do not show: the quality ramp is floored until then.
        let mut before: Vec<Op> = (0..n).map(|p| Op::Register(PeerId(p))).collect();
        before.push(Op::Register(reporter));
        for round in 0..3u64 {
            let mut batch: Vec<Feedback> = (0..n)
                .map(|s| Feedback::new(reporter, PeerId(s), ((s + round) % 2) as f64))
                .collect();
            batch.extend((0..n).map(|r| Feedback::new(PeerId(r), PeerId((r + 1) % n), 1.0)));
            before.push(Op::Report(batch));
        }
        before.push(Op::Remove(reporter));
        // After the checkpoint: the reporter returns and reports again,
        // and the members resume their counted pairs.
        let after = vec![
            Op::Register(reporter),
            Op::Report(
                (0..2 * n)
                    .map(|i| Feedback::new(reporter, PeerId(i % n), 0.0))
                    .chain((0..n).map(|r| Feedback::new(PeerId(r), PeerId((r + 1) % n), 0.0)))
                    .chain((0..n).map(|r| Feedback::new(PeerId(r), reporter, 1.0)))
                    .collect(),
            ),
        ];

        let mut reference = ReferenceEngine::new(RocqParams::default(), 6, 42);
        apply_to_engine(&mut reference, &before);
        apply_to_engine(&mut reference, &after);
        let expected = bits(|p| reference.reputation(p), n, reporter);

        let mut twin = RocqEngine::new(RocqParams::default(), 6, 42);
        apply_to_engine(&mut twin, &before);
        apply_to_engine(&mut twin, &after);
        assert_eq!(bits(|p| twin.reputation(p), n, reporter), expected);

        let mut monolith = RocqEngine::new(RocqParams::default(), 6, 42);
        apply_to_engine(&mut monolith, &before);
        monolith.drain_deltas(&mut Vec::new());
        let state = monolith.export_state(|p| own_incarnation(&monolith, p));
        assert_stale_rows(&[&state], reporter, n as usize);
        let mut restored = RocqEngine::import_state(&state).expect("state imports");
        let again = restored.export_state(|p| own_incarnation(&restored, p));
        assert_eq!(to_bytes(&state).unwrap(), to_bytes(&again).unwrap());
        apply_to_engine(&mut restored, &after);
        assert_eq!(bits(|p| restored.reputation(p), n, reporter), expected);

        for partitions in [1, 5] {
            let twin = ConcurrentEngine::new(RocqParams::default(), 6, partitions, 42);
            apply_to_facade(&twin, &before);
            apply_to_facade(&twin, &after);
            assert_eq!(bits(|p| twin.reputation(p), n, reporter), expected);

            let live = ConcurrentEngine::new(RocqParams::default(), 6, partitions, 42);
            apply_to_facade(&live, &before);
            let parts = live.export_partitions();
            let states: Vec<&EngineState> = parts.iter().map(|p| &p.engine).collect();
            assert_stale_rows(&states, reporter, n as usize);
            let restored = ConcurrentEngine::import_partitions(&parts).expect("partitions import");
            assert_eq!(
                to_bytes(&parts).unwrap(),
                to_bytes(&restored.export_partitions()).unwrap(),
                "{partitions} partitions: re-export changed the bytes"
            );
            apply_to_facade(&restored, &after);
            assert_eq!(
                bits(|p| restored.reputation(p), n, reporter),
                expected,
                "{partitions} partitions"
            );
        }
    }

    /// Every peer of `universe` sits at the slab slot its engine
    /// handle names (or is absent from both), and its lock-free read
    /// equals the engine's read under the partition lock, bit for bit.
    fn assert_slab_is_the_engine(e: &ConcurrentEngine, universe: u64, context: &str) {
        for peer in (0..universe).map(PeerId) {
            let cell = e.home(peer);
            let p = cell.lock.write().unwrap();
            let slot = cell.slab.write().slot_of(peer);
            let handle = p.engine.handle_of(peer).map(|h| h.index() as u32);
            assert_eq!(
                slot, handle,
                "{context}: peer {peer}'s slot is not its handle"
            );
            let locked = p.engine.reputation(peer).map(|r| r.value().to_bits());
            drop(p);
            let read = e.reputation(peer).map(|r| r.value().to_bits());
            assert_eq!(
                read, locked,
                "{context}: peer {peer} read differs from the engine"
            );
        }
    }

    /// With the crash model on (`numSM = 1`, `crash_prob > 0`), joins
    /// and leaves reset other subjects' lanes. Those resets must reach
    /// the read slab in the same window as the registration or removal
    /// that caused them, and survive an export and import.
    #[test]
    fn crash_losses_during_churn_reach_the_read_slab() {
        let params = RocqParams {
            crash_prob: 0.5,
            ..RocqParams::default()
        };
        let e = ConcurrentEngine::new(params, 1, 2, 7);
        e.register_batch(
            &(0..40u64)
                .map(|p| (PeerId(p), Reputation::new(0.3)))
                .collect::<Vec<_>>(),
        );
        for round in 0..5u64 {
            let batch: Vec<Feedback> = (0..40u64)
                .map(|r| Feedback::new(PeerId(r), PeerId((r * 7 + round) % 40), 1.0))
                .collect();
            e.report_batch(&batch);
        }
        assert_slab_is_the_engine(&e, 80, "after reports");
        for p in 40..80u64 {
            e.register_peer(PeerId(p), Reputation::new(0.3));
        }
        assert_slab_is_the_engine(&e, 80, "after joins");
        for p in 0..20u64 {
            e.remove_peer(PeerId(p * 3));
        }
        assert_slab_is_the_engine(&e, 80, "after leaves");
        let losses: u64 = e
            .cells
            .iter()
            .map(|c| c.lock.read().unwrap().engine.crash_losses())
            .sum();
        assert!(losses > 0, "the crash model must have fired");

        let restored = ConcurrentEngine::import_partitions(&e.export_partitions()).unwrap();
        assert_eq!(census(&e), census(&restored));
        assert_slab_is_the_engine(&restored, 80, "after restore");
    }

    /// One step of the slot-invariant property below.
    #[derive(Clone, Debug)]
    enum SlotOp {
        Register(Vec<u64>),
        Remove(u64),
        Report(Vec<(u64, u64, bool)>),
        Credit(u64),
        Restore,
    }

    /// Peers the slot-invariant property draws on.
    const SLOT_PEERS: u64 = 12;

    fn slot_op() -> impl Strategy<Value = SlotOp> {
        let register = proptest::collection::vec(0..SLOT_PEERS, 1..5).prop_map(SlotOp::Register);
        let remove = (0..SLOT_PEERS).prop_map(SlotOp::Remove);
        let report =
            proptest::collection::vec((0..SLOT_PEERS, 0..SLOT_PEERS, proptest::bool::ANY), 1..10)
                .prop_map(SlotOp::Report);
        let credit = (0..SLOT_PEERS).prop_map(SlotOp::Credit);
        prop_oneof![
            register.clone(),
            register,
            remove,
            report.clone(),
            report,
            credit,
            Just(SlotOp::Restore),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Registration, re-registration, removal, reports, credits and
        /// export → import, with the crash model off and on: after every
        /// step each live subject's slab slot is its engine handle and
        /// every slab read equals the locked engine read.
        #[test]
        fn slab_slots_stay_the_engine_handles(
            ops in proptest::collection::vec(slot_op(), 1..40),
            partitions in 1usize..=3,
            crash in proptest::bool::ANY,
            seed in proptest::num::u64::ANY,
        ) {
            let (params, num_sm) = if crash {
                (RocqParams { crash_prob: 0.5, ..RocqParams::default() }, 1)
            } else {
                (RocqParams::default(), 3)
            };
            let mut e = ConcurrentEngine::new(params, num_sm, partitions, seed);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    SlotOp::Register(peers) => e.register_batch(
                        &peers
                            .iter()
                            .map(|&p| (PeerId(p), Reputation::new(p as f64 / SLOT_PEERS as f64)))
                            .collect::<Vec<_>>(),
                    ),
                    SlotOp::Remove(p) => e.remove_peer(PeerId(*p)),
                    SlotOp::Report(reports) => e.report_batch(
                        &reports
                            .iter()
                            .map(|&(r, s, good)| Feedback::new(PeerId(r), PeerId(s), good as u8 as f64))
                            .collect::<Vec<_>>(),
                    ),
                    SlotOp::Credit(p) => e.credit(PeerId(*p), 0.1),
                    SlotOp::Restore => {
                        let restored =
                            ConcurrentEngine::import_partitions(&e.export_partitions()).unwrap();
                        prop_assert_eq!(census(&e), census(&restored));
                        e = restored;
                    }
                }
                assert_slab_is_the_engine(&e, SLOT_PEERS, &format!("step {i} {op:?}"));
            }
        }
    }

    /// One step of the facade-versus-monolith property below.
    #[derive(Clone, Debug)]
    enum IngestOp {
        Register(Vec<u64>),
        Remove(u64),
        /// Removes the peer, then delivers opinions by it and on it.
        Depart(u64, Vec<u64>),
        Report(Vec<(u64, u64, bool)>),
        /// One `(reporter, subject)` pair, repeated in one batch.
        Repeat(u64, u64, usize),
    }

    /// Peers the property registers. Ids up to `INGEST_PEERS + 2` are
    /// drawn as reporters and subjects, so some never register.
    const INGEST_PEERS: u64 = 12;

    fn ingest_op() -> impl Strategy<Value = IngestOp> {
        let any_peer = 0..INGEST_PEERS + 2;
        let register =
            proptest::collection::vec(0..INGEST_PEERS, 1..5).prop_map(IngestOp::Register);
        let remove = (0..INGEST_PEERS).prop_map(IngestOp::Remove);
        let depart = (
            0..INGEST_PEERS,
            proptest::collection::vec(any_peer.clone(), 1..6),
        )
            .prop_map(|(p, others)| IngestOp::Depart(p, others));
        let report = proptest::collection::vec(
            (any_peer.clone(), any_peer.clone(), proptest::bool::ANY),
            1..24,
        )
        .prop_map(IngestOp::Report);
        let repeat = (any_peer.clone(), any_peer, 2usize..12)
            .prop_map(|(r, s, n)| IngestOp::Repeat(r, s, n));
        prop_oneof![
            register.clone(),
            register,
            remove,
            depart,
            report.clone(),
            report,
            repeat,
        ]
    }

    /// The opinions an [`IngestOp`] delivers after its registrations
    /// and removals.
    fn ingest_batch(op: &IngestOp) -> Vec<Feedback> {
        let opinion = |r: u64, s: u64| ((r + 2 * s) % 3) as f64 / 2.0;
        match op {
            IngestOp::Register(_) | IngestOp::Remove(_) => Vec::new(),
            IngestOp::Depart(p, others) => others
                .iter()
                .flat_map(|&o| {
                    [
                        Feedback::new(PeerId(*p), PeerId(o), opinion(*p, o)),
                        Feedback::new(PeerId(o), PeerId(*p), opinion(o, *p)),
                    ]
                })
                .collect(),
            IngestOp::Report(reports) => reports
                .iter()
                .map(|&(r, s, good)| Feedback::new(PeerId(r), PeerId(s), good as u8 as f64))
                .collect(),
            IngestOp::Repeat(r, s, n) => (0..*n)
                .map(|i| Feedback::new(PeerId(*r), PeerId(*s), (i % 2) as f64))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Facades of 1, 2, 3 and 8 partitions equal one monolithic
        /// engine, bit for bit and with the same census, after every
        /// step of a stream over a dozen peers: registrations (a
        /// returning peer takes a recycled handle, so a reused slab
        /// slot), removals followed by opinions by and on the removed
        /// peer, unknown reporters and subjects, and batches repeating
        /// one pair. The monolith's interaction counts come from a
        /// model: one per opinion both of whose ends are members,
        /// restarting at 0 when a subject registers anew.
        #[test]
        fn report_batch_matches_a_monolith_bit_for_bit(
            ops in proptest::collection::vec(ingest_op(), 1..40),
        ) {
            let facades: Vec<ConcurrentEngine> = [1, 2, 3, 8]
                .into_iter()
                .map(|partitions| ConcurrentEngine::new(RocqParams::default(), 3, partitions, 9))
                .collect();
            let mut monolith = RocqEngine::new(RocqParams::default(), 3, 9);
            let mut counts: PeerMap<PeerId, u64> = PeerMap::default();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    IngestOp::Register(peers) => {
                        let batch: Vec<(PeerId, Reputation)> = peers
                            .iter()
                            .map(|&p| (PeerId(p), Reputation::new(p as f64 / INGEST_PEERS as f64)))
                            .collect();
                        for &(peer, initial) in &batch {
                            if !monolith.contains(peer) {
                                counts.insert(peer, 0);
                            }
                            monolith.register_peer(peer, initial);
                        }
                        for e in &facades {
                            e.register_batch(&batch);
                        }
                    }
                    IngestOp::Remove(p) | IngestOp::Depart(p, _) => {
                        counts.remove(&PeerId(*p));
                        monolith.remove_peer(PeerId(*p));
                        for e in &facades {
                            e.remove_peer(PeerId(*p));
                        }
                    }
                    IngestOp::Report(_) | IngestOp::Repeat(..) => {}
                }
                let batch = ingest_batch(op);
                for f in &batch {
                    if monolith.contains(f.reporter) {
                        if let Some(n) = counts.get_mut(&f.subject) {
                            *n += 1;
                        }
                    }
                }
                monolith.report_batch(&batch);
                for e in &facades {
                    e.report_batch(&batch);
                }
                let mut expected: Vec<(u64, u64, u64)> = counts
                    .iter()
                    .map(|(&p, &n)| {
                        let r = monolith.reputation(p).expect("counted peers are members");
                        (p.raw(), r.value().to_bits(), n)
                    })
                    .collect();
                expected.sort_unstable();
                for e in &facades {
                    prop_assert_eq!(
                        census(e),
                        expected.clone(),
                        "step {} {:?}, {} partitions",
                        i,
                        op,
                        e.cells.len()
                    );
                }
            }
        }
    }

    /// The census sweep agrees with per-subject probes — one coherent
    /// per-partition window, not a re-derivation.
    #[test]
    fn census_sweep_matches_point_reads() {
        let e = engine(3);
        for p in 0..45u64 {
            e.register_peer(PeerId(p), Reputation::new(0.5));
        }
        let batch: Vec<Feedback> = (0..45u64)
            .map(|r| Feedback::new(PeerId(r), PeerId((r + 1) % 45), 1.0))
            .collect();
        e.report_batch(&batch);
        let mut seen = 0usize;
        e.for_each_subject(|peer, rep, hits| {
            seen += 1;
            assert_eq!(Some(rep), e.reputation(peer));
            assert_eq!(Some(hits), interactions(&e, peer));
        });
        assert_eq!(seen, 45);
    }
}
