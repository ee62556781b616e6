//! [`SnapshotSlab`]: the epoch-versioned read slab behind the
//! concurrent facade's wait-free read path.
//!
//! ## Why it exists
//!
//! Before PR 8, every `reputation()` / `status()` probe against a
//! [`ConcurrentEngine`](crate::ConcurrentEngine) partition took the
//! partition's `RwLock` read guard — which meant a read landing on a
//! partition mid-`report_batch` waited for the *whole* batch slice to
//! apply. A read-dominated service wants the opposite: readers never
//! wait on writers. This module moves the two hot read fields — the
//! cached aggregate reputation and the applied-report (interaction)
//! count — into a slab of plain atomics guarded by a seqlock-style
//! **epoch counter**, so reads are lock-free loads with a retry rule
//! and writers publish whole batches atomically. Each slot also
//! carries the subject's registration incarnation, which the facade's
//! reporter gate reads with the same protocol.
//!
//! ## The slot is the engine handle
//!
//! The slab allocates no slots of its own. [`SlabWriter::insert`]
//! takes the slot from the caller, and the facade passes the
//! subject's engine [`Handle`](replend_types::Handle): the engine's
//! free list already keeps its arena dense, and a writer that holds an
//! engine handle publishes to the slab by plain indexing, with no
//! peer→slot probe. Readers still go through the peer→slot table,
//! which registration, removal and checkpoint import maintain. The
//! facade's ingest reads it too: it takes each subject's engine
//! handle from the table (`SnapshotSlab::slot`) instead of probing the
//! engine's index.
//!
//! ## The table
//!
//! The peer→slot index is open addressing with linear probing. Each
//! bucket holds its `(key, slot)` pair in 16 bytes aligned to 16, so
//! probing a bucket touches one cache line, and a successful probe of
//! a table below its 3/4 load line usually ends in its first bucket.
//! A probe starts at the bucket named by the **high** half of the
//! peer's `splitmix64` mix: the facade picks the partition from the
//! same mix reduced `% partitions`, so with a power-of-two partition
//! count the low bits of every key in one partition are alike, and
//! starting from them would crowd the partition's keys into a
//! fraction of its buckets. `SnapshotSlab::prefetch` fetches the
//! start bucket ahead of a probe, for callers that probe a run of
//! peers.
//!
//! A writer that knows its group ahead (a registration batch,
//! checkpoint import) sizes the table and the value arrays once with
//! `SlabWriter::reserve`; one-at-a-time inserts grow them by
//! doubling.
//!
//! ## The epoch protocol
//!
//! Each slab carries one `AtomicU64` epoch. **Even** means stable,
//! **odd** means a write is in progress:
//!
//! * A writer (always under the partition's write lock, so writers
//!   are already mutually excluded) bumps the epoch to odd, mutates
//!   the slab, then bumps it back to even — one `+2` step per
//!   published state.
//! * A reader loads the epoch (`e1`); if odd it retries. It then
//!   performs its loads, and re-loads the epoch (`e2`). The read is
//!   **coherent** iff `e1 == e2`: no write started, finished, or was
//!   in flight between the two fences. Otherwise the reader retries
//!   from scratch.
//!
//! A coherent read therefore observes *exactly* one published state —
//! a pre-batch or post-batch snapshot, never a mix. Equality (not
//! ordering) is compared, so the protocol survives epoch wraparound;
//! the interleaving suite in `replend-tests` drives a slab seeded
//! near `u64::MAX` across the wrap.
//!
//! ## Memory safety without the lock
//!
//! Everything a reader touches is an atomic or a pointer to storage
//! that is **never freed while the slab is alive**:
//!
//! * The peer→slot index is an open-addressing table of
//!   `(AtomicU64 key, AtomicU64 slot)` buckets; the per-slot value
//!   arrays are parallel `AtomicU64` slabs. Torn *logical* states are
//!   possible while a write is in flight, but every load is an atomic
//!   load — no data race, no UB — and the epoch check discards the
//!   result.
//! * Removal is **backward-shift deletion**: the entries after the
//!   vacated bucket that may move back along their probe path do, and
//!   the chain ends where the last one left. The table never holds a
//!   tombstone, so a table's load is exactly its live count. A reader
//!   racing a shift can miss a key or see one twice; the shift runs
//!   inside the write window, so that reader fails its epoch check,
//!   and its probe loop is bounded by the capacity either way.
//! * Growth never reallocates in place: the writer builds a table or
//!   value array at least twice the size, publishes it through an
//!   `AtomicPtr`, and **retires** the old allocation into a keep-alive
//!   list freed only on drop. A reader holding a stale pointer reads
//!   stale-but-valid memory and fails its epoch check. Only growth
//!   retires anything, so the retired tail is less than the live
//!   allocation in total and does not grow under churn at a constant
//!   live count (pinned by `churn_retires_only_doubled_tables`).
//! * A slot index obtained from a *newer* table than the value array
//!   a reader happens to hold may be out of bounds; reads are
//!   bounds-checked and out-of-range indices count as incoherent.
//!
//! Atomic orderings follow the classic seqlock recipe (cf.
//! crossbeam's `SeqLock`): readers pair an `Acquire` epoch load with
//! an `Acquire` fence before re-validating; writers pair a `Release`
//! fence after the odd bump with a `Release` store to re-even.

use crate::slab::prefetch;
use replend_types::PeerId;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Slot value meaning "probe chain ends here" in the index table.
const EMPTY: u64 = 0;
/// Occupied table slots store `slot_index + SLOT_BASE`.
const SLOT_BASE: u64 = 1;
/// Buckets of the smallest index table.
const MIN_BUCKETS: usize = 16;

/// One index-table bucket: a peer id beside its slot word, 16 bytes
/// aligned to 16, so a probe of one bucket touches one cache line.
#[repr(C, align(16))]
struct Bucket {
    /// Peer id; meaningful only where `slot` is occupied.
    key: AtomicU64,
    /// `EMPTY` or `slot + SLOT_BASE`.
    slot: AtomicU64,
}

/// Open-addressing peer→slot index with linear probing and
/// backward-shift deletion. Published via `AtomicPtr`; rebuilt larger
/// (never resized in place) when its load would reach 3/4.
struct Table {
    /// Capacity mask (`capacity - 1`; capacity is a power of two).
    mask: usize,
    buckets: Box<[Bucket]>,
}

impl Table {
    fn with_capacity(capacity: usize) -> Table {
        debug_assert!(capacity.is_power_of_two());
        Table {
            mask: capacity - 1,
            buckets: (0..capacity)
                .map(|_| Bucket {
                    key: AtomicU64::new(0),
                    slot: AtomicU64::new(EMPTY),
                })
                .collect(),
        }
    }

    /// The capacity a table needs to hold `live` entries below its 3/4
    /// load line.
    fn capacity_for(live: usize) -> usize {
        let mut capacity = MIN_BUCKETS;
        while live * 4 >= capacity * 3 {
            capacity *= 2;
        }
        capacity
    }

    /// First probe index for `peer`: the **high** half of the
    /// splitmix64 mix. The facade routes a peer to its partition by
    /// the same mix reduced `% partitions`, which for a power-of-two
    /// partition count is its low bits: starting from those would put
    /// every key of a partition in one bucket out of that many and
    /// lengthen every probe chain.
    fn start(&self, peer: u64) -> usize {
        (replend_types::hash::splitmix64(peer) >> 32) as usize & self.mask
    }

    /// The bucket holding `peer` and its slot word. Readers must
    /// validate the epoch afterwards: a concurrent shift or rebuild can
    /// make this miss or return a stale slot. The probe count is
    /// bounded by the capacity, so the scan terminates even on a table
    /// observed mid-write.
    fn find(&self, peer: u64) -> Option<(usize, u64)> {
        let mut i = self.start(peer);
        for _ in 0..=self.mask {
            let bucket = &self.buckets[i];
            let occupied = bucket.slot.load(Ordering::Acquire);
            if occupied == EMPTY {
                return None;
            }
            if bucket.key.load(Ordering::Acquire) == peer {
                return Some((i, occupied));
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// The slot `peer` maps to, under the same caveats as `find`.
    fn get(&self, peer: u64) -> Option<u32> {
        self.find(peer)
            .map(|(_, occupied)| (occupied - SLOT_BASE) as u32)
    }

    /// Inserts an absent `peer → slot` (writer-only; epoch is odd). The
    /// key is stored before the slot so a concurrent reader can never
    /// match a fresh slot against a stale key (harmless anyway — the
    /// epoch check catches it — but cheap to rule out).
    fn insert(&self, peer: u64, slot: u32) {
        let mut i = self.start(peer);
        while self.buckets[i].slot.load(Ordering::Relaxed) != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.buckets[i].key.store(peer, Ordering::Relaxed);
        self.buckets[i]
            .slot
            .store(slot as u64 + SLOT_BASE, Ordering::Release);
    }

    /// Removes `peer` by backward-shift deletion (writer-only; epoch
    /// is odd). Returns the slot it held.
    fn remove(&self, peer: u64) -> Option<u32> {
        let (mut hole, removed) = self.find(peer)?;
        // Walk the rest of the cluster. An entry moves back into the
        // hole when the hole lies on its probe path, i.e. its home is
        // at least as far behind it as the hole is.
        let mut i = (hole + 1) & self.mask;
        loop {
            let occupied = self.buckets[i].slot.load(Ordering::Relaxed);
            if occupied == EMPTY {
                break;
            }
            let key = self.buckets[i].key.load(Ordering::Relaxed);
            let behind = i.wrapping_sub(self.start(key)) & self.mask;
            if behind >= (i.wrapping_sub(hole) & self.mask) {
                self.buckets[hole].key.store(key, Ordering::Relaxed);
                self.buckets[hole].slot.store(occupied, Ordering::Release);
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        self.buckets[hole].slot.store(EMPTY, Ordering::Release);
        Some((removed - SLOT_BASE) as u32)
    }

    /// Every occupied bucket as `(peer, slot)`, in bucket order, under
    /// the same caveats as `find`.
    fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.buckets.iter().filter_map(|b| {
            let slot = b.slot.load(Ordering::Relaxed);
            (slot != EMPTY).then(|| (b.key.load(Ordering::Relaxed), (slot - SLOT_BASE) as u32))
        })
    }
}

/// Parallel per-slot value arrays. Published via `AtomicPtr`;
/// replaced wholesale on growth.
struct Values {
    /// Slots allocated (array length).
    cap: usize,
    /// Cached aggregate reputation, as `f64` bit pattern.
    rep: Box<[AtomicU64]>,
    /// Applied-report (interaction) count.
    hits: Box<[AtomicU64]>,
    /// The subject's registration incarnation (the tag its interaction
    /// counts carry as a reporter).
    incarnation: Box<[AtomicU64]>,
}

impl Values {
    fn with_capacity(cap: usize) -> Values {
        let zeroed = || (0..cap).map(|_| AtomicU64::new(0)).collect();
        Values {
            cap,
            rep: zeroed(),
            hits: zeroed(),
            incarnation: zeroed(),
        }
    }
}

/// Writer-side bookkeeping: the keep-alive lists of retired
/// allocations. Only touched under the writer mutex.
struct WriterState {
    /// Superseded tables, kept alive for stale readers. The boxes are
    /// the very allocations stale readers still point into, so they
    /// must be stored as boxes — moving the payload into the `Vec`
    /// would free the published addresses.
    #[allow(clippy::vec_box)]
    retired_tables: Vec<Box<Table>>,
    /// Superseded value arrays, kept alive for stale readers (same
    /// box-identity requirement as `retired_tables`).
    #[allow(clippy::vec_box)]
    retired_values: Vec<Box<Values>>,
}

/// The epoch-versioned read slab. One per facade partition; all
/// mutation happens through [`SnapshotSlab::write`] (the facade calls
/// it under the partition's write lock, which also serializes the
/// uncontended writer mutex inside).
pub struct SnapshotSlab {
    /// Seqlock epoch: even = stable, odd = write in flight.
    epoch: AtomicU64,
    table: AtomicPtr<Table>,
    values: AtomicPtr<Values>,
    /// Live subjects, for lock-free `len()` (and the table's load).
    count: AtomicU64,
    writer: Mutex<WriterState>,
}

// The raw pointers are owned allocations published for shared
// reading; all access is atomic and retired storage outlives readers.
unsafe impl Send for SnapshotSlab {}
unsafe impl Sync for SnapshotSlab {}

impl Default for SnapshotSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SnapshotSlab {
    fn drop(&mut self) {
        // Retired allocations drop with the WriterState; the live
        // ones are only reachable through the atomics.
        unsafe {
            drop(Box::from_raw(self.table.load(Ordering::Relaxed)));
            drop(Box::from_raw(self.values.load(Ordering::Relaxed)));
        }
    }
}

impl SnapshotSlab {
    /// An empty slab at epoch 0.
    pub fn new() -> Self {
        Self::with_epoch(0)
    }

    /// An empty slab starting at `initial_epoch` (must be even). The
    /// protocol compares epochs for equality only, so a slab seeded
    /// near `u64::MAX` exercises wraparound — this constructor exists
    /// for exactly that test.
    ///
    /// # Panics
    /// If `initial_epoch` is odd (odd means "write in flight").
    pub fn with_epoch(initial_epoch: u64) -> Self {
        assert!(initial_epoch % 2 == 0, "initial epoch must be even");
        SnapshotSlab {
            epoch: AtomicU64::new(initial_epoch),
            table: AtomicPtr::new(Box::into_raw(Box::new(Table::with_capacity(MIN_BUCKETS)))),
            values: AtomicPtr::new(Box::into_raw(Box::new(Values::with_capacity(MIN_BUCKETS)))),
            count: AtomicU64::new(0),
            writer: Mutex::new(WriterState {
                retired_tables: Vec::new(),
                retired_values: Vec::new(),
            }),
        }
    }

    /// The current epoch (even when no write is in flight).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Live subjects, lock-free.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire) as usize
    }

    /// True when no subject is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts a write: bumps the epoch to odd and returns the guard
    /// that mutates the slab and re-evens the epoch on drop. The
    /// facade calls this under the partition write lock; the internal
    /// mutex is a second line of defence, not a contention point.
    pub fn write(&self) -> SlabWriter<'_> {
        let state = self.writer.lock().expect("slab writer mutex poisoned");
        let e = self.epoch.load(Ordering::Relaxed);
        debug_assert!(e % 2 == 0, "write() while a write is in flight");
        self.epoch.store(e.wrapping_add(1), Ordering::Relaxed);
        // Order the odd bump before every data store below (seqlock
        // writer fence).
        fence(Ordering::Release);
        SlabWriter { slab: self, state }
    }

    /// Begins one coherent read attempt: a stable (even) epoch plus
    /// the table and value arrays current at that point.
    fn begin_read(&self) -> Option<(u64, &Table, &Values)> {
        let e1 = self.epoch.load(Ordering::Acquire);
        if e1 % 2 != 0 {
            return None;
        }
        // Safety: published pointers are valid until drop (retired
        // allocations are kept alive), and `&self` outlives the call.
        let table = unsafe { &*self.table.load(Ordering::Acquire) };
        let values = unsafe { &*self.values.load(Ordering::Acquire) };
        Some((e1, table, values))
    }

    /// Ends a read attempt: true iff no write intervened since
    /// `begin_read` returned `e1` — i.e. the loads in between came
    /// from exactly one published state.
    fn validate_read(&self, e1: u64) -> bool {
        // Order every data load above before the re-check (seqlock
        // reader fence).
        fence(Ordering::Acquire);
        self.epoch.load(Ordering::Relaxed) == e1
    }

    /// `load` applied to `peer`'s slot in one coherent read, or `None`
    /// when it is not a live subject. Lock-free; retries while a write
    /// is in flight.
    fn read_slot<T>(&self, peer: PeerId, load: impl Fn(&Values, usize) -> T) -> Option<T> {
        loop {
            let Some((e1, table, values)) = self.begin_read() else {
                std::hint::spin_loop();
                continue;
            };
            let found = table.get(peer.raw()).and_then(|slot| {
                let slot = slot as usize;
                // A newer table than value array is incoherent.
                (slot < values.cap).then(|| load(values, slot))
            });
            if self.validate_read(e1) {
                return found;
            }
        }
    }

    /// The coherent `(reputation bits, interaction count)` of `peer`,
    /// or `None` when it is not a live subject. Lock-free; retries
    /// while a write is in flight.
    pub fn read(&self, peer: PeerId) -> Option<(u64, u64)> {
        self.read_slot(peer, |values, slot| {
            (
                values.rep[slot].load(Ordering::Relaxed),
                values.hits[slot].load(Ordering::Relaxed),
            )
        })
    }

    /// True when `peer` is a live subject (coherent lookup).
    pub fn contains(&self, peer: PeerId) -> bool {
        self.read_slot(peer, |_, _| ()).is_some()
    }

    /// The slot of `peer` (its engine handle), or `None` when it is
    /// not a live subject (coherent lookup).
    pub(crate) fn slot(&self, peer: PeerId) -> Option<u32> {
        self.read_slot(peer, |_, slot| slot as u32)
    }

    /// Hints the CPU to fetch the bucket where a probe for `peer`
    /// starts, so a caller that probes a run of peers can issue the
    /// miss of a later probe while an earlier one resolves. Reads no
    /// value and needs no epoch: a stale table is still valid memory.
    #[inline]
    pub(crate) fn prefetch(&self, peer: PeerId) {
        // Safety: published pointers are valid until drop.
        let table = unsafe { &*self.table.load(Ordering::Acquire) };
        prefetch(&table.buckets[table.start(peer.raw())]);
    }

    /// The registration incarnation of `peer`, or `None` when it is
    /// not a live subject (coherent lookup).
    pub(crate) fn incarnation(&self, peer: PeerId) -> Option<u64> {
        self.read_slot(peer, |values, slot| {
            values.incarnation[slot].load(Ordering::Relaxed)
        })
    }

    /// One attempt at a coherent full-slab sweep into `out` as
    /// `(peer, reputation bits, interaction count)` triples, walking
    /// the index table. Returns false (with `out` cleared) when a
    /// write intervened. The facade retries a few times and then falls
    /// back to sweeping under the partition read lock, where a single
    /// attempt cannot fail.
    pub(crate) fn try_sweep(&self, out: &mut Vec<(u64, u64, u64)>) -> bool {
        out.clear();
        let Some((e1, table, values)) = self.begin_read() else {
            return false;
        };
        for (key, slot) in table.entries() {
            let slot = slot as usize;
            if slot >= values.cap {
                // A newer table than value array is incoherent.
                out.clear();
                return false;
            }
            out.push((
                key,
                values.rep[slot].load(Ordering::Relaxed),
                values.hits[slot].load(Ordering::Relaxed),
            ));
        }
        if self.validate_read(e1) {
            true
        } else {
            out.clear();
            false
        }
    }
}

/// Exclusive write session over a [`SnapshotSlab`]. The epoch is odd
/// while the guard lives; dropping it publishes every mutation at
/// once by re-evening the epoch.
pub struct SlabWriter<'a> {
    slab: &'a SnapshotSlab,
    state: MutexGuard<'a, WriterState>,
}

impl Drop for SlabWriter<'_> {
    fn drop(&mut self) {
        let e = self.slab.epoch.load(Ordering::Relaxed);
        debug_assert!(e % 2 == 1, "publishing without a write in flight");
        // Publish: every store above happens-before the epoch turning
        // even again.
        self.slab.epoch.store(e.wrapping_add(1), Ordering::Release);
    }
}

impl SlabWriter<'_> {
    fn table(&self) -> &Table {
        // Safety: current pointer, valid until drop; `&self` borrows
        // the slab.
        unsafe { &*self.slab.table.load(Ordering::Relaxed) }
    }

    fn values(&self) -> &Values {
        unsafe { &*self.slab.values.load(Ordering::Relaxed) }
    }

    /// The slot `peer` occupies, if live.
    pub fn slot_of(&self, peer: PeerId) -> Option<u32> {
        self.table().get(peer.raw())
    }

    /// Makes `peer` a live subject at `slot`, which the caller chooses
    /// (the facade passes the subject's engine handle) and which no
    /// other live subject holds. A fresh subject's slot starts with
    /// zero reputation bits, hits and incarnation; a live `peer` keeps
    /// its slot and values untouched (idempotent, like engine
    /// registration) and must already sit at `slot`.
    pub fn insert(&mut self, peer: PeerId, slot: u32) {
        if let Some(live) = self.table().get(peer.raw()) {
            debug_assert_eq!(live, slot, "subject {peer} re-inserted at another slot");
            return;
        }
        let i = slot as usize;
        self.ensure_capacity(i + 1);
        let values = self.values();
        values.rep[i].store(0, Ordering::Relaxed);
        values.hits[i].store(0, Ordering::Relaxed);
        values.incarnation[i].store(0, Ordering::Relaxed);
        self.fit_table(self.slab.len() + 1);
        self.table().insert(peer.raw(), slot);
        self.slab.count.fetch_add(1, Ordering::AcqRel);
    }

    /// Sizes the slab once for a group of inserts: the value arrays
    /// to hold slots `0..slots`, the index table to hold `subjects`
    /// more live subjects. A writer that knows its group ahead
    /// (registration, checkpoint import) so allocates each array once
    /// instead of doubling it up to size, and retires nothing.
    pub(crate) fn reserve(&mut self, slots: usize, subjects: usize) {
        self.ensure_capacity(slots);
        self.fit_table(self.slab.len() + subjects);
    }

    /// Removes `peer`. Its slot's values stay behind, unreachable,
    /// until the next `insert` at that slot clears them.
    pub fn remove(&mut self, peer: PeerId) {
        if self.table().remove(peer.raw()).is_some() {
            self.slab.count.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Sets the published reputation bits of `slot`.
    pub fn set_reputation(&mut self, slot: u32, bits: u64) {
        self.values().rep[slot as usize].store(bits, Ordering::Relaxed);
    }

    /// Sets the registration incarnation of `slot`.
    pub(crate) fn set_incarnation(&mut self, slot: u32, incarnation: u64) {
        self.values().incarnation[slot as usize].store(incarnation, Ordering::Relaxed);
    }

    /// Adds `n` to the interaction count of `slot` (wrapping — the
    /// counter is observational and must never abort a writer).
    pub fn add_hits(&mut self, slot: u32, n: u64) {
        let values = self.values();
        let hits = values.hits[slot as usize].load(Ordering::Relaxed);
        values.hits[slot as usize].store(hits.wrapping_add(n), Ordering::Relaxed);
    }

    /// The current interaction count of `slot` (writer-side read; the
    /// write lock makes it exact).
    pub fn hits_of(&self, slot: u32) -> u64 {
        self.values().hits[slot as usize].load(Ordering::Relaxed)
    }

    /// Grows the value arrays to hold at least `needed` slots,
    /// publishing a fresh allocation and retiring the old one.
    fn ensure_capacity(&mut self, needed: usize) {
        let old = self.values();
        if needed <= old.cap {
            return;
        }
        let grown = Box::new(Values::with_capacity((old.cap * 2).max(needed)));
        for i in 0..old.cap {
            grown.rep[i].store(old.rep[i].load(Ordering::Relaxed), Ordering::Relaxed);
            grown.hits[i].store(old.hits[i].load(Ordering::Relaxed), Ordering::Relaxed);
            grown.incarnation[i].store(
                old.incarnation[i].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        let retired = self
            .slab
            .values
            .swap(Box::into_raw(grown), Ordering::AcqRel);
        // Safety: we own the superseded allocation; stale readers may
        // still hold the reference, so keep it alive until drop.
        self.state
            .retired_values
            .push(unsafe { Box::from_raw(retired) });
    }

    /// Rebuilds the index table at the capacity `live` subjects need
    /// when it is smaller, publishing the rebuild and retiring the old
    /// table. One more insert grows it to twice its size; a reserve may
    /// grow it further at once.
    fn fit_table(&mut self, live: usize) {
        let old = self.table();
        let capacity = Table::capacity_for(live);
        if capacity <= old.mask + 1 {
            return;
        }
        let fresh = Box::new(Table::with_capacity(capacity));
        for (key, slot) in old.entries() {
            fresh.insert(key, slot);
        }
        let retired = self.slab.table.swap(Box::into_raw(fresh), Ordering::AcqRel);
        self.state
            .retired_tables
            .push(unsafe { Box::from_raw(retired) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_read_remove_roundtrip() {
        let slab = SnapshotSlab::new();
        assert!(slab.is_empty());
        {
            let mut w = slab.write();
            let a = 3;
            w.insert(PeerId(7), a);
            w.set_reputation(a, 0.5f64.to_bits());
            w.add_hits(a, 3);
            w.set_incarnation(a, 9);
        }
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.read(PeerId(7)), Some((0.5f64.to_bits(), 3)));
        assert_eq!(slab.incarnation(PeerId(7)), Some(9));
        assert_eq!(slab.read(PeerId(8)), None);
        assert_eq!(slab.incarnation(PeerId(8)), None);
        {
            let mut w = slab.write();
            w.remove(PeerId(7));
        }
        assert_eq!(slab.read(PeerId(7)), None);
        assert!(slab.is_empty());
    }

    #[test]
    fn epoch_advances_by_two_per_write() {
        let slab = SnapshotSlab::new();
        let e0 = slab.epoch();
        drop(slab.write());
        assert_eq!(slab.epoch(), e0 + 2);
    }

    /// A slot handed to a new subject starts cleared, and inserting a
    /// live subject again leaves its values alone.
    #[test]
    fn reused_slots_start_cleared() {
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            w.insert(PeerId(1), 0);
            w.insert(PeerId(2), 1);
            w.set_reputation(0, 1.0f64.to_bits());
            w.add_hits(0, 99);
            w.set_incarnation(0, 4);
            w.set_reputation(1, 0.5f64.to_bits());
            w.insert(PeerId(2), 1);
            w.remove(PeerId(1));
            w.insert(PeerId(3), 0);
            assert_eq!(w.slot_of(PeerId(3)), Some(0));
        }
        assert_eq!(slab.read(PeerId(1)), None);
        assert_eq!(slab.read(PeerId(3)), Some((0, 0)));
        assert_eq!(slab.incarnation(PeerId(3)), Some(0));
        assert_eq!(slab.read(PeerId(2)), Some((0.5f64.to_bits(), 0)));
    }

    /// Slots need not arrive in order: the value arrays grow to the
    /// highest slot inserted, and a sparse slot reads back exactly.
    #[test]
    fn caller_chosen_slots_may_be_sparse() {
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            w.insert(PeerId(9), 1_000);
            w.set_reputation(1_000, 0.75f64.to_bits());
            w.add_hits(1_000, 2);
            w.insert(PeerId(8), 2);
        }
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.read(PeerId(9)), Some((0.75f64.to_bits(), 2)));
        assert_eq!(slab.read(PeerId(8)), Some((0, 0)));
    }

    #[test]
    fn growth_preserves_published_values() {
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            for p in 0..500u64 {
                let slot = p as u32;
                w.insert(PeerId(p), slot);
                w.set_reputation(slot, (p as f64 / 500.0).to_bits());
                w.add_hits(slot, p);
                w.set_incarnation(slot, p + 1);
            }
        }
        assert_eq!(slab.len(), 500);
        for p in 0..500u64 {
            assert_eq!(
                slab.read(PeerId(p)),
                Some(((p as f64 / 500.0).to_bits(), p)),
                "peer {p} lost after growth"
            );
            assert_eq!(slab.incarnation(PeerId(p)), Some(p + 1));
        }
    }

    #[test]
    fn sweep_sees_every_live_subject_once() {
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            for p in 0..100u64 {
                w.insert(PeerId(p), p as u32);
                w.set_reputation(p as u32, (p as f64).to_bits());
            }
            w.remove(PeerId(50));
        }
        let mut out = Vec::new();
        assert!(slab.try_sweep(&mut out));
        assert_eq!(out.len(), 99);
        out.sort_unstable();
        assert!(out.iter().all(|&(p, _, _)| p != 50));
    }

    /// Capacity of the slab's current index table.
    fn table_capacity(slab: &SnapshotSlab) -> usize {
        unsafe { &*slab.table.load(Ordering::Relaxed) }.mask + 1
    }

    /// Remove+insert churn at a constant live count retires nothing:
    /// the only retired tables are the doublings that reached the
    /// live count.
    #[test]
    fn churn_retires_only_doubled_tables() {
        const LIVE: u64 = 1_000;
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            for p in 0..LIVE {
                w.insert(PeerId(p), p as u32);
            }
        }
        let capacity = table_capacity(&slab);
        let doublings = (capacity / 16).trailing_zeros() as usize;
        let retired_values = slab.writer.lock().unwrap().retired_values.len();
        for step in 0..200_000u64 {
            let mut w = slab.write();
            // The newcomer takes the slot its predecessor vacated.
            let slot = (step % LIVE) as u32;
            w.remove(PeerId(step));
            w.insert(PeerId(step + LIVE), slot);
            w.add_hits(slot, 1);
        }
        assert_eq!(slab.len(), LIVE as usize);
        assert_eq!(table_capacity(&slab), capacity);
        let state = slab.writer.lock().unwrap();
        assert_eq!(state.retired_tables.len(), doublings);
        assert_eq!(state.retired_values.len(), retired_values);
        drop(state);
        let newest = 200_000 + LIVE - 1;
        assert_eq!(slab.read(PeerId(newest)), Some((0, 1)));
        assert_eq!(slab.read(PeerId(0)), None);
    }

    /// Random inserts and removes over keys whose probe chains collide
    /// at the end of a 16-bucket table and wrap past it, checked after
    /// every op against a model map: every key reads as the model says
    /// and a sweep sees each live key exactly once.
    #[test]
    fn backward_shift_matches_a_map_model() {
        use replend_types::hash::{splitmix64, PeerMap};
        // Homes 13, 14, 15 and 0 of a 16-bucket table, so clusters
        // form at the end and wrap to the front. The keys are drawn
        // through the table's own start function, so they keep
        // colliding whichever bits of the hash it takes.
        let homes = [(13, 3), (14, 3), (15, 6), (0, 3)];
        let sixteen = Table::with_capacity(16);
        let mut keys: Vec<u64> = Vec::new();
        for (home, n) in homes {
            keys.extend((0u64..).filter(|&k| sixteen.start(k) == home).take(n));
        }
        let slab = SnapshotSlab::new();
        {
            let table = unsafe { &*slab.table.load(Ordering::Relaxed) };
            assert_eq!(table.mask + 1, 16);
            let mut drawn = keys.iter();
            for (home, n) in homes {
                for &k in drawn.by_ref().take(n) {
                    assert_eq!(table.start(k), home, "key {k} left home bucket {home}");
                }
            }
        }
        let mut model: PeerMap<u64, (u64, u64)> = PeerMap::default();
        let mut rng = 0x5EED_u64;
        let mut sweep = Vec::new();
        for step in 0..20_000u64 {
            rng = splitmix64(rng);
            // Each key owns the slot of its position in `keys`.
            let i = (rng % keys.len() as u64) as usize;
            let key = keys[i];
            {
                let mut w = slab.write();
                // Stay below the 3/4 growth line: the table keeps its
                // 16 buckets, so the clusters keep wrapping.
                if model.contains_key(&key) || model.len() == 11 {
                    w.remove(PeerId(key));
                    model.remove(&key);
                } else {
                    let slot = i as u32;
                    w.insert(PeerId(key), slot);
                    w.set_reputation(slot, step);
                    w.add_hits(slot, key);
                    model.insert(key, (step, key));
                }
            }
            assert_eq!(table_capacity(&slab), 16);
            assert_eq!(slab.len(), model.len());
            for &k in &keys {
                assert_eq!(slab.read(PeerId(k)), model.get(&k).copied(), "step {step}");
            }
            assert!(slab.try_sweep(&mut sweep));
            sweep.sort_unstable();
            let mut expected: Vec<(u64, u64, u64)> =
                model.iter().map(|(&k, &(r, h))| (k, r, h)).collect();
            expected.sort_unstable();
            assert_eq!(sweep, expected, "step {step}");
        }
    }

    /// One partition's share of the founders (every id the facade's
    /// partition function sends to partition 0 of 8) probes short
    /// chains: the table's start bucket must not be a function of the
    /// same hash bits that chose the partition.
    #[test]
    fn one_partitions_keys_probe_short_chains() {
        use replend_types::hash::splitmix64;
        let keys: Vec<u64> = (0u64..)
            .filter(|&k| splitmix64(k) % 8 == 0)
            .take(25_000)
            .collect();
        let slab = SnapshotSlab::new();
        {
            let mut w = slab.write();
            for (slot, &k) in keys.iter().enumerate() {
                w.insert(PeerId(k), slot as u32);
            }
        }
        let table = unsafe { &*slab.table.load(Ordering::Relaxed) };
        let probes: usize = keys
            .iter()
            .map(|&k| {
                let (at, _) = table.find(k).expect("inserted key is found");
                (at.wrapping_sub(table.start(k)) & table.mask) + 1
            })
            .sum();
        let mean = probes as f64 / keys.len() as f64;
        assert!(mean < 1.6, "mean successful probe {mean:.2} buckets");
    }

    /// A reserve sizes the table and the value arrays once for a group:
    /// the inserts that follow rebuild and retire nothing, and the
    /// table is the one incremental growth would have reached.
    #[test]
    fn reserve_sizes_a_group_at_once() {
        const GROUP: u64 = 25_000;
        let grown = SnapshotSlab::new();
        let sized = SnapshotSlab::new();
        {
            let mut g = grown.write();
            let mut s = sized.write();
            s.reserve(GROUP as usize, GROUP as usize);
            for p in 0..GROUP {
                g.insert(PeerId(p), p as u32);
                s.insert(PeerId(p), p as u32);
                s.add_hits(p as u32, p);
            }
        }
        assert_eq!(table_capacity(&sized), table_capacity(&grown));
        let state = sized.writer.lock().unwrap();
        assert_eq!(state.retired_tables.len(), 1, "only the empty table");
        assert_eq!(state.retired_values.len(), 1, "only the empty arrays");
        drop(state);
        for p in [0, 1, GROUP / 2, GROUP - 1] {
            assert_eq!(sized.read(PeerId(p)), Some((0, p)));
        }
    }

    #[test]
    fn wraparound_epoch_still_validates_by_equality() {
        let slab = SnapshotSlab::with_epoch(u64::MAX - 3);
        {
            let mut w = slab.write();
            w.insert(PeerId(5), 0);
            w.set_reputation(0, 0.25f64.to_bits());
        }
        assert_eq!(slab.epoch(), u64::MAX - 1);
        assert_eq!(slab.read(PeerId(5)), Some((0.25f64.to_bits(), 0)));
        {
            let mut w = slab.write();
            let s = w.slot_of(PeerId(5)).unwrap();
            w.add_hits(s, 1);
        }
        // Wrapped past u64::MAX back to an even epoch.
        assert_eq!(slab.epoch(), 0);
        assert_eq!(slab.read(PeerId(5)), Some((0.25f64.to_bits(), 1)));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_initial_epoch_rejected() {
        SnapshotSlab::with_epoch(1);
    }
}
