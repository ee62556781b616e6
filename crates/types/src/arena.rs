//! Dense slot-arena primitives for allocation-free hot paths.
//!
//! The reputation engine (and any future subsystem with a large,
//! churning object population) stores its records in contiguous
//! `Vec`s indexed by a small [`Handle`] instead of hashing a full key
//! per access. The pieces here are deliberately unbundled so a user
//! can hang *several* parallel arrays (hot fields split
//! struct-of-arrays from cold ones) off one allocation of slots:
//!
//! * [`Handle`] — an opaque `u32` slot index. Handles are **stable**:
//!   a record keeps its handle for its whole lifetime, across any
//!   amount of churn around it.
//! * [`SlotAllocator`] — the free-list that hands out handles.
//!   Vacated slots are recycled LIFO, so a long-lived population with
//!   churn stays dense instead of growing without bound.
//!
//! Everything is deterministic: allocation order depends only on the
//! sequence of `alloc`/`release` calls, never on hashing or time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A stable index into a slot arena.
///
/// `Handle` is deliberately not constructible from arbitrary integers
/// outside this module (other than [`Handle::from_index`], for
/// storage layers that persist them): arenas hand them out via
/// [`SlotAllocator::alloc`] and they stay valid until released.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Handle(u32);

impl Handle {
    /// The slot index this handle names, for indexing parallel arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a handle from a raw slot index.
    ///
    /// # Panics
    /// If `index` exceeds `u32::MAX` (the arena's capacity limit).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "slot index exceeds u32 arena");
        Handle(index as u32)
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// Result of one [`SlotAllocator::alloc`]: the caller must push fresh
/// entries onto its parallel arrays for a [`SlotAlloc::Fresh`] handle
/// and overwrite existing entries for a [`SlotAlloc::Reused`] one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotAlloc {
    /// A never-used slot one past the previous end of the arrays.
    Fresh(Handle),
    /// A recycled slot; the arrays already have (stale) entries at it.
    Reused(Handle),
}

/// The free-list behind a dense slot arena.
///
/// The allocator tracks only slot occupancy — the data lives in
/// whatever parallel `Vec`s the caller maintains. Released handles
/// are recycled in LIFO order, which keeps reuse deterministic and
/// cache-friendly (the most recently vacated slot is the most likely
/// to still be warm).
#[derive(Clone, Debug, Default)]
pub struct SlotAllocator {
    /// Vacated handles, reused from the back.
    free: Vec<Handle>,
    /// Total slots ever created (`== parallel array length`).
    capacity: u32,
}

impl SlotAllocator {
    /// An empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot, recycling the most recently released one if
    /// any. On [`SlotAlloc::Fresh`] the caller owes one `push` per
    /// parallel array.
    #[inline]
    pub fn alloc(&mut self) -> SlotAlloc {
        match self.free.pop() {
            Some(h) => SlotAlloc::Reused(h),
            None => {
                let h = Handle(self.capacity);
                self.capacity = self
                    .capacity
                    .checked_add(1)
                    .expect("slot arena exceeds u32 capacity");
                SlotAlloc::Fresh(h)
            }
        }
    }

    /// Returns `handle` to the free list.
    ///
    /// Releasing a handle twice (without an intervening `alloc`
    /// returning it) is a caller bug: the slot would be handed out to
    /// two owners. The allocator does not scan for it — the caller's
    /// occupancy index (e.g. a `PeerId → Handle` map) is the guard.
    #[inline]
    pub fn release(&mut self, handle: Handle) {
        debug_assert!(handle.0 < self.capacity, "released a foreign handle");
        self.free.push(handle);
    }

    /// Rebuilds an allocator from persisted parts: `capacity` slots
    /// ever created, with `free` vacated in the given order (oldest
    /// release first, exactly as [`SlotAllocator::free_handles`]
    /// reports it). The restored allocator recycles slots in the same
    /// LIFO order as the original — required for restored arenas to
    /// stay bit-identical with the pre-persistence timeline under
    /// further churn.
    ///
    /// # Panics
    /// If any freed handle names a slot at or beyond `capacity`.
    pub fn from_parts(capacity: u32, free: Vec<Handle>) -> Self {
        assert!(
            free.iter().all(|h| h.0 < capacity),
            "freed handle beyond arena capacity"
        );
        SlotAllocator { free, capacity }
    }

    /// The vacated slots awaiting reuse, oldest release first (the
    /// back of the slice is recycled next). Feed this to
    /// [`SlotAllocator::from_parts`] to persist the allocator.
    #[inline]
    pub fn free_handles(&self) -> &[Handle] {
        &self.free
    }

    /// Total slots ever created — the required length of every
    /// parallel array.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocated handle, fresh or reused.
    fn handle(alloc: SlotAlloc) -> Handle {
        match alloc {
            SlotAlloc::Fresh(h) | SlotAlloc::Reused(h) => h,
        }
    }

    /// Currently occupied slots.
    fn live(a: &SlotAllocator) -> usize {
        a.capacity() - a.free_handles().len()
    }

    #[test]
    fn handles_are_dense_and_fresh_first() {
        let mut a = SlotAllocator::new();
        assert_eq!(a.alloc(), SlotAlloc::Fresh(Handle(0)));
        assert_eq!(a.alloc(), SlotAlloc::Fresh(Handle(1)));
        assert_eq!(a.alloc(), SlotAlloc::Fresh(Handle(2)));
        assert_eq!(a.capacity(), 3);
        assert_eq!(live(&a), 3);
    }

    #[test]
    fn release_recycles_lifo() {
        let mut a = SlotAllocator::new();
        let h0 = handle(a.alloc());
        let h1 = handle(a.alloc());
        let _h2 = handle(a.alloc());
        a.release(h0);
        a.release(h1);
        assert_eq!(live(&a), 1);
        // LIFO: the most recently released slot comes back first.
        assert_eq!(a.alloc(), SlotAlloc::Reused(h1));
        assert_eq!(a.alloc(), SlotAlloc::Reused(h0));
        // Exhausted free list falls through to a fresh slot.
        assert_eq!(a.alloc(), SlotAlloc::Fresh(Handle(3)));
        assert_eq!(a.capacity(), 4);
    }

    #[test]
    fn from_parts_restores_recycle_order() {
        let mut a = SlotAllocator::new();
        let h0 = handle(a.alloc());
        let h1 = handle(a.alloc());
        let _h2 = handle(a.alloc());
        a.release(h0);
        a.release(h1);

        let mut b = SlotAllocator::from_parts(a.capacity() as u32, a.free_handles().to_vec());
        assert_eq!(b.capacity(), a.capacity());
        assert_eq!(live(&b), live(&a));
        // Identical future allocation sequence.
        for _ in 0..3 {
            assert_eq!(a.alloc(), b.alloc());
        }
    }

    #[test]
    #[should_panic(expected = "freed handle beyond arena capacity")]
    fn from_parts_rejects_foreign_handles() {
        let _ = SlotAllocator::from_parts(2, vec![Handle::from_index(2)]);
    }

    #[test]
    fn handle_index_round_trip() {
        let h = Handle::from_index(41);
        assert_eq!(h.index(), 41);
        assert_eq!(format!("{h:?}"), "slot#41");
    }
}
