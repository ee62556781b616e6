//! ISSUE 5 acceptance: a steady-state `report_batch` +
//! `drain_deltas` cycle on the arena engine performs **zero** heap
//! allocations.
//!
//! This binary installs a counting global allocator (which is why the
//! test lives alone in its own integration-test file — the counter
//! must not see concurrent tests' allocations). After a warm-up that
//! grows every engine-owned scratch buffer, hash table and the
//! caller's delta buffer to the workload's working set, further
//! identical batches must not allocate at all: the handle index and
//! credibility books only probe existing entries, the score-state
//! slab is written in place, the first-touch list is
//! cleared-not-freed, and the drain's canonical order sorts a reused
//! index buffer in place.

use replend_rocq::{ReputationEngine, RocqEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of `alloc`/`realloc`/`alloc_zeroed` calls since process
/// start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`, only counting calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_report_batch_performs_zero_allocations() {
    const SUBJECTS: u64 = 1_500;
    let mut engine = RocqEngine::new(RocqParams::default(), 6, 0xA11C);
    for p in 0..SUBJECTS {
        engine.register_peer(PeerId(p), Reputation::ONE);
    }
    // A full-population tick: every subject receives one opinion,
    // reporters stride over the membership. The same batch repeats,
    // so the steady state reuses every (reporter, subject) book row.
    let batch: Vec<Feedback> = (0..SUBJECTS)
        .map(|i| {
            Feedback::new(
                PeerId((i * 7 + 1) % SUBJECTS),
                PeerId(i % SUBJECTS),
                (i % 2) as f64,
            )
        })
        .collect();
    let mut deltas = Vec::new();

    // Warm-up: grow scratch buffers, book rows and the caller's
    // delta buffer to the working set.
    for _ in 0..3 {
        engine.report_batch(&batch);
        deltas.clear();
        engine.drain_deltas(&mut deltas);
    }
    // Subjects fed opinion 0 keep moving toward 0 and emit a delta
    // every batch; subjects fed opinion 1 already sit at 1.0 (their
    // registration value), so their aggregate is a bitwise no-op.
    assert_eq!(
        deltas.len(),
        SUBJECTS as usize / 2,
        "every even-id subject's aggregate should move each batch"
    );

    // Measured region: the steady-state hot path must not allocate.
    let mut checksum = 0.0f64;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..8 {
        engine.report_batch(&batch);
        deltas.clear();
        engine.drain_deltas(&mut deltas);
        checksum += engine.reputation(PeerId(7)).unwrap().value();
        checksum += deltas.len() as f64;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(checksum > 0.0, "hot path must have produced results");
    assert_eq!(
        after - before,
        0,
        "steady-state report_batch/drain_deltas cycle allocated"
    );
}
