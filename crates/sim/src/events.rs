//! A deterministic future-event queue.
//!
//! The community simulation advances in unit ticks (one transaction
//! per tick), but two protocol mechanisms fire *at* specific future
//! instants: the introduction waiting period `T` and (in extended
//! scenarios) delayed audits. [`EventQueue`] schedules those.
//!
//! Determinism requirement: events at the same timestamp must pop in
//! insertion order, otherwise two runs with the same seed could
//! diverge through heap tie-breaking. A monotone sequence number makes
//! the ordering total.

use replend_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at `at`, carrying `payload`.
#[derive(Clone, Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour on BinaryHeap (a max-heap):
        // earliest time first, then lowest sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of future events with FIFO tie-breaking at equal times.
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` to fire at time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().is_some_and(|s| s.at <= now) {
            let s = self.heap.pop().expect("peeked non-empty");
            Some((s.at, s.payload))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every event due at or before `now`, in pop order.
    fn drain_due<E>(q: &mut EventQueue<E>, now: SimTime) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop_due(now)).collect()
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.pop_due(SimTime(u64::MAX)), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop_due(SimTime(100)), Some((SimTime(10), "a")));
        assert_eq!(q.pop_due(SimTime(100)), Some((SimTime(20), "b")));
        assert_eq!(q.pop_due(SimTime(100)), Some((SimTime(30), "c")));
        assert_eq!(q.pop_due(SimTime(u64::MAX)), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(SimTime(5), i);
        }
        let popped: Vec<u32> = drain_due(&mut q, SimTime(5))
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn not_due_stays_queued() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), ());
        assert_eq!(q.pop_due(SimTime(49)), None);
        assert_eq!(q.pop_due(SimTime(50)), Some((SimTime(50), ())));
        assert_eq!(q.pop_due(SimTime(u64::MAX)), None);
    }

    #[test]
    fn drain_due_respects_cutoff() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        q.schedule(SimTime(3), 3);
        let due = drain_due(&mut q, SimTime(2));
        assert_eq!(due, [(SimTime(1), 1), (SimTime(2), 2)]);
        assert_eq!(drain_due(&mut q, SimTime(u64::MAX)), [(SimTime(3), 3)]);
    }

    proptest! {
        /// Pop order is sorted by (time, insertion order).
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..100, 1..64)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let drained = drain_due(&mut q, SimTime(1000));
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort();
            let got: Vec<(u64, usize)> =
                drained.into_iter().map(|(t, i)| (t.ticks(), i)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
