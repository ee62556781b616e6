//! Report quality: the reporter's confidence in its own opinion.
//!
//! In ROCQ the reporter attaches a *quality* value to each opinion,
//! reflecting how much first-hand evidence backs it. We use the
//! saturating ramp `q(n) = max(min_quality, n / (n + η))` where `n`
//! is the number of the reporter's previous transactions with the
//! subject — a reporter's tenth opinion about the same partner is
//! worth more than its first.
//!
//! Both the arena [`RocqEngine`](crate::engine::RocqEngine) and the
//! seed-layout
//! [`ReferenceEngine`](crate::reference::ReferenceEngine) track these
//! counts in an [`InteractionLog`]; the layouts share the structure
//! so reporter departures forget counts identically (credibility
//! state, by contrast, is stored per layout — see
//! [`CredibilityBook`](crate::credibility::CredibilityBook)).

use replend_types::PeerId;
use std::collections::HashMap;

/// The quality ramp.
#[inline]
pub(crate) fn quality_from_count(n: u32, eta: f64, min_quality: f64) -> f64 {
    let q = n as f64 / (n as f64 + eta);
    q.max(min_quality).min(1.0)
}

/// Tracks pairwise first-hand interaction counts (reporter, subject).
#[derive(Clone, Debug, Default)]
pub(crate) struct InteractionLog {
    counts: HashMap<(PeerId, PeerId), u32>,
}

impl InteractionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one more interaction, returning the count *before* the
    /// increment (the evidence backing the current opinion).
    pub fn record(&mut self, reporter: PeerId, subject: PeerId) -> u32 {
        let c = self.counts.entry((reporter, subject)).or_insert(0);
        let before = *c;
        *c = c.saturating_add(1);
        before
    }

    /// Forgets everything about `peer` (as reporter or subject).
    pub(crate) fn forget(&mut self, peer: PeerId) {
        self.counts.retain(|(r, s), _| *r != peer && *s != peer);
    }

    /// Every tracked (reporter, subject) pair with its count, in
    /// arbitrary (hash) order — checkpoint export sorts the pairs for
    /// canonical bytes.
    pub(crate) fn iter_counts(&self) -> impl Iterator<Item = ((PeerId, PeerId), u32)> + '_ {
        self.counts.iter().map(|(&pair, &n)| (pair, n))
    }

    /// Checkpoint import: installs a pair's count verbatim.
    pub(crate) fn insert_count(&mut self, reporter: PeerId, subject: PeerId, count: u32) {
        self.counts.insert((reporter, subject), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Number of recorded (reporter, subject) interactions.
    fn count(log: &InteractionLog, reporter: PeerId, subject: PeerId) -> u32 {
        log.counts.get(&(reporter, subject)).copied().unwrap_or(0)
    }

    #[test]
    fn quality_ramp_values() {
        // η = 2: q(0) floored, q(2) = 0.5, q(∞) → 1.
        assert_eq!(quality_from_count(0, 2.0, 0.2), 0.2);
        assert!((quality_from_count(2, 2.0, 0.2) - 0.5).abs() < 1e-12);
        assert!((quality_from_count(18, 2.0, 0.2) - 0.9).abs() < 1e-12);
        assert!(quality_from_count(1_000_000, 2.0, 0.2) < 1.0 + 1e-12);
    }

    #[test]
    fn quality_monotone_in_count() {
        let mut prev = 0.0;
        for n in 0..100 {
            let q = quality_from_count(n, 2.0, 0.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn log_records_and_counts() {
        let mut log = InteractionLog::new();
        let (a, b) = (PeerId(1), PeerId(2));
        assert_eq!(count(&log, a, b), 0);
        assert_eq!(log.record(a, b), 0, "returns pre-increment count");
        assert_eq!(log.record(a, b), 1);
        assert_eq!(count(&log, a, b), 2);
        // Direction matters: b→a is a separate pair.
        assert_eq!(count(&log, b, a), 0);
        assert_eq!(log.counts.len(), 1);
    }

    #[test]
    fn forget_removes_both_directions() {
        let mut log = InteractionLog::new();
        log.record(PeerId(1), PeerId(2));
        log.record(PeerId(2), PeerId(1));
        log.record(PeerId(3), PeerId(4));
        log.forget(PeerId(1));
        assert_eq!(count(&log, PeerId(1), PeerId(2)), 0);
        assert_eq!(count(&log, PeerId(2), PeerId(1)), 0);
        assert_eq!(count(&log, PeerId(3), PeerId(4)), 1);
        assert_eq!(log.counts.len(), 1);
    }

    proptest! {
        #[test]
        fn quality_always_in_unit_interval(
            n in proptest::num::u32::ANY,
            eta in 0.0f64..100.0,
            floor in 0.0f64..1.0,
        ) {
            let q = quality_from_count(n, eta, floor);
            prop_assert!((0.0..=1.0).contains(&q));
            prop_assert!(q >= floor - 1e-12);
        }
    }
}
