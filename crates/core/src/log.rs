//! Structured event log of a community run.
//!
//! Answers the operator questions the raw counters cannot: *why was
//! peer 4711 refused? who vouched for the freerider that got in? when
//! did the audit settle?* The log is a bounded ring buffer of typed
//! [`Event`]s with query helpers; recording is `O(1)` per event and
//! disabled by default (capacity 0) so the paper-scale sweeps pay
//! nothing for it.

use crate::peer::RefusalReason;
use replend_types::hash::PeerMap;
use replend_types::{PeerId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One logged protocol event.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Event {
    /// An arrival filed an introduction request with `introducer`.
    IntroductionRequested {
        /// The arrival.
        newcomer: PeerId,
        /// The member it asked.
        introducer: PeerId,
    },
    /// A peer was admitted to the community.
    Admitted {
        /// The new member.
        newcomer: PeerId,
        /// Its introducer (None under non-lending policies).
        introducer: Option<PeerId>,
    },
    /// An arrival was turned away.
    Refused {
        /// The refused arrival.
        newcomer: PeerId,
        /// Why.
        reason: RefusalReason,
    },
    /// A newcomer's audit settled.
    AuditSettled {
        /// The audited newcomer.
        newcomer: PeerId,
        /// Its introducer.
        introducer: PeerId,
        /// The verdict.
        satisfactory: bool,
    },
    /// A peer was flagged malicious (duplicate introduction).
    Flagged {
        /// The flagged peer.
        peer: PeerId,
    },
    /// A member departed (churn extension).
    Departed {
        /// The departed member.
        peer: PeerId,
    },
}

impl Event {
    /// The peer this event is primarily about.
    pub(crate) fn subject(&self) -> PeerId {
        match *self {
            Event::IntroductionRequested { newcomer, .. } => newcomer,
            Event::Admitted { newcomer, .. } => newcomer,
            Event::Refused { newcomer, .. } => newcomer,
            Event::AuditSettled { newcomer, .. } => newcomer,
            Event::Flagged { peer } => peer,
            Event::Departed { peer } => peer,
        }
    }
}

/// A timestamped event.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: Event,
}

/// Bounded ring-buffer event log with a per-peer index.
///
/// Events get monotonically increasing sequence numbers; the index
/// stores, per subject peer, the live sequence numbers of its events.
/// [`EventLog::history_of`] therefore touches only the peer's own
/// events (borrowed, zero-copy) instead of scanning — and possibly
/// allocating a copy of — the whole buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventLog {
    capacity: usize,
    events: VecDeque<LoggedEvent>,
    /// Events discarded because the buffer was full. Also the
    /// sequence number of the oldest retained event.
    dropped: u64,
    /// Per-subject sequence numbers of retained events, oldest first.
    by_peer: PeerMap<PeerId, VecDeque<u64>>,
}

impl EventLog {
    /// A log retaining at most `capacity` events (0 = disabled).
    pub(crate) fn new(capacity: usize) -> Self {
        EventLog {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            by_peer: PeerMap::default(),
        }
    }

    /// Records an event (no-op when disabled).
    pub(crate) fn record(&mut self, at: SimTime, event: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            let evicted = self.events.pop_front().expect("len == capacity > 0");
            // The evicted event is globally oldest, hence also the
            // oldest in its subject's index — an O(1) pop.
            let subject = evicted.event.subject();
            if let Some(seqs) = self.by_peer.get_mut(&subject) {
                seqs.pop_front();
                if seqs.is_empty() {
                    self.by_peer.remove(&subject);
                }
            }
            self.dropped += 1;
        }
        let seq = self.dropped + self.events.len() as u64;
        self.by_peer
            .entry(event.subject())
            .or_default()
            .push_back(seq);
        self.events.push_back(LoggedEvent { at, event });
    }

    /// Retained events about one peer, oldest first — a borrowed
    /// iterator over the peer's index entries; events about other
    /// peers are never touched.
    pub(crate) fn history_of(&self, peer: PeerId) -> impl Iterator<Item = &LoggedEvent> + '_ {
        self.by_peer
            .get(&peer)
            .into_iter()
            .flatten()
            .map(move |&seq| &self.events[(seq - self.dropped) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: u64) -> Event {
        Event::Admitted {
            newcomer: PeerId(p),
            introducer: Some(PeerId(0)),
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(0);
        assert_eq!(log.capacity, 0);
        log.record(SimTime(1), ev(1));
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new(10);
        log.record(SimTime(1), ev(1));
        log.record(SimTime(2), ev(2));
        let got: Vec<u64> = log.events.iter().map(|e| e.event.subject().raw()).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(log.events.back().unwrap().at, SimTime(2));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut log = EventLog::new(3);
        for p in 0..5 {
            log.record(SimTime(p), ev(p));
        }
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 2);
        let got: Vec<u64> = log.events.iter().map(|e| e.event.subject().raw()).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn history_filters_by_subject() {
        let mut log = EventLog::new(10);
        log.record(
            SimTime(1),
            Event::IntroductionRequested {
                newcomer: PeerId(5),
                introducer: PeerId(1),
            },
        );
        log.record(SimTime(2), ev(6));
        log.record(
            SimTime(3),
            Event::Refused {
                newcomer: PeerId(5),
                reason: RefusalReason::SelectiveRefusal,
            },
        );
        let history: Vec<&LoggedEvent> = log.history_of(PeerId(5)).collect();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].at, SimTime(1));
        assert_eq!(history[1].at, SimTime(3));
        assert_eq!(log.history_of(PeerId(99)).count(), 0);
    }

    #[test]
    fn history_index_survives_eviction() {
        let mut log = EventLog::new(4);
        // Peers 0 and 1 alternate; the ring holds the last 4 events.
        for round in 0..6u64 {
            log.record(SimTime(round), ev(round % 2));
        }
        assert_eq!(log.dropped, 2);
        let p0: Vec<u64> = log.history_of(PeerId(0)).map(|e| e.at.ticks()).collect();
        let p1: Vec<u64> = log.history_of(PeerId(1)).map(|e| e.at.ticks()).collect();
        assert_eq!(p0, vec![2, 4], "evicted events must leave the index");
        assert_eq!(p1, vec![3, 5]);
        // A peer whose only events were evicted has an empty history.
        let mut log2 = EventLog::new(1);
        log2.record(SimTime(1), ev(7));
        log2.record(SimTime(2), ev(8));
        assert_eq!(log2.history_of(PeerId(7)).count(), 0);
        assert_eq!(log2.history_of(PeerId(8)).count(), 1);
    }

    #[test]
    fn subjects_cover_all_variants() {
        let p = PeerId(3);
        let events = [
            Event::IntroductionRequested {
                newcomer: p,
                introducer: PeerId(0),
            },
            Event::Admitted {
                newcomer: p,
                introducer: None,
            },
            Event::Refused {
                newcomer: p,
                reason: RefusalReason::NoIntroducerAvailable,
            },
            Event::AuditSettled {
                newcomer: p,
                introducer: PeerId(0),
                satisfactory: true,
            },
            Event::Flagged { peer: p },
            Event::Departed { peer: p },
        ];
        for e in events {
            assert_eq!(e.subject(), p);
        }
    }
}
