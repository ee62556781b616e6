//! Reporter credibility, as maintained by each score-manager replica.
//!
//! ROCQ's defence against lying reporters: a score manager compares
//! each incoming opinion with its current aggregate for the subject.
//! Agreement (within `θ`) nudges the reporter's credibility up by
//! `γ·(1−C)`; disagreement decays it by `γ·C`. Uncooperative peers —
//! who always report 0 about partners the rest of the community rates
//! near 1 — therefore see their influence wither, which is what keeps
//! the paper's reputation values honest.
//!
//! The arena engine's [`CredibilityBook`] rows hold one credibility
//! per reporter for all of a subject's replicas (they can never
//! differ, see the `slab` module docs), next to the reporter's
//! interaction count with the subject, tagged with the reporter's
//! registration incarnation.

use replend_types::hash::PeerMap;
use replend_types::PeerId;

/// The credibility update rule, single-sourced so the replica-local
/// [`CredibilityTable`] (reference layout) and the arena engine's
/// [`CredibilityBook`] stay bit-identical by construction: agreement
/// moves `c` up by `γ·(1−c)`, disagreement decays it by `γ·c`,
/// clamped to `[0, 1]`.
#[inline]
pub(crate) fn credibility_update(c: f64, agreed: bool, gamma: f64) -> f64 {
    let next = if agreed {
        c + gamma * (1.0 - c)
    } else {
        c - gamma * c
    };
    next.clamp(0.0, 1.0)
}

/// Per-reporter credibility table of one score-manager replica.
#[derive(Clone, Debug)]
pub(crate) struct CredibilityTable {
    initial: f64,
    gamma: f64,
    table: PeerMap<PeerId, f64>,
}

impl CredibilityTable {
    /// A table where unknown reporters start at `initial` and updates
    /// use learning rate `gamma`.
    pub fn new(initial: f64, gamma: f64) -> Self {
        CredibilityTable {
            initial: initial.clamp(0.0, 1.0),
            gamma: gamma.clamp(0.0, 1.0),
            table: PeerMap::default(),
        }
    }

    /// Current credibility of `reporter`.
    pub fn get(&self, reporter: PeerId) -> f64 {
        self.table.get(&reporter).copied().unwrap_or(self.initial)
    }

    /// Applies the agreement/disagreement update and returns the new
    /// credibility.
    pub fn update(&mut self, reporter: PeerId, agreed: bool) -> f64 {
        let next = credibility_update(self.get(reporter), agreed, self.gamma);
        self.table.insert(reporter, next);
        next
    }
}

/// The per-*subject* credibility ledger of the arena engine: one row
/// per reporter holding that reporter's credibility, which stands for
/// its credibility at **every** replica of the subject.
///
/// This is the hot-path fusion of what the reference layout spreads
/// over `numSM` separate [`CredibilityTable`]s: the report loop pays
/// **one** hash probe per feedback (a [`PeerMap`] probe: one
/// `splitmix64` mix of the reporter id) and reads the row inline, with
/// no per-row heap allocation. Values are identical by construction —
/// replicas of a subject observe the same report stream with the same
/// credibilities, and crash recovery copies a sibling that is already
/// equal, so the only crash that changes a credibility is a lost
/// replica with no sibling (`numSM = 1`), which the engine applies as
/// a whole-book [`CredibilityBook::reset`].
///
/// Each row also carries the reporter's first-hand **interaction
/// count** with the subject (the `n` of the quality ramp
/// [`quality_from_count`](crate::quality::quality_from_count)) behind
/// a **registration tag**: the incarnation number the engine handed
/// the reporter when it registered. A row whose tag differs from the
/// reporter's current incarnation reads as count 0, so a departure
/// forgets the reporter's counts without visiting any row — the next
/// opinion from a re-registered reporter re-tags the row and restarts
/// at 0.
///
/// Rows are **never removed on reporter departure**, mirroring the
/// replica tables of the reference layout: a departed reporter's
/// earned credibility survives and resumes if it re-joins; only its
/// interaction count goes stale.
///
/// The book stores no parameters: the engine passes the initial
/// credibility from its `RocqParams` where a row is created or reset.
#[derive(Clone, Debug, Default)]
pub(crate) struct CredibilityBook {
    rows: PeerMap<PeerId, Row>,
}

/// One reporter's row: its credibility plus the tagged interaction
/// count.
#[derive(Clone, Copy, Debug)]
struct Row {
    cred: f64,
    /// The reporter incarnation `count` belongs to.
    tag: u64,
    count: u32,
}

impl Row {
    /// The count as seen by the reporter's incarnation `tag`.
    #[inline]
    fn count_for(&self, tag: u64) -> u32 {
        if self.tag == tag {
            self.count
        } else {
            0
        }
    }
}

impl CredibilityBook {
    /// An empty book with room for `rows` reporters, so checkpoint
    /// import installs a book's rows without rehashing.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        CredibilityBook {
            rows: PeerMap::with_capacity_and_hasher(rows, Default::default()),
        }
    }

    /// Records one more interaction of `reporter` (current
    /// incarnation `tag`) with the subject — the single book probe
    /// (one `splitmix64` mix) of the engine's report hot path. Returns
    /// the interaction count *before* the increment (the evidence
    /// backing the current opinion) and the reporter's mutable
    /// credibility. A new reporter starts at `initial`.
    #[inline]
    pub(crate) fn record(&mut self, reporter: PeerId, tag: u64, initial: f64) -> (u32, &mut f64) {
        let row = self.rows.entry(reporter).or_insert(Row {
            cred: initial,
            tag,
            count: 0,
        });
        let before = row.count_for(tag);
        row.tag = tag;
        row.count = before.saturating_add(1);
        (before, &mut row.cred)
    }

    /// True when `reporter` has a row — a read-only probe, which the
    /// engine's warm-up pass uses to load the row before the apply
    /// pass updates it.
    #[inline]
    pub(crate) fn has_row(&self, reporter: PeerId) -> bool {
        self.rows.contains_key(&reporter)
    }

    /// Crash without a surviving sibling: every reporter's credibility
    /// resets to `initial` (the equivalent of a fresh table — unknown
    /// and reset reporters are indistinguishable at `initial`). The
    /// interaction counts are not replica state and stay.
    pub(crate) fn reset(&mut self, initial: f64) {
        for row in self.rows.values_mut() {
            row.cred = initial;
        }
    }

    /// Every reporter's explicit row as `(reporter, interaction count,
    /// credibility)`, in arbitrary (hash) order, with each count read
    /// through `incarnation_of` (the reporter's current incarnation,
    /// `None` once it departed): a stale tag reads 0. Checkpoint
    /// export sorts by reporter for canonical bytes.
    pub(crate) fn iter_rows<'a>(
        &'a self,
        incarnation_of: impl Fn(PeerId) -> Option<u64> + 'a,
    ) -> impl Iterator<Item = (PeerId, u32, f64)> + 'a {
        self.rows.iter().map(move |(&p, row)| {
            let count = incarnation_of(p).map_or(0, |tag| row.count_for(tag));
            (p, count, row.cred)
        })
    }

    /// Checkpoint import: installs a reporter's row verbatim,
    /// bit-exact, with its count tagged `tag`.
    pub(crate) fn insert_row(&mut self, reporter: PeerId, cred: f64, count: u32, tag: u64) {
        self.rows.insert(reporter, Row { cred, tag, count });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The initial credibility the tests create rows with.
    const INITIAL: f64 = 0.5;

    /// Current credibility the book assigns to `reporter`.
    fn credibility(book: &CredibilityBook, reporter: PeerId) -> f64 {
        book.rows.get(&reporter).map_or(INITIAL, |r| r.cred)
    }

    #[test]
    fn unknown_reporter_gets_initial() {
        let t = CredibilityTable::new(0.5, 0.1);
        assert_eq!(t.get(PeerId(1)), 0.5);
    }

    #[test]
    fn agreement_raises_credibility() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        let c1 = t.update(PeerId(1), true);
        assert!((c1 - 0.55).abs() < 1e-12);
        let c2 = t.update(PeerId(1), true);
        assert!(c2 > c1);
    }

    #[test]
    fn disagreement_decays_credibility() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        let c1 = t.update(PeerId(1), false);
        assert!((c1 - 0.45).abs() < 1e-12);
    }

    #[test]
    fn persistent_liar_loses_influence() {
        // An uncooperative peer always reporting 0 against a
        // consensus of 1: after ~50 disagreements its credibility is
        // negligible.
        let mut t = CredibilityTable::new(0.5, 0.1);
        for _ in 0..50 {
            t.update(PeerId(9), false);
        }
        assert!(t.get(PeerId(9)) < 0.01);
    }

    #[test]
    fn honest_reporter_approaches_one() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        for _ in 0..100 {
            t.update(PeerId(3), true);
        }
        assert!(t.get(PeerId(3)) > 0.99);
    }

    #[test]
    fn book_starts_at_initial() {
        let mut b = CredibilityBook::default();
        assert_eq!(credibility(&b, PeerId(1)), 0.5);
        assert_eq!(b.rows.len(), 0);
        assert_eq!(b.record(PeerId(1), 1, INITIAL), (0, &mut 0.5));
        assert_eq!(b.rows.len(), 1);
        *b.record(PeerId(1), 1, INITIAL).1 = 0.9;
        assert_eq!(credibility(&b, PeerId(1)), 0.9);
        assert_eq!(b.rows.len(), 1, "rows are reused, not re-created");
    }

    #[test]
    fn counts_restart_when_the_reporter_tag_changes() {
        let mut b = CredibilityBook::default();
        let (a, r) = (PeerId(1), PeerId(2));
        assert_eq!(
            b.record(a, 7, INITIAL).0,
            0,
            "returns the pre-increment count"
        );
        assert_eq!(b.record(a, 7, INITIAL).0, 1);
        assert_eq!(b.record(r, 3, INITIAL).0, 0, "counts are per reporter");
        *b.record(a, 7, INITIAL).1 = 0.9;
        let counts = |b: &CredibilityBook, tag_a: Option<u64>| {
            let mut rows: Vec<(PeerId, u32)> = b
                .iter_rows(|p| if p == a { tag_a } else { Some(3) })
                .map(|(p, n, _)| (p, n))
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(counts(&b, Some(7)), [(a, 3), (r, 1)]);
        // Departed (no incarnation) or re-registered (new tag): the
        // count reads 0, the credibility survives.
        assert_eq!(counts(&b, None), [(a, 0), (r, 1)]);
        assert_eq!(counts(&b, Some(8)), [(a, 0), (r, 1)]);
        assert_eq!(
            b.record(a, 8, INITIAL).0,
            0,
            "a new incarnation restarts at 0"
        );
        assert_eq!(credibility(&b, a), 0.9);
        assert_eq!(counts(&b, Some(8)), [(a, 1), (r, 1)]);
    }

    #[test]
    fn book_matches_per_replica_tables() {
        // The book must be value-identical to every one of numSM
        // independent tables fed the same agreement stream, including
        // across a crash with no sibling (fresh tables, book reset),
        // and the reset must keep the interaction counts.
        let (gamma, slots) = (0.1, 3);
        let mut book = CredibilityBook::default();
        let fresh = || -> Vec<CredibilityTable> {
            (0..slots)
                .map(|_| CredibilityTable::new(INITIAL, gamma))
                .collect()
        };
        let mut tables = fresh();
        let reporter = PeerId(7);
        let feed = |book: &mut CredibilityBook, tables: &mut [CredibilityTable], agreed: bool| {
            let c = book.record(reporter, 1, INITIAL).1;
            *c = credibility_update(*c, agreed, gamma);
            for t in tables.iter_mut() {
                t.update(reporter, agreed);
            }
        };
        for step in 0..40 {
            feed(&mut book, &mut tables, step % 3 != 0);
        }
        book.reset(INITIAL);
        tables = fresh();
        assert_eq!(credibility(&book, reporter), INITIAL);
        assert_eq!(book.iter_rows(|_| Some(1)).next().unwrap().1, 40);
        for step in 0..40 {
            feed(&mut book, &mut tables, step % 2 == 0);
        }
        for (slot, t) in tables.iter().enumerate() {
            assert_eq!(
                credibility(&book, reporter).to_bits(),
                t.get(reporter).to_bits(),
                "slot {slot} diverged from its reference table"
            );
        }
    }

    proptest! {
        /// Credibility never escapes [0, 1] under arbitrary update
        /// sequences.
        #[test]
        fn credibility_bounded(
            initial in 0.0f64..=1.0,
            gamma in 0.0f64..=1.0,
            updates in proptest::collection::vec(proptest::bool::ANY, 0..200),
        ) {
            let mut t = CredibilityTable::new(initial, gamma);
            for agreed in updates {
                let c = t.update(PeerId(0), agreed);
                prop_assert!((0.0..=1.0).contains(&c));
            }
        }

        /// Agreement never lowers, disagreement never raises.
        #[test]
        fn update_monotonicity(initial in 0.0f64..=1.0, gamma in 0.0f64..=1.0) {
            let mut t = CredibilityTable::new(initial, gamma);
            let before = t.get(PeerId(0));
            let up = t.update(PeerId(0), true);
            prop_assert!(up >= before - 1e-12);
            let mut t2 = CredibilityTable::new(initial, gamma);
            let down = t2.update(PeerId(0), false);
            prop_assert!(down <= before + 1e-12);
        }
    }
}
