//! The indexed peer store with incrementally-maintained community
//! aggregates.
//!
//! The seed implementation kept peers in a flat `Vec<PeerRecord>` and
//! recomputed every sampled quantity — population mix, mean
//! cooperative/uncooperative reputation, the member reputation
//! histogram — with a full O(n) scan (plus one engine query per
//! member). The paper samples those quantities continuously, so at
//! the ROADMAP's scale targets the *sampling* dominated the run.
//!
//! [`PeerTable`] turns each of them into a read of state maintained
//! at the only places it can change:
//!
//! * **status transitions** (`admit`, `refuse`, `flag`, `depart`)
//!   update the live [`Population`] counters and move the peer in and
//!   out of the member index and the reputation accumulators;
//! * **reputation movements** arrive as [`ReputationDelta`]s drained
//!   from the engine (see
//!   [`ReputationEngine::drain_deltas`](replend_rocq::ReputationEngine::drain_deltas))
//!   and shift the per-behaviour [`MeanAcc`]s and the fine-grained
//!   histogram bins by exactly `new − old`.
//!
//! The table also remembers each member's last engine aggregate
//! (`tracked`), bit-identical to the engine's cached value, so
//! removals can subtract precisely what was added and queries never
//! have to poll the engine. All structures are index-based — no
//! hashing anywhere — so iteration order, and with it the workspace's
//! byte-identical same-seed guarantee, is deterministic by
//! construction.
//!
//! Cost model: `population()` and the two means are O(1),
//! [`PeerTable::histogram`] is O(buckets) whenever the requested
//! bucket count divides the internal resolution
//! ([`HIST_RESOLUTION`] = 120, covering every figure in the paper)
//! and O(members) otherwise, and every mutation is O(1).

use crate::peer::{PeerRecord, PeerStatus, RefusalReason};
use crate::stats::Population;
use replend_sim::stats::Histogram;
use replend_types::{Behavior, MeanAcc, PeerId, ReputationDelta, SimTime};

/// Number of fine-grained bins the member-reputation histogram is
/// maintained at. Chosen for its divisor count (1, 2, 3, 4, 5, 6, 8,
/// 10, 12, 15, 20, 24, 30, 40, 60, 120): any of those bucket counts
/// is served in O(buckets).
pub(crate) const HIST_RESOLUTION: usize = 120;

/// Upper edge of the histogram range — matches the seed's
/// `Histogram::new(0.0, 1.0 + 1e-9, ..)` so reputation 1.0 lands in
/// the top bin instead of overflow. Public so every reputation
/// histogram in the workspace (e.g. the cluster's merged one) uses
/// the same bounds.
pub(crate) const HIST_HI: f64 = 1.0 + 1e-9;

/// The fine bin of a reputation value (same arithmetic as
/// [`Histogram::record`] over `[0, HIST_HI)`).
#[inline]
fn fine_bin(x: f64) -> usize {
    let width = HIST_HI / HIST_RESOLUTION as f64;
    ((x / width) as usize).min(HIST_RESOLUTION - 1)
}

/// How [`PeerTable::histogram`] serves a bucket count — the former
/// silent O(members) fallback, made explicit and queryable so callers
/// on a latency budget can check before asking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistogramMode {
    /// `buckets` divides [`HIST_RESOLUTION`]: each output bucket is
    /// the sum of `group` adjacent maintained fine bins — O(buckets),
    /// engine-free, and exactly what a direct rebin would produce.
    Grouped {
        /// Fine bins summed per output bucket.
        group: usize,
    },
    /// `buckets` does not divide [`HIST_RESOLUTION`] (including every
    /// `buckets > HIST_RESOLUTION`): the table rebins the tracked
    /// member reputations in an O(members) pass. Still engine-free
    /// and bit-identical to recording each member into a fresh
    /// [`Histogram`], just not O(buckets).
    Rebinned,
}

/// Indexed peer store: records, per-status accounting, and O(1)
/// community aggregates.
#[derive(Clone, Debug)]
pub struct PeerTable {
    /// Every peer ever seen, indexed by `PeerId` (ids are dense).
    records: Vec<PeerRecord>,
    /// Admitted members in insertion order (departures swap-remove).
    member_index: Vec<PeerId>,
    /// Position of each peer in `member_index`, or `NOT_MEMBER`.
    member_pos: Vec<usize>,
    /// Each peer's last engine aggregate — bit-identical to the
    /// engine's cached value while the peer is a member (the
    /// community's accounting checks read it directly).
    pub(crate) tracked: Vec<f64>,
    /// Live population counters.
    pop: Population,
    /// Mean-reputation accumulator over cooperative members.
    coop: MeanAcc,
    /// Mean-reputation accumulator over uncooperative members.
    uncoop: MeanAcc,
    /// Member reputations binned at [`HIST_RESOLUTION`].
    hist: Vec<u64>,
}

const NOT_MEMBER: usize = usize::MAX;

impl PeerTable {
    /// An empty table with room for `capacity` peers.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PeerTable {
            records: Vec::with_capacity(capacity),
            member_index: Vec::with_capacity(capacity),
            member_pos: Vec::with_capacity(capacity),
            tracked: Vec::with_capacity(capacity),
            pop: Population::default(),
            coop: MeanAcc::new(),
            uncoop: MeanAcc::new(),
            hist: vec![0; HIST_RESOLUTION],
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The id the next pushed peer will receive.
    pub(crate) fn next_id(&self) -> PeerId {
        PeerId(self.records.len() as u64)
    }

    /// Number of peers ever seen (members, waiting, refused, flagged,
    /// departed).
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// The record of `peer`, if known.
    pub(crate) fn get(&self, peer: PeerId) -> Option<&PeerRecord> {
        self.records.get(peer.index())
    }

    /// True when `peer` is an admitted member.
    pub(crate) fn is_member(&self, peer: PeerId) -> bool {
        self.records
            .get(peer.index())
            .is_some_and(|p| p.status.is_member())
    }

    /// Iterates over admitted members (insertion order, except where
    /// departures swapped the tail in).
    pub(crate) fn members(&self) -> impl Iterator<Item = &PeerRecord> + '_ {
        self.member_index.iter().map(|id| &self.records[id.index()])
    }

    /// Point-in-time population snapshot — an O(1) copy of the live
    /// counters.
    pub(crate) fn population(&self) -> Population {
        self.pop
    }

    /// Mean reputation over cooperative members (the Figure-2
    /// quantity) — an O(1) accumulator read. `None` when there are no
    /// cooperative members.
    pub(crate) fn mean_cooperative_reputation(&self) -> Option<f64> {
        self.coop.mean()
    }

    /// Mean reputation over uncooperative members — O(1). `None` when
    /// there are none.
    pub(crate) fn mean_uncooperative_reputation(&self) -> Option<f64> {
        self.uncoop.mean()
    }

    /// The serving strategy for a bucket count, after the same
    /// clamping [`PeerTable::histogram`] applies (`buckets = 0` is
    /// clamped to 1, which groups). See [`HistogramMode`].
    pub(crate) fn histogram_mode(buckets: usize) -> HistogramMode {
        let buckets = buckets.max(1);
        if buckets <= HIST_RESOLUTION && HIST_RESOLUTION % buckets == 0 {
            HistogramMode::Grouped {
                group: HIST_RESOLUTION / buckets,
            }
        } else {
            HistogramMode::Rebinned
        }
    }

    /// Histogram of member reputations over `buckets` equal bins of
    /// `[0, 1]` (`buckets = 0` is clamped to 1; values of exactly 1.0
    /// land in the top bucket via [`HIST_HI`]).
    ///
    /// The cost depends on [`PeerTable::histogram_mode`]: O(buckets)
    /// grouping of the maintained fine bins when `buckets` divides
    /// [`HIST_RESOLUTION`] (all of the paper's figures), otherwise a
    /// documented O(members) rebin of the tracked values — both
    /// engine-free, and both bit-identical to recording every member
    /// reputation into a fresh [`Histogram`].
    pub(crate) fn histogram(&self, buckets: usize) -> Histogram {
        let buckets = buckets.max(1);
        let mut out = Histogram::new(0.0, HIST_HI, buckets);
        match Self::histogram_mode(buckets) {
            HistogramMode::Grouped { group } => {
                for (i, &n) in self.hist.iter().enumerate() {
                    out.add_to_bucket(i / group, n);
                }
            }
            HistogramMode::Rebinned => {
                for id in &self.member_index {
                    out.record(self.tracked[id.index()]);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Mutations (the only places the aggregates can change)
    // ------------------------------------------------------------------

    /// Records a founding member already holding `reputation`.
    pub(crate) fn push_founding(&mut self, record: PeerRecord, reputation: f64) {
        debug_assert_eq!(record.id, self.next_id(), "peer ids must stay dense");
        debug_assert!(record.status.is_member());
        let id = record.id;
        self.records.push(record);
        self.member_pos.push(NOT_MEMBER);
        self.tracked.push(0.0);
        self.enter_membership(id, reputation);
    }

    /// Records an arrival awaiting its introduction decision.
    pub(crate) fn push_arriving(&mut self, record: PeerRecord) {
        debug_assert_eq!(record.id, self.next_id(), "peer ids must stay dense");
        debug_assert!(record.status.is_waiting());
        self.records.push(record);
        self.member_pos.push(NOT_MEMBER);
        self.tracked.push(0.0);
        self.pop.waiting += 1;
    }

    /// Admits a waiting peer holding `reputation` in the engine.
    ///
    /// # Panics
    /// If the peer is not in the waiting room (a protocol bug).
    pub(crate) fn admit(
        &mut self,
        id: PeerId,
        now: SimTime,
        introducer: Option<PeerId>,
        audit_trans: Option<u32>,
        reputation: f64,
    ) {
        let record = &mut self.records[id.index()];
        if record.status.is_member() {
            // Re-admission: a duplicate grant resolved for a peer that
            // never went through the introduction book (e.g. a founder
            // targeted by the §2 scripted attack). Membership
            // accounting is already live and the engine kept its
            // state, so only the record fields refresh.
            record.admit(now, introducer, audit_trans);
            return;
        }
        assert!(record.status.is_waiting(), "admit of non-waiting {id:?}");
        record.admit(now, introducer, audit_trans);
        self.pop.waiting -= 1;
        self.enter_membership(id, reputation);
    }

    /// Turns a peer away (terminal). Normally the peer is in the
    /// waiting room; a *member* can also be refused when a scripted
    /// duplicate solicitation (§2) resolves against it with an
    /// under-funded or unwilling introducer — in that case the member
    /// leaves the membership accounting.
    ///
    /// # Panics
    /// If the peer is neither waiting nor a member (a protocol bug).
    pub(crate) fn refuse(&mut self, id: PeerId, reason: RefusalReason) {
        let status = self.records[id.index()].status;
        if status.is_member() {
            self.exit_membership(id);
        } else {
            assert!(
                status.is_waiting(),
                "refusal of non-waiting {id:?} ({status:?})"
            );
            self.pop.waiting -= 1;
        }
        self.records[id.index()].status = PeerStatus::Refused(reason);
        self.pop.refused += 1;
    }

    /// Flags a member malicious (terminal).
    ///
    /// # Panics
    /// If the peer is not a member (a protocol bug).
    pub(crate) fn flag(&mut self, id: PeerId) {
        self.exit_membership(id);
        self.records[id.index()].status = PeerStatus::Flagged;
        self.pop.flagged += 1;
    }

    /// Removes a departing member (terminal).
    ///
    /// # Panics
    /// If the peer is not a member (a protocol bug).
    pub(crate) fn depart(&mut self, id: PeerId) {
        self.exit_membership(id);
        self.records[id.index()].status = PeerStatus::Departed;
        self.pop.departed += 1;
    }

    /// Counts one transaction against `id`'s audit countdown; returns
    /// `true` when this transaction triggers the audit.
    pub(crate) fn record_transaction(&mut self, id: PeerId) -> bool {
        self.records[id.index()].record_transaction()
    }

    /// Flips a member's behaviour (the scenario harness's
    /// oscillating/milking adversaries), moving its tracked reputation
    /// between the per-behaviour accumulators so the O(1) aggregates
    /// stay exact. The histogram and member index are untouched — the
    /// peer neither moves nor changes reputation, only allegiance.
    /// Returns the new behaviour.
    ///
    /// # Panics
    /// If the peer is not a member (a protocol bug).
    pub(crate) fn flip_behavior(&mut self, id: PeerId) -> Behavior {
        let i = id.index();
        assert!(
            self.records[i].status.is_member() && self.member_pos[i] != NOT_MEMBER,
            "behaviour flip of non-member {id:?}"
        );
        let rep = self.tracked[i];
        let flipped = match self.records[i].profile.behavior {
            Behavior::Cooperative => {
                self.pop.cooperative -= 1;
                self.coop.remove(rep);
                self.pop.uncooperative += 1;
                self.uncoop.insert(rep);
                Behavior::Uncooperative
            }
            Behavior::Uncooperative => {
                self.pop.uncooperative -= 1;
                self.uncoop.remove(rep);
                self.pop.cooperative += 1;
                self.coop.insert(rep);
                Behavior::Cooperative
            }
        };
        self.records[i].profile.behavior = flipped;
        flipped
    }

    /// Applies a drained batch of engine deltas in order — the
    /// community's per-tick delta plumbing. One call per
    /// `drain_deltas` keeps the loop next to the accumulator state it
    /// feeds and leaves the caller's buffer untouched for reuse.
    pub(crate) fn apply_deltas(&mut self, deltas: &[ReputationDelta]) {
        for delta in deltas {
            self.apply_delta(delta);
        }
    }

    /// Applies one engine-reported reputation movement to the
    /// aggregates. Deltas about non-members (e.g. crash-recovery
    /// noise about flagged peers still registered in the engine) only
    /// update the tracked value.
    pub(crate) fn apply_delta(&mut self, delta: &ReputationDelta) {
        let i = delta.subject.index();
        let (old, new) = (delta.old.value(), delta.new.value());
        self.tracked[i] = new;
        let record = &self.records[i];
        if !record.status.is_member() {
            return;
        }
        match record.profile.behavior {
            Behavior::Cooperative => self.coop.shift(old, new),
            Behavior::Uncooperative => self.uncoop.shift(old, new),
        }
        let (from, to) = (fine_bin(old), fine_bin(new));
        if from != to {
            self.hist[from] -= 1;
            self.hist[to] += 1;
        }
    }

    /// Adds `id` to the member index and folds `reputation` into the
    /// per-behaviour accumulators.
    fn enter_membership(&mut self, id: PeerId, reputation: f64) {
        let i = id.index();
        debug_assert_eq!(self.member_pos[i], NOT_MEMBER);
        self.member_pos[i] = self.member_index.len();
        self.member_index.push(id);
        self.tracked[i] = reputation;
        self.pop.members += 1;
        match self.records[i].profile.behavior {
            Behavior::Cooperative => {
                self.pop.cooperative += 1;
                self.coop.insert(reputation);
            }
            Behavior::Uncooperative => {
                self.pop.uncooperative += 1;
                self.uncoop.insert(reputation);
            }
        }
        self.hist[fine_bin(reputation)] += 1;
    }

    /// Removes `id` from the member index and subtracts its tracked
    /// reputation from the accumulators.
    fn exit_membership(&mut self, id: PeerId) {
        let i = id.index();
        let pos = self.member_pos[i];
        assert!(
            self.records[i].status.is_member() && pos != NOT_MEMBER,
            "membership exit of non-member {id:?}"
        );
        self.member_index.swap_remove(pos);
        if let Some(&moved) = self.member_index.get(pos) {
            self.member_pos[moved.index()] = pos;
        }
        self.member_pos[i] = NOT_MEMBER;
        let rep = self.tracked[i];
        self.pop.members -= 1;
        match self.records[i].profile.behavior {
            Behavior::Cooperative => {
                self.pop.cooperative -= 1;
                self.coop.remove(rep);
            }
            Behavior::Uncooperative => {
                self.pop.uncooperative -= 1;
                self.uncoop.remove(rep);
            }
        }
        self.hist[fine_bin(rep)] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replend_types::{IntroducerPolicy, PeerProfile, Reputation};

    fn coop_profile() -> PeerProfile {
        PeerProfile::cooperative(IntroducerPolicy::Naive)
    }

    fn delta(id: u64, old: f64, new: f64) -> ReputationDelta {
        ReputationDelta {
            subject: PeerId(id),
            old: Reputation::new(old),
            new: Reputation::new(new),
        }
    }

    fn table_with_two_members() -> PeerTable {
        let mut t = PeerTable::with_capacity(8);
        t.push_founding(PeerRecord::founding(PeerId(0), coop_profile()), 1.0);
        t.push_arriving(PeerRecord::arriving(
            PeerId(1),
            PeerProfile::uncooperative(),
            SimTime(3),
        ));
        t.admit(PeerId(1), SimTime(10), Some(PeerId(0)), Some(5), 0.1);
        t
    }

    #[test]
    fn counters_follow_transitions() {
        let mut t = table_with_two_members();
        assert_eq!(t.population().members, 2);
        assert_eq!(t.population().cooperative, 1);
        assert_eq!(t.population().uncooperative, 1);
        assert_eq!(t.population().waiting, 0);
        assert_eq!(t.mean_cooperative_reputation(), Some(1.0));
        assert!((t.mean_uncooperative_reputation().unwrap() - 0.1).abs() < 1e-12);

        t.push_arriving(PeerRecord::arriving(PeerId(2), coop_profile(), SimTime(11)));
        assert_eq!(t.population().waiting, 1);
        t.refuse(PeerId(2), RefusalReason::SelectiveRefusal);
        assert_eq!(t.population().waiting, 0);
        assert_eq!(t.population().refused, 1);

        t.depart(PeerId(1));
        assert_eq!(t.population().members, 1);
        assert_eq!(t.population().departed, 1);
        assert_eq!(t.mean_uncooperative_reputation(), None);
    }

    #[test]
    fn deltas_move_the_accumulators() {
        let mut t = table_with_two_members();
        t.apply_delta(&delta(1, 0.1, 0.4));
        assert!((t.mean_uncooperative_reputation().unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(t.tracked[1], 0.4);
        // Removing after the shift subtracts the shifted value.
        t.flag(PeerId(1));
        assert_eq!(t.mean_uncooperative_reputation(), None);
        assert_eq!(t.population().flagged, 1);
    }

    #[test]
    fn deltas_about_non_members_do_not_leak_into_aggregates() {
        let mut t = table_with_two_members();
        t.flag(PeerId(1));
        t.apply_delta(&delta(1, 0.1, 0.9));
        assert_eq!(t.mean_uncooperative_reputation(), None);
        assert_eq!(t.tracked[1], 0.9);
    }

    #[test]
    fn histogram_fast_path_matches_fallback() {
        let mut t = PeerTable::with_capacity(64);
        let reps = [0.0, 0.05, 0.1, 0.33, 0.5, 0.77, 0.95, 1.0];
        for (i, &r) in reps.iter().enumerate() {
            t.push_founding(PeerRecord::founding(PeerId(i as u64), coop_profile()), r);
        }
        // 10 divides 120 → O(buckets); 7 does not → rebin pass.
        assert_eq!(
            PeerTable::histogram_mode(10),
            HistogramMode::Grouped { group: 12 }
        );
        assert_eq!(PeerTable::histogram_mode(7), HistogramMode::Rebinned);
        let fast = t.histogram(10);
        assert_eq!(fast.count() as usize, reps.len());
        // The range is stretched to 1 + 1e-9, so 0.1 still lands in
        // the bottom bin (same arithmetic as `Histogram::record`).
        assert_eq!(fast.buckets()[0], 3, "0.0, 0.05, 0.1 share the bottom bin");
        assert_eq!(fast.buckets()[9], 2, "0.95 and 1.0 share the top bin");
        let slow = t.histogram(7);
        assert_eq!(slow.count() as usize, reps.len());
    }

    /// The `b = 0` and `b > HIST_RESOLUTION` edges of
    /// [`PeerTable::histogram`]: both are served (clamped / rebinned,
    /// never a panic or a silent surprise), the mode is queryable,
    /// and every bucket count round-trips the edge values — a member
    /// at exactly 0.0 in the bottom bin, one at exactly 1.0 in the
    /// top bin, with no member lost to under/overflow.
    #[test]
    fn histogram_edge_bucket_counts_round_trip() {
        let mut t = PeerTable::with_capacity(64);
        let reps = [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0];
        for (i, &r) in reps.iter().enumerate() {
            t.push_founding(PeerRecord::founding(PeerId(i as u64), coop_profile()), r);
        }

        // b = 0 clamps to one all-encompassing bucket (grouped).
        assert_eq!(
            PeerTable::histogram_mode(0),
            HistogramMode::Grouped { group: 120 }
        );
        let h0 = t.histogram(0);
        assert_eq!(h0.buckets(), &[reps.len() as u64][..]);

        // b = HIST_RESOLUTION is the identity grouping.
        assert_eq!(
            PeerTable::histogram_mode(HIST_RESOLUTION),
            HistogramMode::Grouped { group: 1 }
        );

        // b > HIST_RESOLUTION cannot group — explicit rebin.
        for buckets in [HIST_RESOLUTION + 1, 2 * HIST_RESOLUTION, 1000] {
            assert_eq!(PeerTable::histogram_mode(buckets), HistogramMode::Rebinned);
            let h = t.histogram(buckets);
            assert_eq!(h.count() as usize, reps.len(), "{buckets} buckets");
            assert_eq!(h.underflow(), 0);
            assert_eq!(h.overflow(), 0, "1.0 must land in range, not overflow");
            assert!(h.buckets()[0] >= 2, "0.0 and 1e-12 sit in the bottom bin");
            assert!(
                *h.buckets().last().unwrap() >= 1,
                "exactly 1.0 sits in the top bin"
            );
        }

        // Every mode agrees with a direct rebin of the tracked values
        // (grouped and rebinned are the same histogram, bit for bit).
        for buckets in [1, 6, 40, 120, 121, 240] {
            let served = t.histogram(buckets);
            let mut direct = Histogram::new(0.0, HIST_HI, buckets);
            for &r in &reps {
                direct.record(r);
            }
            assert_eq!(served.buckets(), direct.buckets(), "{buckets} buckets");
        }
    }

    #[test]
    fn member_iteration_covers_survivors() {
        let mut t = table_with_two_members();
        t.push_arriving(PeerRecord::arriving(PeerId(2), coop_profile(), SimTime(4)));
        t.admit(PeerId(2), SimTime(9), None, None, 0.5);
        t.depart(PeerId(0));
        let ids: Vec<u64> = t.members().map(|p| p.id.raw()).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&1) && ids.contains(&2));
        assert!(t.is_member(PeerId(2)));
        assert!(!t.is_member(PeerId(0)));
    }

    #[test]
    fn readmission_of_a_member_keeps_accounting_intact() {
        // The §2 duplicate-solicitation script can re-admit an
        // existing member (e.g. a founder with no recorded grant);
        // the aggregates must not double-count it.
        let mut t = table_with_two_members();
        let before = t.population();
        t.admit(PeerId(1), SimTime(11), Some(PeerId(0)), Some(9), 0.2);
        assert_eq!(t.population(), before);
        assert_eq!(
            t.tracked[1], 0.1,
            "engine state was kept, so the tracked value must be too"
        );
        assert_eq!(t.get(PeerId(1)).unwrap().audit_remaining, Some(9));
    }

    #[test]
    fn members_can_be_refused_by_duplicate_solicitation() {
        let mut t = table_with_two_members();
        t.refuse(PeerId(1), RefusalReason::InsufficientIntroducerReputation);
        assert_eq!(t.population().members, 1);
        assert_eq!(t.population().refused, 1);
        assert_eq!(t.mean_uncooperative_reputation(), None);
        assert!(!t.is_member(PeerId(1)));
    }

    #[test]
    #[should_panic(expected = "non-waiting")]
    fn admission_of_refused_peer_is_a_bug() {
        let mut t = table_with_two_members();
        t.push_arriving(PeerRecord::arriving(PeerId(2), coop_profile(), SimTime(4)));
        t.refuse(PeerId(2), RefusalReason::SelectiveRefusal);
        t.admit(PeerId(2), SimTime(11), None, None, 0.2);
    }

    #[test]
    #[should_panic(expected = "non-member")]
    fn departing_a_waiter_is_a_bug() {
        let mut t = PeerTable::with_capacity(4);
        t.push_arriving(PeerRecord::arriving(PeerId(0), coop_profile(), SimTime(1)));
        t.depart(PeerId(0));
    }
}
