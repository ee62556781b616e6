//! Baseline reputation engines for ablation comparisons.
//!
//! The lending protocol is engine-agnostic (§6 of the paper: *"the
//! basic concept of reputation lending can be extended to other
//! situations as well"*). These centralised engines — no replication,
//! no credibility weighting — let the ablation benches separate what
//! the *lending* mechanism contributes from what *ROCQ* contributes.

use crate::engine::ReputationEngine;
use replend_types::hash::PeerMap;
use replend_types::{PeerId, Reputation, ReputationDelta};

/// Pushes a delta when `old` and `new` differ bitwise (shared by the
/// three baseline engines).
fn note(deltas: &mut Vec<ReputationDelta>, subject: PeerId, old: Reputation, new: Reputation) {
    let delta = ReputationDelta { subject, old, new };
    if !delta.is_noop() {
        deltas.push(delta);
    }
}

/// Plain running average of all opinions plus a direct-adjustment
/// offset.
#[derive(Clone, Debug, Default)]
pub struct SimpleAverageEngine {
    subjects: PeerMap<PeerId, SimpleState>,
    deltas: Vec<ReputationDelta>,
}

#[derive(Clone, Copy, Debug)]
struct SimpleState {
    sum: f64,
    count: u64,
    /// Net direct credits/debits.
    offset: f64,
    initial: f64,
}

impl SimpleAverageEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn value(state: &SimpleState) -> Reputation {
        let base = if state.count == 0 {
            state.initial
        } else {
            state.sum / state.count as f64
        };
        Reputation::new(base + state.offset)
    }
}

impl ReputationEngine for SimpleAverageEngine {
    fn register_peer(&mut self, peer: PeerId, initial: Reputation) {
        self.subjects.entry(peer).or_insert(SimpleState {
            sum: 0.0,
            count: 0,
            offset: 0.0,
            initial: initial.value(),
        });
    }

    fn remove_peer(&mut self, peer: PeerId) {
        self.subjects.remove(&peer);
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.subjects.contains_key(&peer)
    }

    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64) {
        if !self.subjects.contains_key(&reporter) {
            return;
        }
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            s.sum += opinion.clamp(0.0, 1.0);
            s.count += 1;
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.subjects.get(&subject).map(Self::value)
    }

    fn credit(&mut self, subject: PeerId, amount: f64) {
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            s.offset += amount.abs();
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn debit(&mut self, subject: PeerId, amount: f64) {
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            s.offset -= amount.abs();
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>) {
        out.append(&mut self.deltas);
    }

    fn name(&self) -> &'static str {
        "simple-average"
    }
}

/// Exponentially weighted moving average: `R ← (1−α)·R + α·opinion`.
#[derive(Clone, Debug)]
pub struct EwmaEngine {
    alpha: f64,
    subjects: PeerMap<PeerId, Reputation>,
    deltas: Vec<ReputationDelta>,
}

impl EwmaEngine {
    /// An engine with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// If `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaEngine {
            alpha,
            subjects: PeerMap::default(),
            deltas: Vec::new(),
        }
    }
}

impl ReputationEngine for EwmaEngine {
    fn register_peer(&mut self, peer: PeerId, initial: Reputation) {
        self.subjects.entry(peer).or_insert(initial);
    }

    fn remove_peer(&mut self, peer: PeerId) {
        self.subjects.remove(&peer);
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.subjects.contains_key(&peer)
    }

    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64) {
        if !self.subjects.contains_key(&reporter) {
            return;
        }
        let alpha = self.alpha;
        if let Some(r) = self.subjects.get_mut(&subject) {
            let old = *r;
            *r = r.lerp_toward(Reputation::new(opinion), alpha);
            let new = *r;
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.subjects.get(&subject).copied()
    }

    fn credit(&mut self, subject: PeerId, amount: f64) {
        if let Some(r) = self.subjects.get_mut(&subject) {
            let old = *r;
            *r = r.saturating_add(amount.abs());
            let new = *r;
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn debit(&mut self, subject: PeerId, amount: f64) {
        if let Some(r) = self.subjects.get_mut(&subject) {
            let old = *r;
            *r = r.saturating_sub(amount.abs());
            let new = *r;
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>) {
        out.append(&mut self.deltas);
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Beta-reputation (Jøsang–Ismail style): positive/negative evidence
/// counts with expectation `(s + 1) / (s + f + 2)` plus a direct
/// offset for the lending adjustments.
#[derive(Clone, Debug, Default)]
pub struct BetaEngine {
    subjects: PeerMap<PeerId, BetaState>,
    deltas: Vec<ReputationDelta>,
}

#[derive(Clone, Copy, Debug, Default)]
struct BetaState {
    successes: f64,
    failures: f64,
    offset: f64,
}

impl BetaEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn value(state: &BetaState) -> Reputation {
        let e = (state.successes + 1.0) / (state.successes + state.failures + 2.0);
        Reputation::new(e + state.offset)
    }
}

impl ReputationEngine for BetaEngine {
    fn register_peer(&mut self, peer: PeerId, initial: Reputation) {
        self.subjects.entry(peer).or_insert(BetaState {
            successes: 0.0,
            failures: 0.0,
            // Start at `initial` instead of the neutral prior 0.5.
            offset: initial.value() - 0.5,
        });
    }

    fn remove_peer(&mut self, peer: PeerId) {
        self.subjects.remove(&peer);
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.subjects.contains_key(&peer)
    }

    fn report(&mut self, reporter: PeerId, subject: PeerId, opinion: f64) {
        if !self.subjects.contains_key(&reporter) {
            return;
        }
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            let o = opinion.clamp(0.0, 1.0);
            s.successes += o;
            s.failures += 1.0 - o;
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn reputation(&self, subject: PeerId) -> Option<Reputation> {
        self.subjects.get(&subject).map(Self::value)
    }

    fn credit(&mut self, subject: PeerId, amount: f64) {
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            s.offset += amount.abs();
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn debit(&mut self, subject: PeerId, amount: f64) {
        if let Some(s) = self.subjects.get_mut(&subject) {
            let old = Self::value(s);
            s.offset -= amount.abs();
            let new = Self::value(s);
            note(&mut self.deltas, subject, old, new);
        }
    }

    fn drain_deltas(&mut self, out: &mut Vec<ReputationDelta>) {
        out.append(&mut self.deltas);
    }

    fn name(&self) -> &'static str {
        "beta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(engine: &mut dyn ReputationEngine) {
        engine.register_peer(PeerId(1), Reputation::new(0.5));
        engine.register_peer(PeerId(2), Reputation::ONE);
        assert!(engine.contains(PeerId(1)));
        assert!(!engine.contains(PeerId(9)));

        // Reports from a registered reporter move the aggregate in
        // the opinion's direction (or keep it there).
        for _ in 0..50 {
            engine.report(PeerId(2), PeerId(1), 1.0);
        }
        let high = engine.reputation(PeerId(1)).unwrap().value();
        assert!(
            high > 0.5,
            "{}: sustained 1-opinions got {high}",
            engine.name()
        );

        for _ in 0..200 {
            engine.report(PeerId(2), PeerId(1), 0.0);
        }
        let low = engine.reputation(PeerId(1)).unwrap().value();
        assert!(
            low < high,
            "{}: 0-opinions must lower reputation",
            engine.name()
        );

        // Unknown reporter ignored.
        let before = engine.reputation(PeerId(1)).unwrap();
        engine.report(PeerId(77), PeerId(1), 1.0);
        assert_eq!(engine.reputation(PeerId(1)).unwrap(), before);

        // Credit / debit within-range behaviour.
        engine.credit(PeerId(1), 0.05);
        assert!(engine.reputation(PeerId(1)).unwrap().value() >= low);
        engine.debit(PeerId(1), 0.05);

        // Removal.
        engine.remove_peer(PeerId(1));
        assert_eq!(engine.reputation(PeerId(1)), None);
    }

    #[test]
    fn simple_average_contract() {
        exercise(&mut SimpleAverageEngine::new());
    }

    #[test]
    fn ewma_contract() {
        exercise(&mut EwmaEngine::new(0.1));
    }

    #[test]
    fn beta_contract() {
        exercise(&mut BetaEngine::new());
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_zero_alpha() {
        EwmaEngine::new(0.0);
    }

    #[test]
    fn simple_average_initial_before_reports() {
        let mut e = SimpleAverageEngine::new();
        e.register_peer(PeerId(1), Reputation::new(0.3));
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn simple_average_is_exact_mean() {
        let mut e = SimpleAverageEngine::new();
        e.register_peer(PeerId(1), Reputation::ZERO);
        e.register_peer(PeerId(2), Reputation::ONE);
        e.report(PeerId(2), PeerId(1), 1.0);
        e.report(PeerId(2), PeerId(1), 0.0);
        e.report(PeerId(2), PeerId(1), 1.0);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn beta_starts_at_initial() {
        let mut e = BetaEngine::new();
        e.register_peer(PeerId(1), Reputation::new(0.1));
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_geometrically() {
        let mut e = EwmaEngine::new(0.5);
        e.register_peer(PeerId(1), Reputation::ZERO);
        e.register_peer(PeerId(2), Reputation::ONE);
        e.report(PeerId(2), PeerId(1), 1.0);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.5).abs() < 1e-12);
        e.report(PeerId(2), PeerId(1), 1.0);
        assert!((e.reputation(PeerId(1)).unwrap().value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn engine_names() {
        assert_eq!(SimpleAverageEngine::new().name(), "simple-average");
        assert_eq!(EwmaEngine::new(0.2).name(), "ewma");
        assert_eq!(BetaEngine::new().name(), "beta");
    }

    /// Every baseline surfaces its mutations as a contiguous delta
    /// chain ending at the live value — the contract the community's
    /// incremental accumulators depend on.
    fn exercise_deltas(engine: &mut dyn ReputationEngine) {
        engine.register_peer(PeerId(1), Reputation::new(0.5));
        engine.register_peer(PeerId(2), Reputation::ONE);
        let mut deltas = Vec::new();
        engine.drain_deltas(&mut deltas);
        assert!(
            deltas.is_empty(),
            "{}: registration is not a delta",
            engine.name()
        );

        let start = engine.reputation(PeerId(1)).unwrap();
        engine.report(PeerId(2), PeerId(1), 1.0);
        engine.credit(PeerId(1), 0.1);
        engine.debit(PeerId(1), 0.3);
        engine.drain_deltas(&mut deltas);
        assert!(
            !deltas.is_empty(),
            "{}: mutations must emit deltas",
            engine.name()
        );
        assert_eq!(deltas[0].old, start, "{}", engine.name());
        for pair in deltas.windows(2) {
            assert_eq!(pair[0].new, pair[1].old, "{}: chain breaks", engine.name());
        }
        assert_eq!(
            deltas.last().unwrap().new,
            engine.reputation(PeerId(1)).unwrap(),
            "{}: chain must end at the live value",
            engine.name()
        );
    }

    #[test]
    fn baseline_delta_contract() {
        exercise_deltas(&mut SimpleAverageEngine::new());
        exercise_deltas(&mut EwmaEngine::new(0.1));
        exercise_deltas(&mut BetaEngine::new());
    }
}
