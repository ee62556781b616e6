//! The Poisson arrival process for new peers.
//!
//! §3: *"The arrival of new peers is modeled as a Poisson process with
//! the arrival rate equal to λ."* Because the simulator advances in
//! unit ticks, arrivals are generated by sampling exponential
//! inter-arrival gaps and firing every arrival whose (continuous)
//! arrival instant falls inside the current tick. This is an exact
//! Poisson process thinning — counts per window are Poisson(λ·window),
//! verified statistically in the tests.

use crate::dist::exponential;
use rand::Rng;
use replend_types::SimTime;

/// Generator of Poisson arrival instants.
#[derive(Clone, Debug)]
pub struct PoissonProcess {
    rate: f64,
    /// Continuous time of the next arrival; `None` when rate is zero
    /// (no arrivals, ever).
    next_arrival: Option<f64>,
}

impl PoissonProcess {
    /// A process with the given arrival rate per tick. A rate of zero
    /// produces no arrivals.
    ///
    /// # Panics
    /// If `rate` is negative or not finite.
    pub fn new<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        let next_arrival = (rate > 0.0).then(|| exponential(rng, rate));
        PoissonProcess { rate, next_arrival }
    }

    /// Changes the rate to `rate` effective at continuous time `now`
    /// (scenario arrival curves). Poisson processes are memoryless,
    /// so the correct semantics of a rate change is to discard the
    /// pending next-arrival instant and redraw it at the new rate
    /// from `now`.
    ///
    /// # Panics
    /// If `rate` is negative or not finite.
    pub fn set_rate<R: Rng + ?Sized>(&mut self, rate: f64, now: SimTime, rng: &mut R) {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        self.rate = rate;
        self.next_arrival = (rate > 0.0).then(|| now.ticks() as f64 + exponential(rng, rate));
    }

    /// Number of arrivals falling within the tick that *ends* at
    /// `now`, i.e. the continuous interval `(now-1, now]` — call once
    /// per tick with strictly increasing `now`.
    pub fn arrivals_in_tick<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> u64 {
        let Some(mut next) = self.next_arrival else {
            return 0;
        };
        let end = now.ticks() as f64;
        let mut count = 0u64;
        while next <= end {
            count += 1;
            next += exponential(rng, self.rate);
        }
        self.next_arrival = Some(next);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rate_never_arrives() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = PoissonProcess::new(0.0, &mut rng);
        for t in 1..=10_000u64 {
            assert_eq!(p.arrivals_in_tick(SimTime(t), &mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be >= 0")]
    fn negative_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        PoissonProcess::new(-0.1, &mut rng);
    }

    #[test]
    fn total_arrivals_match_rate() {
        // The paper's Fig-1 setting: λ = 0.1 over 50 000 ticks
        // ⇒ ~5 000 arrivals.
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = PoissonProcess::new(0.1, &mut rng);
        let mut total = 0u64;
        for t in 1..=50_000u64 {
            total += p.arrivals_in_tick(SimTime(t), &mut rng);
        }
        let expected: f64 = 5_000.0;
        let sigma = expected.sqrt();
        assert!(
            (total as f64 - expected).abs() < 5.0 * sigma,
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn per_window_counts_are_poisson() {
        // Mean and variance of counts per 100-tick window at λ = 0.05
        // should both be ≈ 5.
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = PoissonProcess::new(0.05, &mut rng);
        let mut counts = Vec::new();
        let mut acc = 0u64;
        for t in 1..=1_000_000u64 {
            acc += p.arrivals_in_tick(SimTime(t), &mut rng);
            if t % 100 == 0 {
                counts.push(acc as f64);
                acc = 0;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
        assert!((var - 5.0).abs() < 0.4, "variance {var}");
    }

    #[test]
    fn high_rate_can_arrive_multiple_per_tick() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = PoissonProcess::new(3.0, &mut rng);
        let mut saw_multi = false;
        for t in 1..=1000u64 {
            if p.arrivals_in_tick(SimTime(t), &mut rng) >= 2 {
                saw_multi = true;
                break;
            }
        }
        assert!(
            saw_multi,
            "λ=3 should frequently produce ≥2 arrivals per tick"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = PoissonProcess::new(0.2, &mut rng);
            (1..=1000u64)
                .map(|t| p.arrivals_in_tick(SimTime(t), &mut rng))
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }
}
