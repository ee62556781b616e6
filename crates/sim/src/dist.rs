//! The exponential sampler behind the Poisson arrival process.
//!
//! The workspace dependency policy allows `rand` but not `rand_distr`,
//! so it is implemented here by its textbook construction and verified
//! statistically in the tests.

use rand::Rng;

/// Samples `Exp(rate)` by inverse CDF: `-ln(1 - U) / rate`.
///
/// # Panics
/// If `rate` is not strictly positive and finite.
pub(crate) fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen(); // [0, 1)
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        for rate in [0.01, 0.5, 2.0] {
            let xs: Vec<f64> = (0..100_000).map(|_| exponential(&mut rng, rate)).collect();
            let (mean, _) = mean_and_var(&xs);
            let expected = 1.0 / rate;
            assert!(
                (mean - expected).abs() < 0.03 * expected,
                "rate {rate}: mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..10_000).all(|_| exponential(&mut rng, 0.1) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let draw = |seed: u64| -> (f64, f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            (exponential(&mut rng, 0.3), exponential(&mut rng, 4.0))
        };
        assert_eq!(draw(9), draw(9));
    }
}
