//! Distribution samplers implemented from first principles.
//!
//! The workspace dependency policy allows `rand` but not `rand_distr`,
//! so the handful of distributions the reproduction needs are
//! implemented here with their textbook constructions and verified
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

/// Samples a Poisson count with the given mean.
///
/// Uses Knuth's product-of-uniforms method for small means and a
/// normal approximation (rounded, clamped at zero) for `mean > 30`,
/// where Knuth's loop becomes both slow and numerically fragile.
///
/// # Panics
/// If `mean` is negative or not finite.
#[cfg(test)]
pub(crate) fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
    if mean == 0.0 {
        return 0;
    }
    if mean > 30.0 {
        // Normal approximation N(mean, mean).
        let z = standard_normal(rng);
        let x = mean + mean.sqrt() * z;
        return x.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples a standard normal via Box–Muller.
#[cfg(test)]
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by mapping u1 into (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a discrete power law `P(X = k) ∝ k^(-alpha)` over
/// `k ∈ [k_min, k_max]` by inverse transform on the continuous
/// approximation.
///
/// # Panics
/// If `alpha <= 1`, or `k_min` is zero, or `k_min > k_max`.
#[cfg(test)]
pub(crate) fn power_law<R: Rng + ?Sized>(rng: &mut R, alpha: f64, k_min: u64, k_max: u64) -> u64 {
    assert!(alpha > 1.0, "alpha must exceed 1 for a normalizable law");
    assert!(k_min >= 1 && k_min <= k_max, "need 1 <= k_min <= k_max");
    let a = 1.0 - alpha;
    let lo = (k_min as f64).powf(a);
    let hi = ((k_max as f64) + 1.0).powf(a);
    let u: f64 = rng.gen();
    let x = (lo + u * (hi - lo)).powf(1.0 / a);
    (x.floor() as u64).clamp(k_min, k_max)
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
    fn poisson_zero_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_small_mean_statistics() {
        let mut rng = StdRng::seed_from_u64(4);
        // The paper's default λ = 0.01 per tick — counts over 100-tick
        // windows have mean 1.
        let xs: Vec<f64> = (0..200_000)
            .map(|_| poisson(&mut rng, 1.0) as f64)
            .collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn poisson_large_mean_uses_gaussian_branch() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| poisson(&mut rng, 100.0) as f64)
            .collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((var - 100.0).abs() < 3.0, "variance {var}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn power_law_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let k = power_law(&mut rng, 2.5, 3, 500);
            assert!((3..=500).contains(&k));
        }
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..100_000)
            .map(|_| power_law(&mut rng, 2.0, 1, 10_000))
            .collect();
        let ones = xs.iter().filter(|&&x| x == 1).count() as f64 / xs.len() as f64;
        // For α=2 over [1, 10000], P(X=1) ≈ 1 - 2^-1 = 0.5.
        assert!((ones - 0.5).abs() < 0.03, "P(X=1) = {ones}");
        let big = xs.iter().filter(|&&x| x >= 100).count();
        assert!(big > 100, "tail too light: {big} samples >= 100");
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn power_law_rejects_alpha_one() {
        let mut rng = StdRng::seed_from_u64(0);
        power_law(&mut rng, 1.0, 1, 10);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let draw = |seed: u64| -> (f64, u64, u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                exponential(&mut rng, 0.3),
                poisson(&mut rng, 4.0),
                power_law(&mut rng, 2.2, 1, 100),
            )
        };
        assert_eq!(draw(9), draw(9));
    }
}
