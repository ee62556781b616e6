//! Degree-distribution diagnostics.
//!
//! Used by tests (and the `fig1` experiment's topology sanity check)
//! to verify that the Barabási–Albert generator really produces the
//! power-law interaction distribution the paper's scale-free setting
//! requires.

/// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
pub(crate) fn degree_histogram(degrees: &[u32]) -> Vec<usize> {
    if degrees.is_empty() {
        return Vec::new();
    }
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0usize; max + 1];
    for &d in degrees {
        hist[d as usize] += 1;
    }
    hist
}

/// Mean degree; `None` for an empty input.
pub(crate) fn mean_degree(degrees: &[u32]) -> Option<f64> {
    if degrees.is_empty() {
        return None;
    }
    Some(degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64)
}

/// Complementary CDF `P(D >= d)` evaluated at each degree value
/// `0..=max`. Useful for plotting/straight-line checks on log-log
/// axes.
pub(crate) fn degree_ccdf(degrees: &[u32]) -> Vec<f64> {
    let hist = degree_histogram(degrees);
    let n = degrees.len();
    if n == 0 {
        return Vec::new();
    }
    let mut ccdf = vec![0.0; hist.len()];
    let mut tail = 0usize;
    for d in (0..hist.len()).rev() {
        tail += hist[d];
        ccdf[d] = tail as f64 / n as f64;
    }
    ccdf
}

/// Maximum-likelihood estimate of the power-law exponent `α` for the
/// discrete tail `d >= d_min`, per Clauset, Shalizi & Newman (2009):
///
/// `α ≈ 1 + n_tail / Σ ln(d_i / (d_min − 1/2))`
///
/// Returns `None` when fewer than 10 observations lie in the tail
/// (too little data for a meaningful fit).
pub(crate) fn power_law_alpha_mle(degrees: &[u32], d_min: u32) -> Option<f64> {
    let d_min = d_min.max(1);
    let tail: Vec<f64> = degrees
        .iter()
        .copied()
        .filter(|&d| d >= d_min)
        .map(|d| d as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let denom: f64 = tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()).sum();
    if denom <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn histogram_counts() {
        let h = degree_histogram(&[0, 1, 1, 3]);
        assert_eq!(h, vec![1, 2, 0, 1]);
        assert_eq!(degree_histogram(&[]), Vec::<usize>::new());
    }

    #[test]
    fn mean_degree_basic() {
        assert_eq!(mean_degree(&[]), None);
        assert_eq!(mean_degree(&[2, 4]), Some(3.0));
    }

    #[test]
    fn ccdf_is_monotone_and_starts_at_one() {
        let ccdf = degree_ccdf(&[1, 2, 2, 5]);
        assert!((ccdf[0] - 1.0).abs() < 1e-12);
        for w in ccdf.windows(2) {
            assert!(w[0] >= w[1], "CCDF must be non-increasing");
        }
        assert!((ccdf[5] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mle_rejects_tiny_tails() {
        assert_eq!(power_law_alpha_mle(&[5; 5], 3), None);
        assert_eq!(power_law_alpha_mle(&[], 3), None);
    }

    #[test]
    fn mle_recovers_known_exponent() {
        // Sample a discrete power law with α = 2.5 via inverse
        // transform on the continuous approximation, then check the
        // MLE lands near 2.5.
        let alpha = 2.5f64;
        let d_min = 3u32;
        let mut rng = StdRng::seed_from_u64(1234);
        let degrees: Vec<u32> = (0..20_000)
            .map(|_| {
                let u: f64 = rng.gen::<f64>();
                let x = (d_min as f64 - 0.5) * (1.0 - u).powf(-1.0 / (alpha - 1.0));
                x.round().min(1e7) as u32
            })
            .collect();
        let est = power_law_alpha_mle(&degrees, d_min).unwrap();
        assert!(
            (est - alpha).abs() < 0.15,
            "MLE {est} too far from true α = {alpha}"
        );
    }

    #[test]
    fn mle_on_constant_degrees_is_none_or_large() {
        // All mass at d_min ⇒ ln-ratio sum is 0-ish ⇒ None (or huge α).
        let res = power_law_alpha_mle(&[3; 100], 3);
        match res {
            None => {}
            Some(a) => assert!(a > 5.0, "uniform degrees should not look scale-free"),
        }
    }
}
