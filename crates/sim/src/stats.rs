//! Online statistics: fixed-bucket histograms (the member-reputation
//! histogram of communities and clusters), plus a Welford
//! mean/variance accumulator that only tests use.

use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

#[cfg(test)]
impl Welford {
    /// An empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds in one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance; `None` for fewer than 2 samples.
    pub(crate) fn variance(&self) -> Option<f64> {
        (self.n >= 2).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation; `None` for fewer than 2 samples.
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub(crate) fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

/// Fixed-width-bucket histogram over `[lo, hi)` with overflow and
/// underflow buckets.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi` or `buckets` is zero.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "need lo < hi");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let i = ((x - self.lo) / width) as usize;
            let i = i.min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Adds `n` observations already attributed to `bucket` — the
    /// injection path for callers that maintain bin counts
    /// incrementally (e.g. `replend-core`'s peer table).
    ///
    /// # Panics
    /// If `bucket` is out of range.
    pub fn add_to_bucket(&mut self, bucket: usize, n: u64) {
        self.buckets[bucket] += n;
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile `q ∈ [0, 1]` (bucket lower edge); `None`
    /// when empty or the quantile falls outside the range.
    #[cfg(test)]
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0 {
            return None; // in the underflow region
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.lo + i as f64 * width);
            }
        }
        None // in the overflow region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
    }

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Population variance is 4 ⇒ sample variance = 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((w.std_dev().unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
    }

    #[test]
    #[should_panic(expected = "need lo < hi")]
    fn histogram_bad_range() {
        Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0); // underflow
        h.record(0.0); // bucket 0
        h.record(9.999); // bucket 9
        h.record(10.0); // overflow
        h.record(5.0); // bucket 5
        assert_eq!(h.count(), 5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.buckets()[9], 1);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.5), Some(49.0));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(99.0));
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    proptest! {
        /// Welford mean/variance agree with the naive two-pass
        /// formulas.
        #[test]
        fn welford_matches_naive(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((w.mean().unwrap() - mean).abs() < 1e-6);
            prop_assert!((w.variance().unwrap() - var).abs() < 1e-5 * var.max(1.0));
        }

        /// Histogram never loses observations.
        #[test]
        fn histogram_conserves_count(xs in proptest::collection::vec(-10.0f64..110.0, 0..200)) {
            let mut h = Histogram::new(0.0, 100.0, 13);
            for &x in &xs {
                h.record(x);
            }
            prop_assert_eq!(h.count() as usize, xs.len());
        }
    }
}
