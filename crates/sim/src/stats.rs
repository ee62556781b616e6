//! A fixed-bucket histogram: the member-reputation histogram of
//! communities and clusters (`--histogram N`).

use serde::{Deserialize, Serialize};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
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
