//! Sample recording and the benchmark's percentile rule.
//!
//! Every latency the benchmark reports goes through [`Samples`]: a
//! fixed-capacity reservoir, so the benchmark's own memory does not grow
//! with the system's speed (a faster build would otherwise record more
//! samples and read a higher `peak_rss_mb`).
//!
//! The percentile rule: a tail percentile is reported only where at
//! least [`MIN_BEYOND`] samples lie beyond it. A run with too few
//! samples for the asked-for percentile reports the highest percentile
//! that qualifies, and says which one it used. A failed operation enters
//! the samples as `+∞`, so it counts as missing every latency limit.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Default reservoir capacity: enough that p99 has thousands of samples
/// beyond it, small enough that a dozen recorders stay a few MiB each.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// A fixed-capacity uniform reservoir of `f64` samples (Vitter's
/// algorithm R with a deterministic generator).
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl Samples {
    /// A reservoir of `capacity` samples. The buffer is written in full
    /// here, so its pages count toward resident memory from the start
    /// and the peak stays independent of how many samples arrive.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut kept = vec![f64::NAN; capacity];
        kept.clear();
        Samples {
            kept,
            capacity,
            seen: 0,
            rng: 0x853c_49e6_748f_ea9b,
        }
    }

    /// A reservoir of [`DEFAULT_CAPACITY`] samples.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Offers one sample.
    pub fn record(&mut self, value: f64) {
        self.seen += 1;
        if self.kept.len() < self.capacity {
            self.kept.push(value);
            return;
        }
        // xorshift64*: cheap, and deterministic across runs.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let r = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let j = r % self.seen;
        if (j as usize) < self.capacity {
            self.kept[j as usize] = value;
        }
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Forgets every sample, keeping the buffer.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.seen = 0;
    }

    /// The kept samples, sorted, for percentile queries.
    pub fn sorted(&self) -> Sorted {
        let mut values = self.kept.clone();
        values.sort_by(f64::total_cmp);
        Sorted {
            values,
            seen: self.seen,
        }
    }
}

impl Default for Samples {
    fn default() -> Self {
        Self::new()
    }
}

/// Sorted samples with the percentile rule applied.
#[derive(Clone, Debug)]
pub struct Sorted {
    values: Vec<f64>,
    seen: u64,
}

/// One reported percentile: the value, the percentile actually used,
/// and the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile (`0` with no samples).
    pub value: f64,
    /// The percentile actually reported (may be below the one asked
    /// for when there are too few samples beyond it).
    pub percentile: f64,
    /// Samples the percentile rests on.
    pub samples: usize,
    /// Samples offered, including those the reservoir dropped.
    pub seen: u64,
}

impl Sorted {
    /// Sorts `values` directly (no reservoir).
    #[cfg(test)]
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let seen = values.len() as u64;
        Sorted { values, seen }
    }

    /// The median.
    pub fn median(&self) -> Quantile {
        self.at(50.0)
    }

    /// The `target` percentile, lowered to the highest percentile that
    /// has at least [`MIN_BEYOND`] samples beyond it when `target` has
    /// too few. With no qualifying tail at all (`MIN_BEYOND` or fewer
    /// samples) the median is reported.
    pub fn tail(&self, target: f64) -> Quantile {
        match highest_supported_percentile(self.values.len()) {
            Some(limit) => self.at(target.min(limit)),
            None => self.median(),
        }
    }

    /// The nearest-rank percentile `p` (rank `ceil(p/100 · n)`).
    fn at(&self, p: f64) -> Quantile {
        let n = self.values.len();
        let value = if n == 0 {
            0.0
        } else {
            self.values[nearest_rank(p, n) - 1]
        };
        Quantile {
            value,
            percentile: p,
            samples: n,
            seen: self.seen,
        }
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// The highest percentile whose nearest rank leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when no
/// percentile does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    Some(100.0 * (n - MIN_BEYOND) as f64 / n as f64)
}

/// A measurement cut into windows. Each closed window yields its own
/// rate and latency quantiles; a run reports the median over windows,
/// so a burst of interference from elsewhere on the host moves at most
/// the windows it overlaps, not the run's figure.
#[derive(Debug)]
pub struct Windows {
    ops: u64,
    work_s: f64,
    latency: Samples,
    closed: Vec<Window>,
    seen: u64,
}

/// The figures of one closed window.
#[derive(Clone, Copy, Debug)]
struct Window {
    rate: f64,
    p50: Quantile,
    p90: Quantile,
    p99: Quantile,
}

/// Median-over-windows figures of a run.
#[derive(Clone, Copy, Debug)]
pub struct WindowSummary {
    /// Median ops per second of work time.
    pub rate: f64,
    /// Median of the windows' medians.
    pub p50: Quantile,
    /// Median of the windows' 90th percentiles.
    pub p90: Quantile,
    /// Median of the windows' 99th percentiles.
    pub p99: Quantile,
    /// Windows the medians are over.
    pub windows: usize,
}

/// Latency samples kept per window.
const WINDOW_CAPACITY: usize = 1 << 16;

impl Windows {
    /// No windows yet.
    pub fn new() -> Self {
        Windows {
            ops: 0,
            work_s: 0.0,
            latency: Samples::with_capacity(WINDOW_CAPACITY),
            closed: Vec::new(),
            seen: 0,
        }
    }

    /// Adds `ops` completed in `secs` of work time to the open window.
    pub fn work(&mut self, ops: u64, secs: f64) {
        self.ops += ops;
        self.work_s += secs;
    }

    /// Adds a latency sample to the open window.
    pub fn latency(&mut self, ns: f64) {
        self.latency.record(ns);
        self.seen += 1;
    }

    /// Adds a failed operation (`+∞`) to the open window.
    pub fn failure(&mut self) {
        self.latency(f64::INFINITY);
    }

    /// Closes the open window, if it holds any work.
    pub fn close(&mut self) {
        if self.ops == 0 || self.work_s <= 0.0 {
            return;
        }
        let sorted = self.latency.sorted();
        self.closed.push(Window {
            rate: self.ops as f64 / self.work_s,
            p50: sorted.median(),
            p90: sorted.tail(90.0),
            p99: sorted.tail(99.0),
        });
        self.ops = 0;
        self.work_s = 0.0;
        self.latency.clear();
    }

    /// Closes the open window once it holds `width_s` of work.
    pub fn close_after(&mut self, width_s: f64) {
        if self.work_s >= width_s {
            self.close();
        }
    }

    /// Medians over the closed windows, skipping the first `warmup`
    /// (caches filling, lazy set-up finishing) when enough remain.
    pub fn summary(&self, warmup: usize) -> WindowSummary {
        let skip = if self.closed.len() > warmup {
            warmup
        } else {
            0
        };
        let kept = &self.closed[skip..];
        let med = |f: &dyn Fn(&Window) -> Quantile| -> Quantile {
            let values: Vec<f64> = kept.iter().map(|w| f(w).value).collect();
            Quantile {
                value: median(&values),
                percentile: kept
                    .iter()
                    .map(|w| f(w).percentile)
                    .fold(f64::INFINITY, f64::min),
                samples: kept.iter().map(|w| f(w).samples).min().unwrap_or(0),
                seen: self.seen,
            }
        };
        let rates: Vec<f64> = kept.iter().map(|w| w.rate).collect();
        WindowSummary {
            rate: median(&rates),
            p50: med(&|w| w.p50),
            p90: med(&|w| w.p90),
            p99: med(&|w| w.p99),
            windows: kept.len(),
        }
    }
}

impl Default for Windows {
    fn default() -> Self {
        Self::new()
    }
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(values: impl IntoIterator<Item = f64>) -> Sorted {
        Sorted::from_values(values.into_iter().collect())
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let s = sorted((1..=1000).map(f64::from));
        let q = s.tail(99.0);
        assert_eq!(q.percentile, 99.0);
        assert_eq!(q.value, 990.0);
        assert_eq!(q.samples, 1000);
    }

    #[test]
    fn too_few_samples_lower_the_tail_percentile() {
        // 200 samples: p99 would leave 2 beyond; the rule falls back to
        // p95 (rank 190, 10 beyond).
        let s = sorted((1..=200).map(f64::from));
        let q = s.tail(99.0);
        assert_eq!(q.percentile, 95.0);
        assert_eq!(q.value, 190.0);
        assert_eq!(200 - q.value as usize, MIN_BEYOND);
    }

    #[test]
    fn ten_or_fewer_samples_report_the_median() {
        let s = sorted((1..=10).map(f64::from));
        assert_eq!(highest_supported_percentile(10), None);
        let q = s.tail(99.0);
        assert_eq!(q.percentile, 50.0);
        assert_eq!(q.value, 5.0);
    }

    #[test]
    fn failed_operations_count_as_infinite_latency() {
        // 980 fast successes and 20 failures: p99 lands among the
        // failures, so the tail reads +∞.
        let mut w = Windows::new();
        for i in 0..980 {
            w.latency(f64::from(i));
        }
        for _ in 0..20 {
            w.failure();
        }
        w.work(1_000, 1.0);
        w.close();
        let s = w.summary(0);
        assert_eq!(s.p99.value, f64::INFINITY);
        assert!(s.p50.value.is_finite());
    }

    #[test]
    fn reservoir_keeps_its_capacity_and_counts_everything_seen() {
        let mut samples = Samples::with_capacity(100);
        for i in 0..10_000 {
            samples.record(f64::from(i));
        }
        assert_eq!(samples.seen(), 10_000);
        let median = samples.sorted().median();
        assert_eq!(median.samples, 100);
        assert_eq!(median.seen, 10_000);
        // A uniform sample of 0..10000 has its median near 5000.
        assert!(
            (2_000.0..8_000.0).contains(&median.value),
            "median {}",
            median.value
        );
    }

    #[test]
    fn windows_report_medians_and_skip_the_warmup() {
        let mut w = Windows::new();
        // Warm-up window: slow. Then three windows at 100, 300 and
        // 200 ops/s, one of them disturbed by a latency burst.
        for (ops, secs, lat) in [
            (10, 1.0, 900.0),
            (100, 1.0, 10.0),
            (300, 1.0, 5_000.0),
            (200, 1.0, 20.0),
        ] {
            for _ in 0..1_000 {
                w.latency(lat);
            }
            w.work(ops, secs);
            w.close_after(1.0);
        }
        w.work(7, 0.1); // an open, partial window is never reported
        let s = w.summary(1);
        assert_eq!(s.windows, 3);
        assert_eq!(s.rate, 200.0);
        assert_eq!(s.p50.value, 20.0);
        assert_eq!(s.p99.value, 20.0);
        assert_eq!(s.p99.percentile, 99.0);
        assert_eq!(s.p99.samples, 1_000);
        assert_eq!(s.p99.seen, 4_000);
        // Too few windows to spare a warm-up: none is skipped.
        let mut one = Windows::new();
        one.latency(1.0);
        one.work(1, 1.0);
        one.close();
        assert_eq!(one.summary(1).windows, 1);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
