//! Fixed-interval time-series recording and cross-run averaging.
//!
//! §4.1: *"We retrieve the reputation values for all cooperative peers
//! every 5000 time units and compute the average"*, and the §4
//! preamble: *"Each experiment is repeated 10 times and the results
//! shown are the average obtained over the 10 runs."* [`TimeSeries`]
//! is the per-run recorder; [`average_series`] reduces aligned series
//! across runs.

use replend_types::SimTime;
use serde::{Deserialize, Serialize};

/// A time series sampled at a fixed interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    interval: u64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// A new series sampled every `interval` ticks.
    ///
    /// # Panics
    /// If `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        TimeSeries {
            interval,
            values: Vec::new(),
        }
    }

    /// True at ticks where a sample should be recorded (multiples of
    /// the interval).
    pub fn is_sample_tick(&self, now: SimTime) -> bool {
        now.ticks() > 0 && now.ticks() % self.interval == 0
    }

    /// Appends a sample (caller is responsible for calling once per
    /// sample tick, typically guarded by [`TimeSeries::is_sample_tick`]).
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Recorded values, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(time, value)` pairs: sample `i` corresponds to tick
    /// `(i + 1) · interval`.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime((i as u64 + 1) * self.interval), v))
    }
}

/// Averages aligned series element-wise.
///
/// Returns `None` when `runs` is empty, or when intervals or lengths
/// disagree (mis-aligned series indicate an experiment bug; averaging
/// them silently would corrupt the reproduction's figures).
pub fn average_series(runs: &[TimeSeries]) -> Option<TimeSeries> {
    let first = runs.first()?;
    if runs
        .iter()
        .any(|r| r.interval != first.interval || r.len() != first.len())
    {
        return None;
    }
    let n = runs.len() as f64;
    let mut out = TimeSeries::new(first.interval);
    for i in 0..first.len() {
        out.push(runs.iter().map(|r| r.values[i]).sum::<f64>() / n);
    }
    Some(out)
}

/// Averages aligned `Option`-valued sample runs element-wise over the
/// *present* samples: at each index, absent samples (a cohort that was
/// empty at that tick) are excluded from the mean instead of being
/// conflated with `0.0`, and the averaged sample is `None` only when
/// every run was absent there.
///
/// Returns `None` when `runs` is empty or lengths disagree (the same
/// mis-alignment contract as [`average_series`]).
pub fn average_present(runs: &[Vec<Option<f64>>]) -> Option<Vec<Option<f64>>> {
    let first = runs.first()?;
    if runs.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| {
                let (mut sum, mut n) = (0.0, 0usize);
                for r in runs {
                    if let Some(v) = r[i] {
                        sum += v;
                        n += 1;
                    }
                }
                (n > 0).then(|| sum / n as f64)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        TimeSeries::new(0);
    }

    #[test]
    fn average_present_skips_absent_samples() {
        let a = vec![Some(1.0), None, None];
        let b = vec![Some(3.0), Some(4.0), None];
        let avg = average_present(&[a.clone(), b]).unwrap();
        assert_eq!(avg, vec![Some(2.0), Some(4.0), None]);
        // Misaligned lengths are rejected, like `average_series`.
        assert!(average_present(&[a, vec![Some(0.0)]]).is_none());
        assert!(average_present(&[]).is_none());
    }

    #[test]
    fn sample_ticks() {
        let s = TimeSeries::new(5000);
        assert!(!s.is_sample_tick(SimTime(0)), "t=0 is not sampled");
        assert!(!s.is_sample_tick(SimTime(4999)));
        assert!(s.is_sample_tick(SimTime(5000)));
        assert!(!s.is_sample_tick(SimTime(5001)));
        assert!(s.is_sample_tick(SimTime(10_000)));
    }

    #[test]
    fn points_align_with_interval() {
        let mut s = TimeSeries::new(10);
        s.push(1.0);
        s.push(2.0);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(SimTime(10), 1.0), (SimTime(20), 2.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn average_of_aligned_runs() {
        let mut a = TimeSeries::new(10);
        let mut b = TimeSeries::new(10);
        a.push(1.0);
        a.push(3.0);
        b.push(3.0);
        b.push(5.0);
        let avg = average_series(&[a, b]).unwrap();
        assert_eq!(avg.values(), &[2.0, 4.0]);
    }

    #[test]
    fn average_rejects_misaligned_runs() {
        let mut a = TimeSeries::new(10);
        a.push(1.0);
        let b = TimeSeries::new(20);
        assert!(
            average_series(&[a.clone(), b]).is_none(),
            "interval mismatch"
        );
        let mut c = TimeSeries::new(10);
        c.push(1.0);
        c.push(2.0);
        assert!(average_series(&[a, c]).is_none(), "length mismatch");
    }

    #[test]
    fn average_of_empty_slice_is_none() {
        assert!(average_series(&[]).is_none());
    }

    #[test]
    fn serialize_bound_holds() {
        // Compile-time check that TimeSeries implements Serialize /
        // Deserialize (the bench binaries persist series as CSV/JSON).
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<TimeSeries>();
    }
}
