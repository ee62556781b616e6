//! Simulation time.
//!
//! §3: *"We implemented a discrete event simulator where exactly one
//! resource transaction is scheduled in each unit of simulation
//! time."* Time is therefore a plain monotone counter of transaction
//! ticks; [`SimTime`] keeps it from being confused with counts or ids.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in transaction ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier` in ticks.
    #[inline]
    pub(crate) const fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(v: u64) -> Self {
        SimTime(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_since() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + 1000;
        assert_eq!(t1.ticks(), 1000);
        assert_eq!(t1.since(t0), 1000);
        assert_eq!(t0.since(t1), 0, "since() saturates, never underflows");
    }

    #[test]
    fn waiting_period_expiry() {
        // The introduction waiting period T = 1000 of Table 1.
        let requested = SimTime(500);
        assert!(SimTime(1499) - requested < 1000);
        assert!(SimTime(1500) - requested >= 1000);
        assert!(SimTime(1501) - requested >= 1000);
    }

    #[test]
    fn add_assign_and_sub() {
        let mut t = SimTime(10);
        t += 5;
        assert_eq!(t, SimTime(15));
        assert_eq!(t - SimTime(10), 5);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn saturating_add_at_max() {
        let t = SimTime(u64::MAX);
        assert_eq!((t + 1).ticks(), u64::MAX);
    }
}
