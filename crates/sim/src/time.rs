//! Virtual time for the discrete-event accelerator simulation.
//!
//! All simulated durations are accounted in integer nanoseconds so that the
//! schedule is exactly deterministic across platforms (no floating-point
//! accumulation in the scheduler itself; cost *models* may compute in f64 and
//! round once on conversion).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant. Saturates to zero if `earlier` is
    /// actually later (never panics: callers often compare overlapping ops).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Convert from fractional seconds, rounding to the nearest nanosecond.
    /// Negative or NaN inputs clamp to zero (cost models can underflow on
    /// empty work items).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(10).since(SimTime(20)), SimDuration::ZERO);
        assert_eq!(SimTime(20).since(SimTime(10)), SimDuration(10));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9), SimDuration(2));
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(2.0), SimDuration(2_000_000_000));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d * 4, SimDuration(12_000));
        assert_eq!(d / 3, SimDuration(1_000));
        assert_eq!(d.max(SimDuration(5_000)), SimDuration(5_000));
        assert_eq!(d.min(SimDuration(5_000)), d);
        let total: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration(9_000));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration(12)), "12ns");
        assert_eq!(format!("{}", SimDuration(12_340)), "12.340us");
        assert_eq!(format!("{}", SimDuration(12_340_000)), "12.340ms");
        assert_eq!(format!("{}", SimDuration(2_500_000_000)), "2.500s");
    }
}
