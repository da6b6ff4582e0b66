//! Simulation time as an integer picosecond count.
//!
//! A dedicated newtype keeps wall-clock arithmetic exact and deterministic:
//! at 12 Gb/s one bit lasts ~83 ps, so picosecond resolution comfortably
//! resolves every event in the photonic and electrical network models while
//! `u64` still covers ~213 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant (or span) of simulated time, stored in integer picoseconds.
///
/// `SimTime` is used both as a point on the simulation clock and as a
/// duration; the arithmetic is identical and keeping a single type avoids a
/// proliferation of conversions in hot simulation loops.
///
/// # Examples
///
/// ```
/// use lumos_sim::SimTime;
///
/// let bit = SimTime::from_ps(83);
/// let word = bit * 64;
/// assert_eq!(word.as_ps(), 5312);
/// assert!(word < SimTime::from_ns(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from integer milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// picosecond. Negative or NaN inputs saturate to zero; positive
    /// infinity saturates to [`SimTime::MAX`].
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = secs * 1e12;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ps.round() as u64)
        }
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked addition: `None` where the sum would pass
    /// [`SimTime::MAX`].
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs == 0`.
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

/// Converts a frequency in GHz to the corresponding period.
///
/// # Panics
///
/// Panics if `ghz` is not strictly positive and finite.
///
/// # Examples
///
/// ```
/// use lumos_sim::time::period_of_ghz;
/// assert_eq!(period_of_ghz(2.0).as_ps(), 500);
/// ```
pub fn period_of_ghz(ghz: f64) -> SimTime {
    assert!(
        ghz.is_finite() && ghz > 0.0,
        "frequency must be positive and finite, got {ghz}"
    );
    SimTime::from_secs_f64(1.0 / (ghz * 1e9))
}

/// Time to serialize `bits` at `gbps` gigabits per second.
///
/// Rounds up to a whole picosecond so that a transfer never finishes
/// "early" relative to the continuous-time value.
///
/// # Panics
///
/// Panics if `gbps` is not strictly positive and finite.
///
/// # Examples
///
/// ```
/// use lumos_sim::time::serialization_time;
/// // 64 bits at 12 Gb/s is ~5.33 ns.
/// let t = serialization_time(64, 12.0);
/// assert_eq!(t.as_ps(), 5_334);
/// ```
pub fn serialization_time(bits: u64, gbps: f64) -> SimTime {
    assert!(
        gbps.is_finite() && gbps > 0.0,
        "data rate must be positive and finite, got {gbps}"
    );
    // bits / (gbps * 1e9) seconds = bits * 1e3 / gbps picoseconds.
    let ps = (bits as f64) * 1e3 / gbps;
    SimTime::from_ps(ps.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs_f64(1e-3), SimTime::from_ms(1));
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ps(), 14_000);
        assert_eq!((a - b).as_ps(), 6_000);
        assert_eq!((a * 3).as_ps(), 30_000);
        assert_eq!((a / 2).as_ps(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
        assert_eq!(a.checked_add(b), Some(a + b));
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ps(500).to_string(), "500ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_us(7).to_string(), "7.000us");
        assert_eq!(SimTime::from_ms(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs_f64(2.5).to_string(), "2.500000s");
        assert_eq!(SimTime::ZERO.to_string(), "0s");
    }

    #[test]
    fn period_of_common_clocks() {
        assert_eq!(period_of_ghz(1.0).as_ps(), 1_000);
        assert_eq!(period_of_ghz(2.0).as_ps(), 500);
        assert_eq!(period_of_ghz(0.5).as_ps(), 2_000);
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 bit at 12 Gb/s = 83.33 ps -> 84 ps.
        assert_eq!(serialization_time(1, 12.0).as_ps(), 84);
        assert_eq!(serialization_time(0, 12.0), SimTime::ZERO);
        // 128 bits at 2 GHz*128-bit bus is handled by caller; raw rate here.
        assert_eq!(serialization_time(1_000, 1.0).as_ps(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn period_rejects_zero() {
        let _ = period_of_ghz(0.0);
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }
}
