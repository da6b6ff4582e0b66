//! Statistics collectors: the photonic interposer's time-weighted idle
//! power and the serving reports' exact percentiles.

use crate::time::SimTime;

/// Time integral of a piecewise-constant signal (e.g. instantaneous
/// power, whose integral is energy).
///
/// Feed it `(time, new_value)` transitions; it integrates value·dt.
///
/// # Examples
///
/// ```
/// use lumos_sim::{stats::TimeWeighted, SimTime};
///
/// let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
/// g.set(SimTime::from_ns(10), 4.0); // signal was 0 for 10 ns
/// g.set(SimTime::from_ns(30), 0.0); // signal was 4 for 20 ns
/// assert!((g.integral_value_seconds(SimTime::from_ns(40)) - 80e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64, // value * picoseconds
}

impl TimeWeighted {
    /// Starts tracking at `start` with the given initial value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value: initial,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous transition.
    pub fn set(&mut self, t: SimTime, value: f64) {
        assert!(t >= self.last_time, "time-weighted signal moved backwards");
        self.integral += self.value * (t - self.last_time).as_ps() as f64;
        self.last_time = t;
        self.value = value;
    }

    /// The integral of value·time in (value × seconds) over `[start, end]`.
    ///
    /// When the tracked signal is a power in watts this is the energy in
    /// joules.
    pub fn integral_value_seconds(&self, end: SimTime) -> f64 {
        let end = end.max(self.last_time);
        let integral = self.integral + self.value * (end - self.last_time).as_ps() as f64;
        integral / 1e12
    }
}

/// Exact nearest-rank percentile extraction over a sorted copy of the
/// samples: the implementation behind `lumos_serve`'s latency, TTFT,
/// per-token and batch-occupancy summaries.
///
/// Semantics are pinned bit-for-bit to the historical serving-report
/// code: samples sort by [`f64::total_cmp`], the `q`-percentile is
/// `sorted[max(ceil(q·n), 1) - 1]`, and the mean sums in **sorted**
/// order (so it reproduces the pre-refactor float rounding exactly).
///
/// # Examples
///
/// ```
/// use lumos_sim::stats::SortedSamples;
///
/// let s = SortedSamples::from_unsorted(&[3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.percentile(0.50), 2.0);
/// assert_eq!(s.percentile(1.00), 4.0);
/// assert_eq!(s.mean(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SortedSamples {
    sorted: Vec<f64>,
}

impl SortedSamples {
    /// Sorts a copy of `samples` ascending, in [`f64::total_cmp`]
    /// order: `-0.0` before `+0.0`, a NaN with the sign bit clear after
    /// `+∞` and one with it set before `-∞` (report samples are always
    /// finite).
    pub fn from_unsorted(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        SortedSamples { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn as_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean, summed in sorted order (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Exact nearest-rank `q`-percentile for `q` in `(0, 1]`:
    /// `sorted[max(ceil(q·n), 1) - 1]`. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[idx.max(1) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_samples_follow_total_order() {
        let s = SortedSamples::from_unsorted(&[f64::NAN, 1.0, 0.0, f64::INFINITY, -0.0]);
        let bits: Vec<u64> = s.as_slice().iter().map(|v| v.to_bits()).collect();
        let want = [-0.0, 0.0, 1.0, f64::INFINITY, f64::NAN].map(f64::to_bits);
        assert_eq!(bits, want);
    }

    #[test]
    fn time_weighted_energy() {
        // 10 W for 1 ms then 30 W for 1 ms: energy 40 mJ.
        let mut p = TimeWeighted::new(SimTime::ZERO, 10.0);
        p.set(SimTime::from_ms(1), 30.0);
        let end = SimTime::from_ms(2);
        assert!((p.integral_value_seconds(end) - 0.04).abs() < 1e-12);
    }
}
