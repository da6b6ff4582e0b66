//! Statistics collectors used by the network and accelerator simulators.

use std::fmt;

use crate::time::SimTime;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use lumos_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 4.571428571428571).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. instantaneous
/// power, queue occupancy, number of active gateways).
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
/// assert!((g.average(SimTime::from_ns(40)) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64, // value * picoseconds
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the given initial value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value: initial,
            integral: 0.0,
            start,
        }
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
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

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Time-weighted mean over `[start, end]`, extending the final segment
    /// to `end`. Returns the initial value when the window is empty.
    pub fn average(&self, end: SimTime) -> f64 {
        let end = end.max(self.last_time);
        let total = (end - self.start).as_ps() as f64;
        if total == 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * (end - self.last_time).as_ps() as f64;
        integral / total
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
/// samples — the one implementation every report path shares
/// (`lumos_serve` latency/TTFT/occupancy summaries, bench rollups), so
/// percentile semantics cannot drift between crates.
///
/// Semantics are pinned bit-for-bit to the historical serving-report
/// code: samples sort by `partial_cmp` (finite samples only), the
/// `q`-percentile is `sorted[max(ceil(q·n), 1) - 1]`, and the mean sums
/// in **sorted** order (so it reproduces the pre-refactor float
/// rounding exactly).
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

/// Nearest-rank percentiles of `samples` at each quantile in `qs` —
/// the free-function face of [`SortedSamples`] for one-shot callers.
///
/// # Examples
///
/// ```
/// use lumos_sim::stats::percentiles;
///
/// let samples: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentiles(&samples, &[0.50, 0.95, 0.99]), vec![50.0, 95.0, 99.0]);
/// ```
pub fn percentiles(samples: &[f64], qs: &[f64]) -> Vec<f64> {
    let sorted = SortedSamples::from_unsorted(samples);
    qs.iter().map(|&q| sorted.percentile(q)).collect()
}

/// Fixed set of named monotone counters with stable iteration order.
///
/// # Examples
///
/// ```
/// use lumos_sim::stats::Counters;
///
/// let mut c = Counters::new();
/// c.add("packets", 3);
/// c.add("packets", 2);
/// assert_eq!(c.get("packets"), 5);
/// assert_eq!(c.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(String, u64)>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `amount` to the counter named `key`, creating it at zero first
    /// if needed.
    pub fn add(&mut self, key: &str, amount: u64) {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += amount,
            None => self.entries.push((key.to_owned(), amount)),
        }
    }

    /// Increments the counter named `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no counter has been created.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Histogram with logarithmic (power-of-two) latency buckets, suitable for
/// transfer latencies spanning nanoseconds to milliseconds.
///
/// # Examples
///
/// ```
/// use lumos_sim::{stats::LatencyHistogram, SimTime};
///
/// let mut h = LatencyHistogram::new();
/// h.record(SimTime::from_ns(100));
/// h.record(SimTime::from_us(10));
/// assert_eq!(h.count(), 2);
/// assert!(h.quantile(0.5) >= SimTime::from_ns(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    // bucket i holds samples with floor(log2(ps)) == i; bucket 0 also
    // holds zero-latency samples.
    buckets: Vec<u64>,
    count: u64,
    total_ps: u128,
    max: SimTime,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            total_ps: 0,
            max: SimTime::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, t: SimTime) {
        let ps = t.as_ps();
        let idx = if ps == 0 {
            0
        } else {
            63 - ps.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ps += ps as u128;
        self.max = self.max.max(t);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ps((self.total_ps / self.count as u128) as u64)
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (0 ≤ q ≤ 1). Coarse by construction (power-of-two buckets): intended
    /// for tail inspection, not precise percentiles.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return SimTime::from_ps(hi);
            }
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
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
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.record(1.0);
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.variance(), 0.0);
        s.record(3.0);
        assert_eq!(s.mean(), 2.0);
        assert!((s.variance() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..20] {
            a.record(x);
        }
        for &x in &xs[20..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_average_and_energy() {
        // 10 W for 1 ms then 30 W for 1 ms: mean 20 W, energy 40 mJ.
        let mut p = TimeWeighted::new(SimTime::ZERO, 10.0);
        p.set(SimTime::from_ms(1), 30.0);
        let end = SimTime::from_ms(2);
        assert!((p.average(end) - 20.0).abs() < 1e-9);
        assert!((p.integral_value_seconds(end) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 1.0);
        g.add(SimTime::from_ns(10), 2.0);
        assert_eq!(g.value(), 3.0);
        g.add(SimTime::from_ns(20), -3.0);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn time_weighted_empty_window() {
        let g = TimeWeighted::new(SimTime::from_ns(5), 7.0);
        assert_eq!(g.average(SimTime::from_ns(5)), 7.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.incr("a");
        c.add("b", 10);
        c.incr("a");
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 10);
        assert_eq!(c.len(), 2);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn histogram_mean_and_quantile() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(SimTime::from_ns(1));
        }
        h.record(SimTime::from_ms(1));
        assert_eq!(h.count(), 100);
        // Median bucket covers the 1 ns samples.
        assert!(h.quantile(0.5) < SimTime::from_ns(3));
        // The tail sees the millisecond outlier.
        assert!(h.quantile(1.0) >= SimTime::from_ms(1));
        assert_eq!(h.max(), SimTime::from_ms(1));
        let mean = h.mean();
        assert!(mean > SimTime::from_ns(1) && mean < SimTime::from_ms(1));
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), SimTime::ZERO);
    }
}
