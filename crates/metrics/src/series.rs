//! Windowed time series on the virtual clock.
//!
//! Every sample lands in the window `ts_ps / effective_window_ps`,
//! where the *effective* window width is the configured base width
//! times `2^decimations`. A series never exceeds its configured window
//! bound: when a sample would land past the last allowed slot, adjacent
//! window pairs are merged and the per-series decimation count is
//! incremented — coverage is preserved at coarser resolution, and the
//! decimation count makes the resolution loss explicit (never a silent
//! truncation of the tail).

/// What a metric measures and how windows aggregate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A sampled level (queue depth, resident streams). Windows keep
    /// count/sum/min/max and the last-sampled value.
    Gauge,
    /// A monotone accumulation (tokens, busy picoseconds, joules).
    /// Windows keep the per-window increment; the cumulative series is
    /// nondecreasing by construction (negative deltas are clamped).
    Counter,
    /// A fixed-bucket distribution (latencies, batch occupancy).
    /// Windows keep count/sum/min/max; bucket counts accumulate over
    /// the whole run.
    Histogram,
}

impl MetricKind {
    /// Lower-case export label (`gauge` / `counter` / `histogram`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Gauge => "gauge",
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Per-window aggregate state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WindowAgg {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub last: f64,
}

impl WindowAgg {
    fn empty() -> Self {
        WindowAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }

    fn sample(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Folds the later window `b` into `self` (pairwise decimation).
    fn merge(&mut self, b: &WindowAgg) {
        if b.count > 0 {
            self.last = b.last;
        }
        self.count += b.count;
        self.sum += b.sum;
        self.min = self.min.min(b.min);
        self.max = self.max.max(b.max);
    }
}

/// One registered metric's windowed state.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub name: String,
    pub kind: MetricKind,
    /// Histogram bucket upper bounds (ascending, finite); empty for
    /// gauges and counters. An implicit `+Inf` overflow bucket follows.
    pub bounds: Vec<f64>,
    /// Run-cumulative bucket counts, `bounds.len() + 1` entries.
    pub bucket_counts: Vec<u64>,
    /// Pairwise merges applied so far; effective window width is
    /// `window_ps << decimations`.
    pub decimations: u32,
    /// Dense window slots from the virtual-clock origin.
    pub windows: Vec<WindowAgg>,
    pub total_count: u64,
    pub total_sum: f64,
}

impl Series {
    pub(crate) fn new(name: String, kind: MetricKind, bounds: Vec<f64>) -> Self {
        let buckets = match kind {
            MetricKind::Histogram => bounds.len() + 1,
            _ => 0,
        };
        Series {
            name,
            kind,
            bounds,
            bucket_counts: vec![0; buckets],
            decimations: 0,
            windows: Vec::new(),
            total_count: 0,
            total_sum: 0.0,
        }
    }

    fn slot_of(&self, ts_ps: u64, window_ps: u64) -> usize {
        ((ts_ps / window_ps) >> self.decimations) as usize
    }

    /// Halves resolution: merges adjacent window pairs in place.
    fn decimate(&mut self) {
        let merged = self.windows.len().div_ceil(2);
        for i in 0..merged {
            let mut agg = self.windows[2 * i];
            if let Some(b) = self.windows.get(2 * i + 1) {
                agg.merge(b);
            }
            self.windows[i] = agg;
        }
        self.windows.truncate(merged);
        self.decimations += 1;
    }

    /// Grows (and if necessary decimates) so `ts_ps` has a slot within
    /// the `max_windows` bound; returns that slot index.
    fn ensure_slot(&mut self, ts_ps: u64, window_ps: u64, max_windows: usize) -> usize {
        let mut slot = self.slot_of(ts_ps, window_ps);
        while slot >= max_windows {
            self.decimate();
            slot = self.slot_of(ts_ps, window_ps);
        }
        if slot >= self.windows.len() {
            self.windows.resize(slot + 1, WindowAgg::empty());
        }
        slot
    }

    pub(crate) fn set(&mut self, ts_ps: u64, v: f64, window_ps: u64, max_windows: usize) {
        let slot = self.ensure_slot(ts_ps, window_ps, max_windows);
        self.windows[slot].sample(v);
        self.total_count += 1;
        self.total_sum += v;
    }

    pub(crate) fn add(&mut self, ts_ps: u64, delta: f64, window_ps: u64, max_windows: usize) {
        let delta = if delta.is_finite() {
            delta.max(0.0)
        } else {
            0.0
        };
        self.set(ts_ps, delta, window_ps, max_windows);
    }

    /// Distributes `amount` over `[start_ps, start_ps + dur_ps)` in
    /// proportion to each window's overlap with the span. The workhorse
    /// behind utilization timelines (`amount` = weighted busy
    /// picoseconds) and energy-rate series (`amount` = joules).
    pub(crate) fn add_span(
        &mut self,
        start_ps: u64,
        dur_ps: u64,
        amount: f64,
        window_ps: u64,
        max_windows: usize,
    ) {
        let amount = if amount.is_finite() {
            amount.max(0.0)
        } else {
            0.0
        };
        if dur_ps == 0 {
            self.add(start_ps, amount, window_ps, max_windows);
            return;
        }
        let end_ps = start_ps.saturating_add(dur_ps);
        // Reserve the final slot first so decimation cannot strike
        // mid-distribution; slots for the whole span then exist at the
        // current resolution.
        self.ensure_slot(end_ps - 1, window_ps, max_windows);
        let first = self.slot_of(start_ps, window_ps);
        let last = self.slot_of(end_ps - 1, window_ps);
        let width = (window_ps as u128) << self.decimations;
        let (start, end) = (start_ps as u128, end_ps as u128);
        for slot in first..=last {
            let win_start = slot as u128 * width;
            let win_end = win_start + width;
            let overlap = end.min(win_end) - start.max(win_start);
            let share = amount * (overlap as f64 / dur_ps as f64);
            self.windows[slot].sample(share);
            self.total_count += 1;
            self.total_sum += share;
        }
    }

    pub(crate) fn observe(&mut self, ts_ps: u64, v: f64, window_ps: u64, max_windows: usize) {
        let bucket = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.bucket_counts[bucket] += 1;
        self.set(ts_ps, v, window_ps, max_windows);
    }

    pub(crate) fn snapshot(&self, window_ps: u64) -> SeriesSnapshot {
        let width = (window_ps as u128) << self.decimations;
        let mut windows = Vec::new();
        let mut cumulative = 0.0;
        for (slot, agg) in self.windows.iter().enumerate() {
            cumulative += agg.sum;
            if agg.count == 0 {
                continue;
            }
            windows.push(WindowSample {
                start_ps: u64::try_from(slot as u128 * width).unwrap_or(u64::MAX),
                count: agg.count,
                sum: agg.sum,
                min: agg.min,
                max: agg.max,
                last: agg.last,
                cumulative,
            });
        }
        SeriesSnapshot {
            name: self.name.clone(),
            kind: self.kind,
            window_ps: u64::try_from(width).unwrap_or(u64::MAX),
            decimations: self.decimations,
            total_count: self.total_count,
            total_sum: self.total_sum,
            bounds: self.bounds.clone(),
            bucket_counts: self.bucket_counts.clone(),
            windows,
        }
    }
}

/// An immutable copy of one series, taken by
/// [`MetricsRegistry::snapshot`](crate::MetricsRegistry::snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name, optionally carrying `{label="value"}` suffixes.
    pub name: String,
    /// Aggregation kind.
    pub kind: MetricKind,
    /// Effective window width in picoseconds
    /// (base width × `2^decimations`).
    pub window_ps: u64,
    /// Pairwise window merges applied to keep the series within its
    /// length bound. Zero means full configured resolution.
    pub decimations: u32,
    /// Samples recorded over the whole run.
    pub total_count: u64,
    /// Sum of all recorded values (for counters: the final cumulative
    /// value).
    pub total_sum: f64,
    /// Histogram bucket upper bounds (empty unless
    /// [`MetricKind::Histogram`]).
    pub bounds: Vec<f64>,
    /// Run-cumulative histogram bucket counts (`bounds.len() + 1`
    /// entries, the final one the `+Inf` overflow bucket).
    pub bucket_counts: Vec<u64>,
    /// Non-empty windows, oldest first.
    pub windows: Vec<WindowSample>,
}

impl SeriesSnapshot {
    /// The series name with any `{...}` label suffix stripped.
    pub fn base_name(&self) -> &str {
        self.name.split('{').next().unwrap_or(&self.name)
    }

    /// Per-second rate of a window's increment (counter windows).
    pub fn rate_per_s(&self, w: &WindowSample) -> f64 {
        w.sum / (self.window_ps as f64 * 1e-12)
    }
}

/// One non-empty window of a [`SeriesSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Window start on the virtual clock, integer picoseconds; the
    /// window covers `[start_ps, start_ps + window_ps)`.
    pub start_ps: u64,
    /// Samples that landed in this window.
    pub count: u64,
    /// Sum of sampled values (for counters: the window's increment).
    pub sum: f64,
    /// Smallest sampled value.
    pub min: f64,
    /// Largest sampled value.
    pub max: f64,
    /// Most recently sampled value.
    pub last: f64,
    /// Running total through this window (counters: the monotone
    /// cumulative series).
    pub cumulative: f64,
}

/// A full registry snapshot: every series, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Base (undecimated) window width in picoseconds.
    pub window_ps: u64,
    /// Per-series length bound the registry enforced.
    pub max_windows: usize,
    /// All registered series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a series by exact name.
    pub fn series_named(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_exact_integer_windows() {
        let mut s = Series::new("g".into(), MetricKind::Gauge, Vec::new());
        // window 100 ps: ts 99 → slot 0, ts 100 → slot 1.
        s.set(99, 1.0, 100, 16);
        s.set(100, 2.0, 100, 16);
        let snap = s.snapshot(100);
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[0].start_ps, 0);
        assert_eq!(snap.windows[1].start_ps, 100);
        assert_eq!(snap.windows[1].last, 2.0);
    }

    #[test]
    fn decimation_bounds_length_and_preserves_totals() {
        let mut s = Series::new("c".into(), MetricKind::Counter, Vec::new());
        for t in 0..64u64 {
            s.add(t * 100, 1.0, 100, 8);
        }
        let snap = s.snapshot(100);
        assert!(snap.windows.len() <= 8);
        assert!(
            snap.decimations >= 3,
            "64 base slots into 8 needs >= 3 merges"
        );
        assert_eq!(snap.window_ps, 100 << snap.decimations);
        assert_eq!(snap.total_count, 64);
        assert_eq!(snap.total_sum, 64.0);
        let cum = snap.windows.last().expect("non-empty").cumulative;
        assert_eq!(cum, 64.0);
    }

    #[test]
    fn add_span_distributes_by_overlap() {
        let mut s = Series::new("u".into(), MetricKind::Counter, Vec::new());
        // Span [50, 250) over 100-ps windows: 50 ps in w0, 100 in w1,
        // 50 in w2.
        s.add_span(50, 200, 200.0, 100, 16);
        let snap = s.snapshot(100);
        let sums: Vec<f64> = snap.windows.iter().map(|w| w.sum).collect();
        assert_eq!(sums, vec![50.0, 100.0, 50.0]);
        assert_eq!(snap.total_sum, 200.0);
    }

    #[test]
    fn histogram_buckets_count_cumulatively() {
        let mut s = Series::new("h".into(), MetricKind::Histogram, vec![1.0, 10.0]);
        s.observe(0, 0.5, 100, 16);
        s.observe(0, 5.0, 100, 16);
        s.observe(0, 100.0, 100, 16);
        assert_eq!(s.bucket_counts, vec![1, 1, 1]);
        // Boundary value lands in its bucket (le semantics).
        s.observe(0, 1.0, 100, 16);
        assert_eq!(s.bucket_counts, vec![2, 1, 1]);
    }

    #[test]
    fn negative_counter_deltas_are_clamped() {
        let mut s = Series::new("c".into(), MetricKind::Counter, Vec::new());
        s.add(0, 5.0, 100, 16);
        s.add(1, -3.0, 100, 16);
        s.add(2, f64::NAN, 100, 16);
        assert_eq!(s.total_sum, 5.0);
    }
}
