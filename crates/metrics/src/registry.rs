//! The [`MetricsRegistry`] handle the instrumented layers record
//! through, plus the plain-data [`MetricsConfig`] knob embedded in run
//! configurations — the exact shape of `lumos_trace`'s
//! `TraceConfig` / `Tracer` pair, so the two observability planes plumb
//! identically.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::series::{MetricKind, MetricsSnapshot, Series};

/// Default window width: 1 ms of virtual time (10⁹ ps) — fine enough
/// to resolve serving dynamics over the example horizons, coarse
/// enough that a 0.5 s horizon stays at full resolution.
pub const DEFAULT_WINDOW_PS: u64 = 1_000_000_000;

/// Default per-series window bound before decimation kicks in.
pub const DEFAULT_MAX_WINDOWS: usize = 512;

/// The metrics knob a run configuration carries (e.g.
/// `ServeConfig::metrics` in `lumos_serve`): plain comparable data, not
/// a live handle, so configurations stay `Clone + PartialEq` and
/// fingerprintable. Build the live [`MetricsRegistry`] with
/// [`MetricsConfig::registry`].
///
/// Metering never changes what a simulation computes — reports are
/// bit-identical with metrics on or off — so the knob is excluded from
/// result fingerprints, exactly like the tracing knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Whether the run records samples at all.
    pub enabled: bool,
    /// Base window width on the virtual clock, integer picoseconds.
    pub window_ps: u64,
    /// Per-series window bound; exceeding it triggers explicit
    /// pairwise decimation, never silent truncation.
    pub max_windows: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::off()
    }
}

impl MetricsConfig {
    /// Metrics disabled (the default everywhere).
    pub fn off() -> Self {
        MetricsConfig {
            enabled: false,
            window_ps: DEFAULT_WINDOW_PS,
            max_windows: DEFAULT_MAX_WINDOWS,
        }
    }

    /// Metrics enabled at the default window width and bound.
    pub fn enabled() -> Self {
        MetricsConfig::windowed(DEFAULT_WINDOW_PS, DEFAULT_MAX_WINDOWS)
    }

    /// Metrics enabled with an explicit window width and series bound.
    pub fn windowed(window_ps: u64, max_windows: usize) -> Self {
        MetricsConfig {
            enabled: true,
            window_ps,
            max_windows,
        }
    }

    /// Builds the live handle this configuration describes:
    /// [`MetricsRegistry::off`] when disabled, a windowed registry
    /// otherwise.
    pub fn registry(&self) -> MetricsRegistry {
        if self.enabled {
            MetricsRegistry::windowed(self.window_ps, self.max_windows)
        } else {
            MetricsRegistry::off()
        }
    }
}

/// Opaque handle to one registered series; obtained from the
/// `register_*` methods and passed back to the record methods. The
/// disabled registry hands out an inert id, so hot paths hold plain
/// `MetricId`s unconditionally and pay one branch per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

impl MetricId {
    const INERT: MetricId = MetricId(usize::MAX);
}

struct Inner {
    window_ps: u64,
    max_windows: usize,
    series: Vec<Series>,
    by_name: BTreeMap<String, usize>,
}

/// A cheap-to-clone registry of windowed time series keyed to the
/// virtual clock.
///
/// A disabled registry ([`MetricsRegistry::off`], the default) holds no
/// state at all: every record method is a single branch, mirroring
/// `lumos_trace::Tracer`. Registration is idempotent by name — series
/// names carry optional `{label="value"}` suffixes so per-model /
/// per-class series stay distinct.
///
/// Determinism: windows are pure integer-ps arithmetic, registration
/// and emission order are the caller's, and snapshots sort series by
/// name — so for a deterministic caller the snapshot (and both
/// exports) are byte-identical across reruns.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled())
            .field("series", &self.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// The disabled registry: records nothing, costs one branch per
    /// call.
    pub fn off() -> Self {
        MetricsRegistry { inner: None }
    }

    /// An enabled registry at the default window width and bound.
    pub fn with_defaults() -> Self {
        MetricsRegistry::windowed(DEFAULT_WINDOW_PS, DEFAULT_MAX_WINDOWS)
    }

    /// An enabled registry with an explicit window width (clamped to
    /// ≥ 1 ps) and per-series bound (clamped to ≥ 2 so pairwise
    /// decimation can always make progress).
    pub fn windowed(window_ps: u64, max_windows: usize) -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Mutex::new(Inner {
                window_ps: window_ps.max(1),
                max_windows: max_windows.max(2),
                series: Vec::new(),
                by_name: BTreeMap::new(),
            }))),
        }
    }

    /// Whether records are kept. Instrumentation sites should guard any
    /// expensive name construction behind this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().expect("metrics registry lock").series.len(),
            None => 0,
        }
    }

    /// `true` when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&self, name: &str, kind: MetricKind, bounds: Vec<f64>) -> MetricId {
        let Some(inner) = &self.inner else {
            return MetricId::INERT;
        };
        let mut inner = inner.lock().expect("metrics registry lock");
        if let Some(&idx) = inner.by_name.get(name) {
            debug_assert_eq!(
                inner.series[idx].kind, kind,
                "metric {name:?} re-registered with a different kind"
            );
            return MetricId(idx);
        }
        let idx = inner.series.len();
        inner
            .series
            .push(Series::new(name.to_owned(), kind, bounds));
        inner.by_name.insert(name.to_owned(), idx);
        MetricId(idx)
    }

    /// Registers (or finds) a gauge series.
    pub fn gauge(&self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge, Vec::new())
    }

    /// Registers (or finds) a monotone counter series.
    pub fn counter(&self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter, Vec::new())
    }

    /// Registers (or finds) a fixed-bucket histogram. Bounds are
    /// sanitized to finite, ascending, deduplicated upper bounds (`-0.0`
    /// and `+0.0` collapse into one bound); an implicit `+Inf` overflow
    /// bucket always follows.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> MetricId {
        let mut clean: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        // `total_cmp` puts `-0.0` right before `+0.0`, and `dedup`
        // compares with `==`, which merges them.
        clean.sort_by(f64::total_cmp);
        clean.dedup();
        self.register(name, MetricKind::Histogram, clean)
    }

    fn with_series(&self, id: MetricId, f: impl FnOnce(&mut Series, u64, usize)) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.lock().expect("metrics registry lock");
        let (window_ps, max_windows) = (inner.window_ps, inner.max_windows);
        if let Some(series) = inner.series.get_mut(id.0) {
            f(series, window_ps, max_windows);
        }
    }

    /// Samples a gauge level at `ts_ps`.
    pub fn set(&self, id: MetricId, ts_ps: u64, v: f64) {
        self.with_series(id, |s, w, m| s.set(ts_ps, v, w, m));
    }

    /// Adds a (non-negative) increment to a counter at `ts_ps`.
    pub fn add(&self, id: MetricId, ts_ps: u64, delta: f64) {
        self.with_series(id, |s, w, m| s.add(ts_ps, delta, w, m));
    }

    /// Distributes `amount` over the span `[start_ps, start_ps +
    /// dur_ps)` in proportion to window overlap — utilization timelines
    /// (`amount` = weighted busy ps) and energy rates (`amount` =
    /// joules) in one primitive.
    pub fn add_span(&self, id: MetricId, start_ps: u64, dur_ps: u64, amount: f64) {
        self.with_series(id, |s, w, m| s.add_span(start_ps, dur_ps, amount, w, m));
    }

    /// Records a histogram observation at `ts_ps`.
    pub fn observe(&self, id: MetricId, ts_ps: u64, v: f64) {
        self.with_series(id, |s, w, m| s.observe(ts_ps, v, w, m));
    }

    /// Takes an immutable snapshot of every series, sorted by name.
    /// The disabled registry snapshots as empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot {
                window_ps: DEFAULT_WINDOW_PS,
                max_windows: DEFAULT_MAX_WINDOWS,
                series: Vec::new(),
            };
        };
        let inner = inner.lock().expect("metrics registry lock");
        let mut series: Vec<_> = inner
            .series
            .iter()
            .map(|s| s.snapshot(inner.window_ps))
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            window_ps: inner.window_ps,
            max_windows: inner.max_windows,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_registry_is_inert() {
        let r = MetricsRegistry::off();
        assert!(!r.enabled());
        let g = r.gauge("g");
        let c = r.counter("c");
        let h = r.histogram("h", &[1.0]);
        r.set(g, 0, 1.0);
        r.add(c, 0, 1.0);
        r.add_span(c, 0, 100, 1.0);
        r.observe(h, 0, 1.0);
        assert!(r.is_empty());
        assert!(r.snapshot().series.is_empty());
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let r = MetricsRegistry::with_defaults();
        let a = r.counter("tokens");
        let b = r.counter("tokens");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn clones_share_state_and_snapshot_sorts_by_name() {
        let r = MetricsRegistry::windowed(100, 8);
        let s = r.clone();
        let z = r.gauge("z");
        let a = s.counter("a");
        r.set(z, 50, 2.0);
        s.add(a, 150, 1.0);
        let snap = r.snapshot();
        assert_eq!(snap.series.len(), 2);
        assert_eq!(snap.series[0].name, "a");
        assert_eq!(snap.series[1].name, "z");
        assert_eq!(snap.series[1].windows[0].start_ps, 0);
        assert_eq!(snap.series[0].windows[0].start_ps, 100);
    }

    #[test]
    fn config_round_trip() {
        assert_eq!(MetricsConfig::default(), MetricsConfig::off());
        assert!(!MetricsConfig::off().registry().enabled());
        let cfg = MetricsConfig::windowed(250, 16);
        assert!(cfg.enabled);
        let r = cfg.registry();
        assert!(r.enabled());
        assert_eq!(r.snapshot().window_ps, 250);
        assert_eq!(r.snapshot().max_windows, 16);
        assert_eq!(MetricsConfig::enabled().window_ps, DEFAULT_WINDOW_PS);
    }

    #[test]
    fn histogram_bounds_are_sanitized() {
        let r = MetricsRegistry::with_defaults();
        let h = r.histogram("lat", &[10.0, 1.0, f64::INFINITY, 1.0]);
        r.observe(h, 0, 0.5);
        let snap = r.snapshot();
        assert_eq!(snap.series[0].bounds, vec![1.0, 10.0]);
        assert_eq!(snap.series[0].bucket_counts, vec![1, 0, 0]);
        // NaN is dropped and the two zeros collapse into one bound.
        r.histogram("zeros", &[2.0, 0.0, f64::NAN, -0.0]);
        let snap = r.snapshot();
        assert_eq!(snap.series[1].name, "zeros");
        assert_eq!(snap.series[1].bounds, vec![0.0, 2.0]);
    }
}
