//! The sweep worker pool: scoped std threads, an atomic work queue, and
//! deterministic result ordering.
//!
//! Two layers:
//!
//! * [`parallel_map`] — evaluate arbitrary points to arbitrary results
//!   in parallel, results in input order (used by `lumos_bench` for full
//!   Table 2 × platform evaluations, where the result is a whole run
//!   report);
//! * [`SweepJob`] — the same pool plus the memoization layer for
//!   [`DseMetrics`]-valued sweeps: cache lookups first, one evaluation
//!   per *distinct* missing key, results fanned back out in input order.
//!
//! Results are deterministic regardless of thread count because the
//! simulator itself is deterministic and every result lands in its input
//! slot; thread scheduling only changes who computes what, never what is
//! computed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use lumos_metrics::MetricsRegistry;
use lumos_trace::Tracer;

use crate::cache::MemoCache;
use crate::point::DseMetrics;

/// The trace pid of the DSE engine (platforms own pids 1–3 via
/// `Platform::trace_pid`; the pool is not a platform).
const DSE_PID: u32 = 0;

/// The virtual duration of one evaluation slot in the pool's trace:
/// 1 µs of trace time per round. The sweep simulator has no wall
/// clock — the trace renders the pool's *occupancy schedule* (which
/// worker evaluated which point, in which dealing round), not elapsed
/// time.
const TRACE_TICK_PS: u64 = 1_000_000;

/// Environment variable overriding the worker-thread count
/// (`LUMOS_DSE_THREADS=2`); useful to pin CI machines with few cores.
pub const THREADS_ENV: &str = "LUMOS_DSE_THREADS";

/// The default worker count: [`THREADS_ENV`] if set to a positive
/// integer, otherwise `std::thread::available_parallelism()`, otherwise 1.
pub fn available_threads() -> usize {
    if let Some(v) = std::env::var_os(THREADS_ENV) {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `eval` over `points` on `threads` workers (0 = default),
/// returning results in input order.
///
/// Work is dealt through an atomic index, so a slow point never stalls
/// the queue behind it. The calling thread is one of the `threads`
/// workers, so only `threads - 1` are spawned. With one thread (or one
/// point) evaluation runs inline — the sequential baseline the property
/// tests compare against.
///
/// # Panics
///
/// A panic inside `eval` is resumed on the calling thread once the other
/// workers drain.
pub fn parallel_map<P, R, F>(points: &[P], threads: usize, eval: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = points.len();
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    }
    .min(n.max(1));
    if threads <= 1 || n <= 1 {
        return points.iter().map(&eval).collect();
    }

    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, eval(&points[i])));
        }
        local
    };
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // The caller deals itself in; a panic here unwinds through the
        // scope, which joins the spawned workers first.
        let own = work();
        std::iter::once(own)
            .chain(handles.into_iter().map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            }))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every sweep point evaluated exactly once"))
        .collect()
}

/// Accounting for one memoized sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Points requested.
    pub points: usize,
    /// Points served from the memo (including duplicates within the
    /// sweep, which are evaluated once and fanned out).
    pub hits: usize,
    /// Points actually evaluated.
    pub evaluated: usize,
    /// Worker threads used.
    pub threads: usize,
}

impl SweepStats {
    /// Whether every point came from the cache.
    pub fn all_hits(&self) -> bool {
        self.hits == self.points
    }
}

/// A batch of points to evaluate: the worker pool plus (optionally) the
/// memo layer.
///
/// # Examples
///
/// ```
/// use lumos_dse::{DseMetrics, MemoCache, SweepJob};
///
/// let job = SweepJob::new(vec![1u64, 2, 3, 2]).threads(2);
/// let mut cache = MemoCache::in_memory();
/// let eval = |&x: &u64| DseMetrics {
///     latency_ms: x as f64,
///     power_w: 0.0,
///     epb_nj: 0.0,
///     feasible: true,
/// };
/// let (out, stats) = job.run_memoized(&mut cache, |&x| x, eval);
/// assert_eq!(out.len(), 4);
/// assert_eq!(stats.evaluated, 3); // the duplicate `2` is evaluated once
/// let (_, stats) = job.run_memoized(&mut cache, |&x| x, eval);
/// assert!(stats.all_hits());
/// ```
#[derive(Debug, Clone)]
pub struct SweepJob<P> {
    points: Vec<P>,
    threads: usize,
    tracer: Tracer,
    metrics: MetricsRegistry,
}

impl<P: Sync> SweepJob<P> {
    /// A job over `points` with the default worker count (tracing and
    /// metering off).
    pub fn new(points: Vec<P>) -> Self {
        SweepJob {
            points,
            threads: available_threads(),
            tracer: Tracer::off(),
            metrics: MetricsRegistry::off(),
        }
    }

    /// Overrides the worker count (0 restores the default).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { available_threads() } else { n };
        self
    }

    /// Attaches a [`Tracer`]: [`SweepJob::run_memoized`] emits
    /// cumulative `cache.hits` / `cache.misses` counters over the key
    /// scan, one pool-worker span per evaluated point, and final
    /// `sweep.*` totals, all at pid 0 (`lumos_dse`).
    ///
    /// Worker spans render the **virtual round-robin schedule** —
    /// evaluated point `j` occupies worker `j % threads` in dealing
    /// round `j / threads`, each round lasting 1 µs of trace time —
    /// not the wall-clock scheduling, which is nondeterministic. The
    /// events are emitted post-hoc from the calling thread, so traces
    /// are byte-identical regardless of thread count or interleaving.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a [`MetricsRegistry`]: [`SweepJob::run_memoized`]
    /// additionally records `dse_cache_hits_total` /
    /// `dse_cache_misses_total` counters over the key scan (one trace
    /// tick per point, so their windowed ratio is the rolling cache
    /// hit-rate) and a `dse_points_total` counter over the worker
    /// rounds (its windowed rate is points/sec **of virtual schedule
    /// time**), on the same virtual round-robin timeline the tracer
    /// renders. Emission happens post-hoc from the calling thread, so
    /// series are identical regardless of thread interleaving, and the
    /// sweep results never depend on the registry.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The worker count this job will use.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The points to evaluate, in result order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Evaluates every point in parallel (no memoization), results in
    /// input order.
    pub fn run<R, F>(&self, eval: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        parallel_map(&self.points, self.threads, eval)
    }

    /// Evaluates the sweep through `cache`: keys are computed with
    /// `key`, hits are served from the memo, and only the *distinct*
    /// missing keys are evaluated (in parallel). Results come back in
    /// input order and new results are inserted into the cache.
    pub fn run_memoized<K, F>(
        &self,
        cache: &mut MemoCache,
        key: K,
        eval: F,
    ) -> (Vec<DseMetrics>, SweepStats)
    where
        K: Fn(&P) -> u64,
        F: Fn(&P) -> DseMetrics + Sync,
    {
        let n = self.points.len();
        let keys: Vec<u64> = self.points.iter().map(&key).collect();
        let mut results: Vec<Option<DseMetrics>> = vec![None; n];
        // key → indices of sweep points awaiting that evaluation, in
        // first-seen order (so evaluation order is deterministic too).
        let mut pending: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut pending_of: HashMap<u64, usize> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            if let Some(m) = cache.get(k) {
                results[i] = Some(m);
            } else if let Some(&slot) = pending_of.get(&k) {
                pending[slot].1.push(i);
            } else {
                pending_of.insert(k, pending.len());
                pending.push((k, vec![i]));
            }
        }

        // Key-scan counters: cumulative hit/miss series over the scan,
        // one trace tick per point (emitted before evaluation so the
        // counter timeline precedes the worker spans).
        if self.tracer.enabled() {
            self.tracer.name_process(DSE_PID, "lumos_dse");
            let workers = self.threads.min(pending.len().max(1));
            for w in 0..workers {
                self.tracer
                    .name_thread(DSE_PID, 1 + w as u32, &format!("worker {w}"));
            }
            let (mut hits, mut misses) = (0u64, 0u64);
            for (i, r) in results.iter().enumerate() {
                if r.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                let ts = (i as u64 + 1) * TRACE_TICK_PS;
                self.tracer.counter(DSE_PID, "cache.hits", ts, hits as f64);
                self.tracer
                    .counter(DSE_PID, "cache.misses", ts, misses as f64);
            }
        }
        // Key-scan metering: per-point hit/miss increments on the same
        // virtual timeline (the windowed hit/(hit+miss) ratio is the
        // rolling cache hit-rate).
        if self.metrics.enabled() {
            let hit_id = self.metrics.counter("dse_cache_hits_total");
            let miss_id = self.metrics.counter("dse_cache_misses_total");
            for (i, r) in results.iter().enumerate() {
                let ts = (i as u64 + 1) * TRACE_TICK_PS;
                let id = if r.is_some() { hit_id } else { miss_id };
                self.metrics.add(id, ts, 1.0);
            }
        }

        let todo: Vec<&P> = pending
            .iter()
            .map(|(_, idxs)| &self.points[idxs[0]])
            .collect();
        let fresh = parallel_map(&todo, self.threads, |p| eval(p));
        for ((k, idxs), m) in pending.iter().zip(fresh) {
            cache.insert(*k, m);
            for &i in idxs {
                results[i] = Some(m);
            }
        }

        let evaluated = pending.len();
        let threads_used = self.threads.min(evaluated.max(1));

        // Pool-occupancy spans: the virtual round-robin schedule (see
        // [`SweepJob::with_tracer`]), laid out after the key scan.
        if self.tracer.enabled() {
            let base = (n as u64 + 1) * TRACE_TICK_PS;
            for (j, (k, _)) in pending.iter().enumerate() {
                let tid = 1 + (j % threads_used) as u32;
                let ts = base + (j / threads_used) as u64 * TRACE_TICK_PS;
                self.tracer.span(
                    DSE_PID,
                    tid,
                    "dse",
                    "eval",
                    ts,
                    TRACE_TICK_PS,
                    vec![("key", lumos_trace::ArgValue::U64(*k))],
                );
            }
            let rounds = evaluated.div_ceil(threads_used) as u64;
            let end = base + rounds * TRACE_TICK_PS;
            self.tracer.counter(DSE_PID, "sweep.points", end, n as f64);
            self.tracer
                .counter(DSE_PID, "sweep.hits", end, (n - evaluated) as f64);
            self.tracer
                .counter(DSE_PID, "sweep.evaluated", end, evaluated as f64);
        }
        // Worker-round metering: each evaluated point lands one
        // `dse_points_total` increment at the end of its virtual slot,
        // and one busy-span on its worker lane, so the counter's
        // windowed rate is points per second of schedule time and the
        // span sum over a window is worker occupancy.
        if self.metrics.enabled() {
            let points_id = self.metrics.counter("dse_points_total");
            let busy_id = self.metrics.counter("dse_worker_busy_ps");
            let base = (n as u64 + 1) * TRACE_TICK_PS;
            for j in 0..evaluated {
                let ts = base + (j / threads_used) as u64 * TRACE_TICK_PS;
                self.metrics.add(points_id, ts + TRACE_TICK_PS, 1.0);
                self.metrics
                    .add_span(busy_id, ts, TRACE_TICK_PS, TRACE_TICK_PS as f64);
            }
        }

        let out: Vec<DseMetrics> = results
            .into_iter()
            .map(|r| r.expect("every sweep point resolved"))
            .collect();
        (
            out,
            SweepStats {
                points: n,
                hits: n - evaluated,
                evaluated,
                threads: threads_used,
            },
        )
    }
}

/// The uniform one-line engine summary the examples print after their
/// sweeps: worker threads plus the memo cache's cumulative hit/miss
/// accounting and resident entries.
///
/// # Examples
///
/// ```
/// use lumos_dse::{engine_stats_line, MemoCache};
///
/// let cache = MemoCache::in_memory();
/// assert_eq!(
///     engine_stats_line(&cache, 4),
///     "engine: 4 worker threads | memo cache: 0 hits / 0 misses, 0 entries resident"
/// );
/// ```
pub fn engine_stats_line(cache: &MemoCache, threads: usize) -> String {
    format!(
        "engine: {threads} worker threads | memo cache: {} hits / {} misses, {} entries resident",
        cache.hits(),
        cache.misses(),
        cache.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let points: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(&points, threads, |&x| x * x);
            let expect: Vec<u64> = points.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_default() {
        let out = parallel_map(&[1u32, 2, 3], 0, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let job = SweepJob::new(vec![1u32]).threads(0);
        assert_eq!(job.thread_count(), available_threads());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn memoized_sweep_dedups_and_hits() {
        let m = |v: u64| DseMetrics {
            latency_ms: v as f64,
            power_w: 1.0,
            epb_nj: 1.0,
            feasible: true,
        };
        let job = SweepJob::new(vec![7u64, 8, 7, 9, 8]).threads(4);
        let mut cache = MemoCache::in_memory();
        let (out, stats) = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
        assert_eq!(stats.points, 5);
        assert_eq!(stats.evaluated, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(out[0], m(7));
        assert_eq!(out[2], m(7));
        assert_eq!(out[4], m(8));

        let (out2, stats2) = job.run_memoized(&mut cache, |&x| x, |_| panic!("must not re-run"));
        assert!(stats2.all_hits());
        assert_eq!(out, out2);
    }

    #[test]
    fn traced_sweep_is_deterministic_across_thread_counts() {
        use lumos_trace::export_chrome_trace;
        let m = |v: u64| DseMetrics {
            latency_ms: v as f64,
            power_w: 1.0,
            epb_nj: 1.0,
            feasible: true,
        };
        let run = |threads: usize| {
            let tracer = Tracer::ring(1 << 12);
            let job = SweepJob::new(vec![7u64, 8, 7, 9, 8, 10, 11])
                .threads(threads)
                .with_tracer(tracer.clone());
            let mut cache = MemoCache::in_memory();
            let (out, stats) = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
            (out, stats, export_chrome_trace(&tracer.drain()))
        };
        let (out1, stats1, trace1) = run(1);
        let (out4, stats4, trace4) = run(4);
        assert_eq!(out1, out4);
        assert_eq!(stats1.evaluated, stats4.evaluated);
        // Thread count changes the virtual schedule's lane layout, but
        // each count's trace is reproducible.
        assert_eq!(trace4, run(4).2);
        assert_ne!(trace1, trace4);
        // Untraced jobs emit nothing and still dedup identically.
        let tracer = Tracer::ring(64);
        let job = SweepJob::new(vec![1u64, 1, 2]).threads(2);
        let mut cache = MemoCache::in_memory();
        let _ = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
        assert!(tracer.is_empty());
    }

    #[test]
    fn metered_sweep_matches_stats_and_never_perturbs_results() {
        use lumos_metrics::export_jsonl;
        let m = |v: u64| DseMetrics {
            latency_ms: v as f64,
            power_w: 1.0,
            epb_nj: 1.0,
            feasible: true,
        };
        let run = |threads: usize| {
            let reg = MetricsRegistry::windowed(TRACE_TICK_PS, 128);
            let job = SweepJob::new(vec![7u64, 8, 7, 9, 8, 10, 11])
                .threads(threads)
                .with_metrics(reg.clone());
            let mut cache = MemoCache::in_memory();
            let (out, stats) = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
            (out, stats, reg.snapshot())
        };
        let (out1, stats1, snap1) = run(1);
        let (out4, stats4, snap4) = run(4);
        // Metering never perturbs the sweep, whatever the thread count.
        assert_eq!(out1, out4);
        let baseline = SweepJob::new(vec![7u64, 8, 7, 9, 8, 10, 11])
            .threads(4)
            .run_memoized(&mut MemoCache::in_memory(), |&x| x, |&x| m(x))
            .0;
        assert_eq!(out4, baseline);
        // Counter totals agree with the sweep accounting. Scan-time
        // hits count only memo lookups (within-sweep duplicates are
        // scan misses dealt to one evaluation), so hits + misses spans
        // the point count and evaluations bound the misses.
        for (snap, stats) in [(&snap1, &stats1), (&snap4, &stats4)] {
            let total = |name: &str| snap.series_named(name).map(|s| s.total_sum).unwrap_or(0.0);
            assert_eq!(
                total("dse_cache_hits_total") + total("dse_cache_misses_total"),
                stats.points as f64
            );
            assert!(total("dse_cache_misses_total") >= stats.evaluated as f64);
            assert_eq!(total("dse_points_total"), stats.evaluated as f64);
        }
        // A warm-cache rerun is all scan hits.
        {
            let reg = MetricsRegistry::windowed(TRACE_TICK_PS, 128);
            let mut cache = MemoCache::in_memory();
            let job = SweepJob::new(vec![7u64, 8, 9]).threads(2);
            let _ = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
            let job = job.with_metrics(reg.clone());
            let (_, stats) = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
            assert!(stats.all_hits());
            let snap = reg.snapshot();
            assert_eq!(
                snap.series_named("dse_cache_hits_total").unwrap().total_sum,
                3.0
            );
            assert!(snap
                .series_named("dse_points_total")
                .is_none_or(|s| s.total_sum == 0.0));
        }
        // The key-scan series are thread-count independent; reruns at a
        // fixed thread count export byte-identically.
        assert_eq!(
            snap1.series_named("dse_cache_hits_total").unwrap().windows,
            snap4.series_named("dse_cache_hits_total").unwrap().windows
        );
        assert_eq!(export_jsonl(&snap4), export_jsonl(&run(4).2));
    }

    #[test]
    fn engine_stats_line_reports_cache_accounting() {
        let m = |v: u64| DseMetrics {
            latency_ms: v as f64,
            power_w: 1.0,
            epb_nj: 1.0,
            feasible: true,
        };
        let mut cache = MemoCache::in_memory();
        let job = SweepJob::new(vec![1u64, 2, 1]).threads(2);
        let _ = job.run_memoized(&mut cache, |&x| x, |&x| m(x));
        let line = engine_stats_line(&cache, job.thread_count());
        assert!(line.starts_with("engine: 2 worker threads | memo cache: "));
        assert!(line.contains("2 entries resident"), "{line}");
    }

    /// A panic on either side of the pool — the calling thread, which
    /// deals itself in, or the spawned worker — resumes on the caller.
    /// A barrier makes the first two points run on different threads,
    /// and the panic fires on the chosen side.
    #[test]
    fn panics_on_the_caller_or_a_spawned_worker_both_resume() {
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let barrier = std::sync::Barrier::new(2);
            let points: Vec<u64> = (0..8).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_map(&points, 2, |&x| {
                    if x < 2 {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("boom on_caller={on_caller}");
                        }
                    }
                    x
                })
            }));
            let payload = outcome.expect_err("the panic resumes on the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(message, &format!("boom on_caller={on_caller}"));
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let points: Vec<u64> = (0..16).collect();
        let _ = parallel_map(&points, 4, |&x| {
            if x == 5 {
                panic!("worker boom");
            }
            x
        });
    }
}
