//! Serving reports: per-model and aggregate traffic statistics.

use lumos_core::{MacClass, Platform};
use lumos_dse::{BatchPolicy, DseMetrics, ServePolicy, SharePolicy};
use lumos_sim::stats::SortedSamples;

/// Latency summary from exact sorted samples (nearest-rank
/// percentiles, no interpolation). All figures are milliseconds; an
/// empty sample set reports zeros so reports stay `NaN`-free and
/// comparable with `==`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Smallest sample.
    pub min_ms: f64,
    /// 50th percentile (median).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl Percentiles {
    /// Summarizes samples given in **seconds** (the simulator's unit),
    /// reporting milliseconds. Delegates to the workspace-shared
    /// [`lumos_sim::stats::SortedSamples`] (exact nearest-rank:
    /// `p_q = sorted[ceil(q·n) - 1]`).
    pub fn from_seconds(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Percentiles::default();
        }
        let sorted = SortedSamples::from_unsorted(samples);
        Percentiles {
            min_ms: sorted.min().expect("non-empty samples") * 1e3,
            p50_ms: sorted.percentile(0.50) * 1e3,
            p95_ms: sorted.percentile(0.95) * 1e3,
            p99_ms: sorted.percentile(0.99) * 1e3,
            mean_ms: sorted.mean() * 1e3,
            max_ms: sorted.max().expect("non-empty samples") * 1e3,
        }
    }
}

/// One model's serving statistics over the simulated horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelServeStats {
    /// Model name.
    pub name: String,
    /// Offered arrival rate (base rate × load scale), requests/second.
    pub offered_rps: f64,
    /// Requests that arrived inside the horizon.
    pub arrived: u64,
    /// Requests that completed inside the horizon.
    pub served: u64,
    /// Served throughput, requests/second.
    pub throughput_rps: f64,
    /// End-to-end latency (arrival → completion) of served requests.
    pub latency: Percentiles,
    /// Queueing delay (arrival → admission) of served requests.
    pub queue_delay: Percentiles,
    /// The model's latency SLO, milliseconds.
    pub slo_ms: f64,
    /// Fraction of served requests that met the SLO. **0.0 when nothing
    /// was served** — a model that arrives but completes nothing is
    /// failing its SLO, not trivially meeting it.
    pub slo_attainment: f64,
    /// Requests admitted to residency but still executing (or awaiting
    /// a batch boundary) when the horizon cut the simulation off. These
    /// contribute no latency or queue-delay samples — see the
    /// horizon-censoring note on [`simulate`](crate::sim::simulate).
    pub in_flight: u64,
    /// Requests still waiting for admission at the horizon. Together
    /// with [`in_flight`](Self::in_flight):
    /// `arrived == served + in_flight + queued_at_horizon`.
    pub queued_at_horizon: u64,
    /// Time-to-first-token (arrival → prefill completion) of generator
    /// requests whose prefill finished inside the horizon (a
    /// generation the horizon later truncates still emitted its first
    /// token). All zeros for single-pass models, whose only "token" is
    /// the whole response ([`Percentiles::default`]).
    pub ttft: Percentiles,
    /// Per-token latency (gap between consecutive decode-step
    /// completions) over every token emitted inside the horizon. All
    /// zeros for single-pass models.
    pub per_token: Percentiles,
    /// Tokens emitted inside the horizon by decode-step completions —
    /// the *subsequent* tokens of each generation; the first token of
    /// each request is the prefill's, covered by [`ttft`](Self::ttft)
    /// and not double-counted here. Zero for single-pass models.
    pub tokens: u64,
    /// Sustained decode-token throughput: [`tokens`](Self::tokens) over
    /// the horizon, tokens/second. Zero for single-pass models.
    pub tokens_per_s: f64,
}

/// Batch-occupancy statistics of the continuous-batching scheduler:
/// how many generations each decode tick actually coalesced. All
/// zeros under [`BatchPolicy::PerStream`]: its decode steps run as
/// singleton ticks of the same event loop, but no ticks are reported.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchStats {
    /// Decode ticks executed inside the horizon (one batched-GEMV
    /// stage each).
    pub ticks: u64,
    /// Mean generations per tick.
    pub mean_occupancy: f64,
    /// Median generations per tick (nearest-rank).
    pub p50_occupancy: f64,
    /// 95th-percentile generations per tick (nearest-rank).
    pub p95_occupancy: f64,
    /// Largest tick batch observed.
    pub max_occupancy: f64,
}

impl BatchStats {
    /// Summarizes per-tick batch sizes (one sample per completed decode
    /// tick) via the workspace-shared
    /// [`lumos_sim::stats::SortedSamples`]. Empty samples give the
    /// all-zero default, so per-stream runs stay comparable with `==`.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return BatchStats::default();
        }
        let sorted = SortedSamples::from_unsorted(samples);
        BatchStats {
            ticks: sorted.len() as u64,
            mean_occupancy: sorted.mean(),
            p50_occupancy: sorted.percentile(0.50),
            p95_occupancy: sorted.percentile(0.95),
            max_occupancy: sorted.max().expect("non-empty samples"),
        }
    }
}

/// The result of one open-loop serving simulation.
///
/// Everything is deterministic in the
/// [`ServeConfig`](crate::config::ServeConfig): identical configurations
/// (seed included) produce bit-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Platform served from.
    pub platform: Platform,
    /// Scheduling policy used.
    pub policy: ServePolicy,
    /// Processor-sharing discipline used.
    pub sharing: SharePolicy,
    /// Decode-batching policy used.
    pub batching: BatchPolicy,
    /// Simulated horizon, seconds.
    pub duration_s: f64,
    /// Arrival seed.
    pub seed: u64,
    /// Offered-load multiplier.
    pub load_scale: f64,
    /// Resident-stream cap.
    pub max_concurrency: usize,
    /// Per-model statistics, in mix order.
    pub models: Vec<ModelServeStats>,
    /// Requests arrived across all models.
    pub total_arrived: u64,
    /// Requests served across all models.
    pub total_served: u64,
    /// Aggregate served throughput, requests/second.
    pub aggregate_throughput_rps: f64,
    /// Aggregate end-to-end latency over every served request.
    pub aggregate_latency: Percentiles,
    /// Aggregate time-to-first-token over every generator prefill that
    /// finished inside the horizon (all zeros when the mix has no
    /// generators).
    pub aggregate_ttft: Percentiles,
    /// Aggregate per-token latency over every token emitted inside the
    /// horizon (all zeros when the mix has no generators).
    pub aggregate_per_token: Percentiles,
    /// Aggregate sustained decode-token throughput, tokens/second
    /// (zero when the mix has no generators).
    pub aggregate_tokens_per_s: f64,
    /// Decode-tick batch occupancy (all zeros under
    /// [`BatchPolicy::PerStream`]).
    pub batch: BatchStats,
    /// Compute-demand utilization per MAC class: served unit-seconds of
    /// demand over available unit-seconds, in [`MacClass::all`] order.
    pub class_utilization: [f64; 4],
    /// Time-weighted mean number of resident streams.
    pub mean_concurrency: f64,
    /// Time-averaged power over the horizon from served requests'
    /// energy, watts.
    pub avg_power_w: f64,
    /// Energy per served bit, nanojoules.
    pub epb_nj: f64,
}

impl ServeReport {
    /// Aggregate offered arrival rate, requests/second.
    pub fn offered_rps(&self) -> f64 {
        self.models.iter().map(|m| m.offered_rps).sum()
    }

    /// Whether the platform kept up with the offered load: at least 95%
    /// of arrived requests completed inside the horizon. (The shortfall
    /// at a sustained load is only horizon-edge truncation; a saturated
    /// queue grows without bound and drops far below the threshold.)
    pub fn sustained(&self) -> bool {
        self.total_arrived == 0 || self.total_served as f64 >= 0.95 * self.total_arrived as f64
    }

    /// Utilization of `class` (see
    /// [`class_utilization`](Self::class_utilization)).
    pub fn utilization(&self, class: MacClass) -> f64 {
        self.class_utilization[class.index()]
    }

    /// The capacity-planning headline in the shape the `lumos_dse` memo
    /// cache stores: `latency_ms` is the **aggregate p99**, power and
    /// energy-per-bit are the serving figures.
    pub fn headline(&self) -> DseMetrics {
        DseMetrics {
            latency_ms: self.aggregate_latency.p99_ms,
            power_w: self.avg_power_w,
            epb_nj: self.epb_nj,
            feasible: true,
        }
    }

    /// Renders the full report as one deterministic JSON object: fixed
    /// key order, shortest-roundtrip float formatting, non-finite
    /// values as `null` — identical configurations give byte-identical
    /// strings. This is the record shape the serve goldens and
    /// `lumos_perf` digest.
    pub fn to_json(&self) -> String {
        use lumos_metrics::json;
        let models: Vec<String> = self
            .models
            .iter()
            .map(|m| {
                json::object(&[
                    ("name", json::string(&m.name)),
                    ("offered_rps", json::num(m.offered_rps)),
                    ("arrived", m.arrived.to_string()),
                    ("served", m.served.to_string()),
                    ("throughput_rps", json::num(m.throughput_rps)),
                    ("latency", percentiles_json(&m.latency)),
                    ("queue_delay", percentiles_json(&m.queue_delay)),
                    ("slo_ms", json::num(m.slo_ms)),
                    ("slo_attainment", json::num(m.slo_attainment)),
                    ("in_flight", m.in_flight.to_string()),
                    ("queued_at_horizon", m.queued_at_horizon.to_string()),
                    ("ttft", percentiles_json(&m.ttft)),
                    ("per_token", percentiles_json(&m.per_token)),
                    ("tokens", m.tokens.to_string()),
                    ("tokens_per_s", json::num(m.tokens_per_s)),
                ])
            })
            .collect();
        let batch = json::object(&[
            ("ticks", self.batch.ticks.to_string()),
            ("mean_occupancy", json::num(self.batch.mean_occupancy)),
            ("p50_occupancy", json::num(self.batch.p50_occupancy)),
            ("p95_occupancy", json::num(self.batch.p95_occupancy)),
            ("max_occupancy", json::num(self.batch.max_occupancy)),
        ]);
        json::object(&[
            ("platform", json::string(self.platform.label())),
            ("policy", json::string(self.policy.label())),
            ("sharing", json::string(self.sharing.label())),
            ("batching", json::string(&self.batching.label())),
            ("duration_s", json::num(self.duration_s)),
            ("seed", self.seed.to_string()),
            ("load_scale", json::num(self.load_scale)),
            ("max_concurrency", self.max_concurrency.to_string()),
            ("models", format!("[{}]", models.join(","))),
            ("total_arrived", self.total_arrived.to_string()),
            ("total_served", self.total_served.to_string()),
            (
                "aggregate_throughput_rps",
                json::num(self.aggregate_throughput_rps),
            ),
            (
                "aggregate_latency",
                percentiles_json(&self.aggregate_latency),
            ),
            ("aggregate_ttft", percentiles_json(&self.aggregate_ttft)),
            (
                "aggregate_per_token",
                percentiles_json(&self.aggregate_per_token),
            ),
            (
                "aggregate_tokens_per_s",
                json::num(self.aggregate_tokens_per_s),
            ),
            ("batch", batch),
            (
                "class_utilization",
                json::num_array(&self.class_utilization),
            ),
            ("mean_concurrency", json::num(self.mean_concurrency)),
            ("avg_power_w", json::num(self.avg_power_w)),
            ("epb_nj", json::num(self.epb_nj)),
            ("sustained", self.sustained().to_string()),
        ])
    }
}

/// Renders a [`Percentiles`] block as a fixed-order JSON object.
fn percentiles_json(p: &Percentiles) -> String {
    use lumos_metrics::json;
    json::object(&[
        ("min_ms", json::num(p.min_ms)),
        ("p50_ms", json::num(p.p50_ms)),
        ("p95_ms", json::num(p.p95_ms)),
        ("p99_ms", json::num(p.p99_ms)),
        ("mean_ms", json::num(p.mean_ms)),
        ("max_ms", json::num(p.max_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_exact_sorted_samples() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let p = Percentiles::from_seconds(&samples);
        assert_eq!(p.min_ms, 1.0);
        assert_eq!(p.p50_ms, 50.0);
        assert_eq!(p.p95_ms, 95.0);
        assert_eq!(p.p99_ms, 99.0);
        assert_eq!(p.max_ms, 100.0);
        assert!((p.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_of_singleton_and_empty() {
        let p = Percentiles::from_seconds(&[2e-3]);
        assert_eq!(p.min_ms, 2.0);
        assert_eq!(p.p50_ms, 2.0);
        assert_eq!(p.p99_ms, 2.0);
        assert_eq!(Percentiles::from_seconds(&[]), Percentiles::default());
    }

    #[test]
    fn percentiles_are_order_invariant() {
        let a = Percentiles::from_seconds(&[3e-3, 1e-3, 2e-3]);
        let b = Percentiles::from_seconds(&[1e-3, 2e-3, 3e-3]);
        assert_eq!(a, b);
        assert!(a.p50_ms <= a.p95_ms && a.p95_ms <= a.p99_ms);
    }

    /// The shared `SortedSamples` path must be **bit-identical** to the
    /// historical inline implementation this module used before the
    /// helper was factored into `lumos_sim::stats` — serve reports are
    /// compared with `==` across refactors, so even one ULP of drift
    /// (e.g. summing the mean in a different order) is a regression.
    #[test]
    fn shared_percentiles_bit_identical_to_legacy_inline() {
        fn legacy(samples: &[f64]) -> Percentiles {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = |q: f64| -> f64 {
                let idx = (q * sorted.len() as f64).ceil() as usize;
                sorted[idx.max(1) - 1] * 1e3
            };
            Percentiles {
                min_ms: sorted[0] * 1e3,
                p50_ms: rank(0.50),
                p95_ms: rank(0.95),
                p99_ms: rank(0.99),
                mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e3,
                max_ms: sorted[sorted.len() - 1] * 1e3,
            }
        }
        // Awkward magnitudes and a non-sorted order so any reordering of
        // the mean's summation or a changed rank rule shows up exactly.
        let mut samples = Vec::new();
        let mut x = 0.123_456_789e-3;
        for i in 0..257 {
            x = (x * 1.618_033_988_749) % 1e-1 + 1e-6;
            samples.push(x + i as f64 * 1e-7);
        }
        let got = Percentiles::from_seconds(&samples);
        let want = legacy(&samples);
        assert_eq!(got.min_ms.to_bits(), want.min_ms.to_bits());
        assert_eq!(got.p50_ms.to_bits(), want.p50_ms.to_bits());
        assert_eq!(got.p95_ms.to_bits(), want.p95_ms.to_bits());
        assert_eq!(got.p99_ms.to_bits(), want.p99_ms.to_bits());
        assert_eq!(got.mean_ms.to_bits(), want.mean_ms.to_bits());
        assert_eq!(got.max_ms.to_bits(), want.max_ms.to_bits());
    }
}
