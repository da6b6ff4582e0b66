//! Serving configuration: the model mix and the traffic/scheduling
//! knobs of one open-loop simulation.

use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::Precision;
use lumos_dnn::{extract_workloads, LayerWorkload, Model};
use lumos_dse::{BatchPolicy, ContentionKind, ServePolicy, SharePolicy};
use lumos_xformer::TransformerConfig;

use crate::error::ServeError;

/// The most arrivals a run may expect over its horizon
/// (Σₘ rateₘ × load scale × duration). `simulate` draws and stores
/// every arrival up front, so the expected count sets its memory.
const MAX_EXPECTED_ARRIVALS: f64 = 1e7;

/// The lowering recipe behind a generator's decode steps — retained so
/// the continuous-batching profiler can re-lower any step at a batch
/// multiple ([`ServedModel::decode_step_at_batch`]).
///
/// [`ServedModel::generator`] records one automatically;
/// [`ServedModel::from_stages`] builds none, which leaves such a model
/// servable but unbatchable (continuous batching falls back to
/// per-stream decode for it).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorSpec {
    /// The transformer architecture the decode steps lower.
    pub arch: TransformerConfig,
    /// Effective prompt length: decode step `i` attends against a
    /// `prompt_len + i`-deep KV cache.
    pub prompt_len: u32,
    /// Generation streams per request (the request's own batch).
    pub batch: u32,
    /// Lowering precision.
    pub precision: Precision,
}

/// One registered model in the serving mix: its lowered layer stream
/// plus its traffic contract (offered arrival rate and latency SLO).
///
/// A model is either **single-pass** (one workload stream per request —
/// a CNN inference or a transformer prefill) or a closed-loop
/// **generator** ([`ServedModel::generator`]): a prefill stage followed
/// by [`decode_steps`](Self::decode_steps), one KV-cached decode step
/// per generated token, each a workload stream whose cache depth
/// advances by one.
///
/// # Examples
///
/// ```
/// use lumos_dnn::workload::Precision;
/// use lumos_serve::ServedModel;
///
/// let resnet = ServedModel::cnn(&lumos_dnn::zoo::resnet50(), Precision::int8(), 200.0, 10.0);
/// assert_eq!(resnet.name, "resnet50");
/// assert!(resnet.workloads.len() > 50);
/// assert_eq!(resnet.n_stages(), 1);
/// let gpt2 = ServedModel::generator(
///     &lumos_xformer::zoo::gpt2_small(),
///     128,
///     8,
///     1,
///     Precision::int8(),
///     5.0,
///     500.0,
/// );
/// assert_eq!(gpt2.n_stages(), 9); // prefill + 8 decode steps
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServedModel {
    /// Display name (also the per-model report label).
    pub name: String,
    /// The lowered layer stream one request executes first: the whole
    /// request for a single-pass model, the prefill for a generator.
    pub workloads: Vec<LayerWorkload>,
    /// KV-cached decode steps executed after `workloads`, one per
    /// generated token, in emission order (cache depth advances by one
    /// token per step). Empty for single-pass models.
    pub decode_steps: Vec<Vec<LayerWorkload>>,
    /// Offered arrival rate at load scale 1.0, requests per second.
    pub rate_rps: f64,
    /// Latency service-level objective, milliseconds (the deadline the
    /// SLO-aware policy schedules against, and the attainment target
    /// the report scores). For a generator the SLO covers the full
    /// generation (arrival → last token).
    pub slo_ms: f64,
    /// The decode-step lowering recipe, when the steps came from a
    /// transformer architecture ([`ServedModel::generator`]) — what
    /// lets continuous batching re-lower a step at a deeper batch.
    /// `None` for single-pass models and hand-built stage lists.
    pub generator_spec: Option<GeneratorSpec>,
}

impl ServedModel {
    /// Registers a pre-extracted workload sequence.
    pub fn from_workloads(
        name: impl Into<String>,
        workloads: Vec<LayerWorkload>,
        rate_rps: f64,
        slo_ms: f64,
    ) -> Self {
        Self::from_stages(name, workloads, Vec::new(), rate_rps, slo_ms)
    }

    /// Registers a staged request: a first stream plus any number of
    /// follow-on decode-step streams (the generic form of
    /// [`ServedModel::generator`]).
    pub fn from_stages(
        name: impl Into<String>,
        workloads: Vec<LayerWorkload>,
        decode_steps: Vec<Vec<LayerWorkload>>,
        rate_rps: f64,
        slo_ms: f64,
    ) -> Self {
        ServedModel {
            name: name.into(),
            workloads,
            decode_steps,
            rate_rps,
            slo_ms,
            generator_spec: None,
        }
    }

    /// Registers a CNN from the Table 2 zoo (or any layer graph),
    /// lowered at `precision`.
    pub fn cnn(model: &Model, precision: Precision, rate_rps: f64, slo_ms: f64) -> Self {
        Self::from_workloads(
            model.name(),
            extract_workloads(model, precision),
            rate_rps,
            slo_ms,
        )
    }

    /// Registers a transformer scenario (architecture at a sequence
    /// length and batch size), lowered at `precision`.
    pub fn transformer(
        model: &TransformerConfig,
        seq_len: u32,
        batch: u32,
        precision: Precision,
        rate_rps: f64,
        slo_ms: f64,
    ) -> Self {
        Self::from_workloads(
            lumos_xformer::dse::scenario_label(model, seq_len, batch),
            lumos_xformer::extract_transformer_workloads(model, seq_len, batch, precision),
            rate_rps,
            slo_ms,
        )
    }

    /// Registers a closed-loop token generator: one prefill of
    /// `prompt_len` tokens, then `n_tokens` KV-cached decode steps
    /// whose cache depth starts at the (effective) prompt length and
    /// advances by one token per step.
    ///
    /// Token accounting follows the standard TTFT/TPOT split: the
    /// prefill computes the *first* token (its completion is the
    /// report's time-to-first-token) and each decode step emits one
    /// *subsequent* token, so a completed request emits `n_tokens + 1`
    /// tokens in total. The report's `tokens` and `per_token` metrics
    /// count only the `n_tokens` decode-step emissions — the
    /// steady-state tokens whose latency TTFT does not already cover.
    ///
    /// # Panics
    ///
    /// Panics for patch models (ViT has no decode phase), when `batch`
    /// or `n_tokens` is zero, and when `batch × heads` overflows `u32`
    /// ([`lumos_xformer::decode_ops`]).
    pub fn generator(
        model: &TransformerConfig,
        prompt_len: u32,
        n_tokens: u32,
        batch: u32,
        precision: Precision,
        rate_rps: f64,
        slo_ms: f64,
    ) -> Self {
        assert!(n_tokens > 0, "a generator must emit at least one token");
        let prompt = model.effective_seq(prompt_len);
        let decode_steps = (0..n_tokens)
            .map(|i| lumos_xformer::extract_decode_workloads(model, prompt + i, batch, precision))
            .collect();
        let mut served = Self::from_stages(
            format!(
                "{} (gen {n_tokens} @ prompt {prompt}, batch {batch})",
                model.name
            ),
            lumos_xformer::extract_transformer_workloads(model, prompt, batch, precision),
            decode_steps,
            rate_rps,
            slo_ms,
        );
        served.generator_spec = Some(GeneratorSpec {
            arch: model.clone(),
            prompt_len: prompt,
            batch,
            precision,
        });
        served
    }

    /// Re-lowers decode step `step` with `batch_mult` co-resident
    /// generations coalesced into one batched pass — the workload a
    /// continuous-batching decode tick executes. `batch_mult = 1`
    /// reproduces `decode_steps[step]` exactly.
    ///
    /// Returns `None` when the model carries no [`GeneratorSpec`]
    /// (single-pass models and hand-built stage lists cannot be
    /// re-lowered).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range, `batch_mult` is zero, or the
    /// coalesced batch `batch × batch_mult`, or it times the heads,
    /// overflows `u32`.
    pub fn decode_step_at_batch(&self, step: usize, batch_mult: u32) -> Option<Vec<LayerWorkload>> {
        assert!(step < self.decode_steps.len(), "decode step out of range");
        assert!(batch_mult > 0, "batch multiple must be at least 1");
        self.generator_spec.as_ref().map(|spec| {
            let batch = spec.batch.checked_mul(batch_mult).unwrap_or_else(|| {
                panic!(
                    "{}: batch {} × {batch_mult} overflows u32",
                    self.name, spec.batch
                )
            });
            lumos_xformer::extract_decode_workloads(
                &spec.arch,
                spec.prompt_len + step as u32,
                batch,
                spec.precision,
            )
        })
    }

    /// Stages one request executes, in order: the first stream, then
    /// every decode step.
    pub fn stages(&self) -> impl Iterator<Item = &[LayerWorkload]> {
        std::iter::once(self.workloads.as_slice())
            .chain(self.decode_steps.iter().map(|s| s.as_slice()))
    }

    /// Number of stages per request (1 for single-pass models).
    pub fn n_stages(&self) -> usize {
        1 + self.decode_steps.len()
    }

    /// Checks the model is servable.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] naming the violated field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workloads.is_empty() {
            return Err(ServeError::BadConfig {
                reason: format!("model {} has no workloads", self.name),
            });
        }
        if let Some(i) = self.decode_steps.iter().position(|s| s.is_empty()) {
            return Err(ServeError::BadConfig {
                reason: format!("model {} decode step {i} has no workloads", self.name),
            });
        }
        if !(self.rate_rps.is_finite() && self.rate_rps >= 0.0) {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "model {} rate {} not a finite rate",
                    self.name, self.rate_rps
                ),
            });
        }
        if !(self.slo_ms.is_finite() && self.slo_ms > 0.0) {
            return Err(ServeError::BadConfig {
                reason: format!("model {} SLO {} not positive", self.name, self.slo_ms),
            });
        }
        Ok(())
    }
}

/// Full configuration of one open-loop serving simulation.
///
/// # Examples
///
/// ```
/// use lumos_core::{Platform, PlatformConfig};
/// use lumos_dnn::workload::Precision;
/// use lumos_serve::{ServeConfig, ServedModel, ServePolicy};
///
/// let cfg = ServeConfig::new(
///     PlatformConfig::paper_table1(),
///     Platform::Siph2p5D,
///     vec![ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 100.0, 5.0)],
/// )
/// .with_policy(ServePolicy::SloAware)
/// .with_duration_s(0.25)
/// .with_seed(7);
/// cfg.validate().expect("consistent serving config");
/// assert_eq!(cfg.offered_rps(), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The shared platform every stream executes on.
    pub platform_cfg: PlatformConfig,
    /// Which platform organization to serve from.
    pub platform: Platform,
    /// The registered model mix.
    pub models: Vec<ServedModel>,
    /// Admission-scheduling policy.
    pub policy: ServePolicy,
    /// How resident streams split the platform: classic uniform `1/k`
    /// processor sharing, or SLO-pressure-weighted shares (streams
    /// closest to their deadline drain fastest). Uniform sharing
    /// reproduces the pre-weighting simulator bit-for-bit.
    pub sharing: SharePolicy,
    /// How resident generator streams turn into platform work: one
    /// stream per request ([`BatchPolicy::PerStream`], the default),
    /// or continuous token-level batching
    /// ([`BatchPolicy::Continuous`]) where co-resident generations of
    /// the same model share batched decode ticks. Per-stream decode is
    /// the cap-1 case of the one event loop: `Continuous { max_batch:
    /// 1 }` schedules identically, but its report is not bit-identical
    /// — the policy label and the decode-tick stats
    /// ([`ServeReport::batch`](crate::report::ServeReport::batch))
    /// differ.
    pub batching: BatchPolicy,
    /// How bandwidth contention between resident streams is modeled:
    /// the legacy platform-wide uniform derate
    /// ([`ContentionKind::Uniform`], the default), or topology-aware
    /// flow-level max-min fair sharing ([`ContentionKind::FlowLevel`])
    /// over the platform's actual link set (`lumos_core::flow`). Under
    /// uniform sharing a degenerate flow topology — all routes crossing
    /// every bottleneck — is what the flow model reduces to, so
    /// `FlowLevel` on such platforms reproduces `Uniform` bit-for-bit.
    pub contention: ContentionKind,
    /// Simulated horizon, seconds: arrivals are generated over
    /// `[0, duration_s)` and the simulation hard-stops at the horizon
    /// (requests still queued or in flight count as arrived, not
    /// served).
    pub duration_s: f64,
    /// Arrival-process seed (same seed ⇒ bit-identical report).
    pub seed: u64,
    /// Resident streams time-sharing the platform at once; queued
    /// requests wait for a slot. Also the deepest contention level the
    /// service profile is built for. A share of `1/K` must not derate a
    /// link below `lumos_core::runner::MIN_LINK_GBPS`, or building the
    /// profiles fails: Table 1's HBM channels allow `K <= 5120` on
    /// every platform, and PROWAVES' 4-wavelength gateways `K <= 960`.
    pub max_concurrency: usize,
    /// Multiplier on every model's `rate_rps` — the offered-load knob a
    /// saturation sweep turns.
    pub load_scale: f64,
    /// Request-lifecycle tracing ([`lumos_trace::TraceConfig::off`] by
    /// default). Only [`simulate_traced`](crate::sim::simulate_traced)
    /// consults it; [`simulate`](crate::sim::simulate) never traces.
    /// Tracing never perturbs the report, so this knob is deliberately
    /// **excluded** from [`serve_key`](crate::dse::serve_key)
    /// fingerprints.
    pub trace: lumos_trace::TraceConfig,
    /// Windowed time-series metering
    /// ([`lumos_metrics::MetricsConfig::off`] by default). Only
    /// [`simulate_metered`](crate::sim::simulate_metered) consults it;
    /// [`simulate`](crate::sim::simulate) never meters.
    /// Metering never perturbs the report, so this knob is — like
    /// `trace` — deliberately **excluded** from
    /// [`serve_key`](crate::dse::serve_key) fingerprints.
    pub metrics: lumos_metrics::MetricsConfig,
}

impl ServeConfig {
    /// A serving configuration with the default knobs: FIFO scheduling,
    /// uniform processor sharing, a 1-second horizon, seed 42, 4
    /// resident streams, load scale 1.
    pub fn new(platform_cfg: PlatformConfig, platform: Platform, models: Vec<ServedModel>) -> Self {
        ServeConfig {
            platform_cfg,
            platform,
            models,
            policy: ServePolicy::Fifo,
            sharing: SharePolicy::Uniform,
            batching: BatchPolicy::PerStream,
            contention: ContentionKind::Uniform,
            duration_s: 1.0,
            seed: 42,
            max_concurrency: 4,
            load_scale: 1.0,
            trace: lumos_trace::TraceConfig::off(),
            metrics: lumos_metrics::MetricsConfig::off(),
        }
    }

    /// Sets the request-lifecycle trace configuration consulted by
    /// [`simulate_traced`](crate::sim::simulate_traced).
    pub fn with_trace(mut self, trace: lumos_trace::TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the windowed-metrics configuration consulted by
    /// [`simulate_metered`](crate::sim::simulate_metered).
    pub fn with_metrics(mut self, metrics: lumos_metrics::MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the processor-sharing discipline.
    pub fn with_sharing(mut self, sharing: SharePolicy) -> Self {
        self.sharing = sharing;
        self
    }

    /// Sets the generator-batching discipline.
    pub fn with_batching(mut self, batching: BatchPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Sets the bandwidth-contention model.
    pub fn with_contention(mut self, contention: ContentionKind) -> Self {
        self.contention = contention;
        self
    }

    /// The deepest decode-tick batch this configuration can form: the
    /// policy's cap, clamped to the residency cap (a tick can never
    /// hold more generations than there are residency slots).
    pub fn effective_max_batch(&self) -> usize {
        self.batching.max_batch().min(self.max_concurrency)
    }

    /// Sets the simulated horizon.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets the arrival seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the platform organization.
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the resident-stream cap.
    pub fn with_max_concurrency(mut self, max_concurrency: usize) -> Self {
        self.max_concurrency = max_concurrency;
        self
    }

    /// Sets the offered-load multiplier.
    pub fn with_load_scale(mut self, load_scale: f64) -> Self {
        self.load_scale = load_scale;
        self
    }

    /// Aggregate offered arrival rate at the configured load scale,
    /// requests per second.
    pub fn offered_rps(&self) -> f64 {
        self.models.iter().map(|m| m.rate_rps).sum::<f64>() * self.load_scale
    }

    /// Checks internal consistency (platform config, model mix, traffic
    /// knobs), that the run expects at most 10⁷ arrivals
    /// ([`offered_rps`](Self::offered_rps) × duration), and that under
    /// continuous batching every generator's deepest re-lowered decode
    /// step fits its lowering: `batch × effective_max_batch × heads`
    /// (the batch of its per-head GEMMs) within `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] (or a wrapped
    /// [`lumos_core::CoreError`]) describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.platform_cfg.validate()?;
        if self.models.is_empty() {
            return Err(ServeError::BadConfig {
                reason: "model mix is empty".into(),
            });
        }
        for m in &self.models {
            m.validate()?;
        }
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(ServeError::BadConfig {
                reason: format!("duration {} not positive", self.duration_s),
            });
        }
        if self.max_concurrency == 0 {
            return Err(ServeError::BadConfig {
                reason: "need at least one resident stream".into(),
            });
        }
        if !(self.load_scale.is_finite() && self.load_scale > 0.0) {
            return Err(ServeError::BadConfig {
                reason: format!("load scale {} not positive", self.load_scale),
            });
        }
        // A finite rate times a finite scale can still overflow, and the
        // arrival stream draws at the product.
        if let Some(m) = self
            .models
            .iter()
            .find(|m| !(m.rate_rps * self.load_scale).is_finite())
        {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "model {} offered rate {} × load scale {} is not finite",
                    m.name, m.rate_rps, self.load_scale
                ),
            });
        }
        let offered = self.offered_rps();
        let expected = offered * self.duration_s;
        if expected.is_nan() || expected > MAX_EXPECTED_ARRIVALS {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "expected arrivals {expected:.3e} ({offered} rps × {} s) exceed the \
                     {MAX_EXPECTED_ARRIVALS:e} a run may hold",
                    self.duration_s
                ),
            });
        }
        if self.batching.is_continuous() && self.batching.max_batch() == 0 {
            return Err(ServeError::BadConfig {
                reason: "continuous batching needs max_batch of at least 1".into(),
            });
        }
        if self.batching.is_continuous() {
            let max_b = self.effective_max_batch();
            for m in &self.models {
                let Some(spec) = &m.generator_spec else {
                    continue;
                };
                let head_batch = u32::try_from(max_b)
                    .ok()
                    .and_then(|b| spec.batch.checked_mul(b))
                    .and_then(|batch| batch.checked_mul(spec.arch.heads));
                if head_batch.is_none() {
                    return Err(ServeError::BadConfig {
                        reason: format!(
                            "model {}: batch {} × max batch {max_b} × {} heads overflows u32",
                            m.name, spec.batch, spec.arch.heads
                        ),
                    });
                }
            }
        }
        if self.contention == ContentionKind::FlowLevel {
            // Flow-level shares are defined per execution stream;
            // coalesced decode ticks and pressure-weighted splits have
            // no per-stream route attribution yet.
            if self.batching.is_continuous() {
                return Err(ServeError::BadConfig {
                    reason: "flow-level contention requires per-stream batching".into(),
                });
            }
            if self.sharing != SharePolicy::Uniform {
                return Err(ServeError::BadConfig {
                    reason: "flow-level contention requires uniform sharing".into(),
                });
            }
            // Build and check the link set now, so a corrupt platform
            // fails here with a CoreError instead of panicking on a
            // degenerate share mid-simulation.
            lumos_core::flow::FlowTopology::for_platform(&self.platform_cfg, self.platform)?
                .validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_dnn::zoo;

    fn lenet_mix() -> Vec<ServedModel> {
        vec![ServedModel::cnn(
            &zoo::lenet5(),
            Precision::int8(),
            50.0,
            5.0,
        )]
    }

    #[test]
    fn builder_knobs_stick() {
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Elec2p5D,
            lenet_mix(),
        )
        .with_policy(ServePolicy::RoundRobin)
        .with_sharing(SharePolicy::SloPressure)
        .with_duration_s(0.5)
        .with_seed(9)
        .with_max_concurrency(2)
        .with_load_scale(2.0)
        .with_platform(Platform::Siph2p5D);
        assert_eq!(cfg.policy, ServePolicy::RoundRobin);
        assert_eq!(cfg.sharing, SharePolicy::SloPressure);
        assert_eq!(cfg.duration_s, 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_concurrency, 2);
        assert_eq!(cfg.platform, Platform::Siph2p5D);
        assert_eq!(cfg.offered_rps(), 100.0);
        cfg.validate().expect("valid");
    }

    #[test]
    fn bad_configs_rejected() {
        let base = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            lenet_mix(),
        );
        assert!(base.clone().with_duration_s(0.0).validate().is_err());
        assert!(base.clone().with_max_concurrency(0).validate().is_err());
        assert!(base.clone().with_load_scale(-1.0).validate().is_err());
        let mut empty = base.clone();
        empty.models.clear();
        assert!(empty.validate().is_err());
        let mut bad_rate = base.clone();
        bad_rate.models[0].rate_rps = f64::NAN;
        assert!(bad_rate.validate().is_err());
        let mut bad_slo = base.clone();
        bad_slo.models[0].slo_ms = 0.0;
        assert!(bad_slo.validate().is_err());
        let mut bad_step = base;
        bad_step.models[0].decode_steps = vec![vec![]];
        assert!(bad_step.validate().is_err());
    }

    #[test]
    fn overflowing_configs_are_rejected_at_every_entry_point() {
        let base = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            lenet_mix(),
        )
        .with_duration_s(0.01);
        let profiles = crate::build_profiles(&base).expect("profiles build");
        // Each value is finite; their product is not.
        let mut overflowing = base.clone().with_load_scale(1e200);
        overflowing.models[0].rate_rps = 1e200;
        // A finite rate whose arrival stream would hold ~10⁹ requests.
        let mut flooding = base.clone().with_duration_s(1.0);
        flooding.models[0].rate_rps = 1e9;
        // A generator whose own batch of 2²⁸ lowers (2²⁸ × 12 heads fits
        // a u32), but whose decode steps batched two deep would not.
        let mut wrapping = base
            .with_batching(BatchPolicy::continuous(2))
            .with_max_concurrency(2);
        wrapping.models = vec![ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            8,
            1,
            1 << 28,
            Precision::int8(),
            1.0,
            500.0,
        )];
        for (cfg, named) in [
            (&overflowing, "model lenet5"),
            (&flooding, "expected arrivals 1.000e9"),
            (&wrapping, "× max batch 2 × 12 heads overflows u32"),
        ] {
            // `validate` first: an entry point that let these through
            // would try to hold the whole arrival stream, or lower a
            // wrapped batch.
            let err = cfg.validate().expect_err(named);
            assert!(err.to_string().contains(named), "{err}");
            assert!(crate::build_profiles(cfg).is_err());
            assert!(crate::simulate(cfg).is_err());
            assert!(crate::simulate_traced(cfg).is_err());
            assert!(crate::simulate_metered(cfg).is_err());
            assert!(crate::simulate_with_profiles(cfg, &profiles).is_err());
        }
    }

    #[test]
    fn batching_knob_sticks_and_validates() {
        let base = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            lenet_mix(),
        );
        assert_eq!(base.batching, BatchPolicy::PerStream);
        assert_eq!(base.effective_max_batch(), 1);
        let batched = base
            .clone()
            .with_batching(BatchPolicy::continuous(8))
            .with_max_concurrency(3);
        assert_eq!(batched.batching, BatchPolicy::continuous(8));
        // The tick batch can never exceed the residency cap.
        assert_eq!(batched.effective_max_batch(), 3);
        batched.validate().expect("valid batched config");
        assert!(base
            .with_batching(BatchPolicy::continuous(0))
            .validate()
            .is_err());
    }

    #[test]
    fn decode_step_at_batch_relowers_the_recorded_spec() {
        use lumos_dnn::workload::totals;
        let g = ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            64,
            2,
            1,
            Precision::int8(),
            5.0,
            500.0,
        );
        let spec = g.generator_spec.as_ref().expect("generator records spec");
        assert_eq!(spec.prompt_len, 64);
        assert_eq!(spec.batch, 1);
        // Batch multiple 1 reproduces the stored step exactly.
        for step in 0..g.decode_steps.len() {
            assert_eq!(
                g.decode_step_at_batch(step, 1)
                    .expect("spec-backed model re-lowers"),
                g.decode_steps[step]
            );
        }
        // A deeper batch multiplies activation traffic but streams the
        // same weights once — the amortization continuous batching buys.
        let b1 = totals(&g.decode_steps[0]);
        let b4 = totals(
            &g.decode_step_at_batch(0, 4)
                .expect("spec-backed model re-lowers at batch 4"),
        );
        // The projection/MLP weight matrices stream once regardless of
        // batch; only the per-stream embedding-row gather grows, which
        // is noise next to the weight matrices.
        assert!(b4.weight_bits >= b1.weight_bits);
        assert!(b4.weight_bits < b1.weight_bits + b1.weight_bits / 1000);
        assert!(b4.activation_bits > 3 * b1.activation_bits);
        assert!(b4.total_bits < 4 * b1.total_bits);
        // Hand-built stage lists carry no spec and cannot re-lower.
        let handmade = ServedModel::from_stages(
            "handmade",
            g.workloads.clone(),
            g.decode_steps.clone(),
            5.0,
            500.0,
        );
        assert!(handmade.generator_spec.is_none());
        assert!(handmade.decode_step_at_batch(0, 4).is_none());
    }

    #[test]
    fn generator_stages_advance_the_cache() {
        use lumos_dnn::workload::totals;
        let g = ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            64,
            4,
            1,
            Precision::int8(),
            5.0,
            500.0,
        );
        assert_eq!(g.n_stages(), 5);
        assert_eq!(g.stages().count(), 5);
        g.validate().expect("generator validates");
        // Each decode step's cache is one token deeper, so traffic
        // grows step over step while the step count stays fixed.
        for w in g.decode_steps.windows(2) {
            assert_eq!(w[0].len(), w[1].len());
            assert!(totals(&w[0]).total_bits < totals(&w[1]).total_bits);
        }
        // The prefill stage dwarfs any single decode step.
        assert!(totals(&g.workloads).macs > 16 * totals(&g.decode_steps[0]).macs);
    }
}
