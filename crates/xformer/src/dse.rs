//! Design-space exploration glue for transformer workloads.
//!
//! Wires the transformer zoo into the `lumos_dse` engine the same way
//! `lumos_core::dse` wires the CNN zoo: stable scenario and decode
//! fingerprints (`(config, platform, architecture, seq_len or cache
//! depth, batch)`), evaluation through the platform runner, and a
//! memoized [`sweep_decode`] over [`DecodeAxes`] grids. A prefill
//! scenario grid runs through [`SweepJob::run_memoized`] with
//! [`scenario_key`] and [`evaluate`] directly.

use std::hash::{Hash, Hasher};

use lumos_core::dse::{
    evaluate_workloads, workloads_key, DecodeAxes, DseMetrics, MemoCache, StableHasher, SweepJob,
    SweepStats,
};
use lumos_core::{CoreError, Platform, PlatformConfig, RunReport, Runner};

use crate::config::TransformerConfig;
use crate::decode::extract_decode_workloads;
use crate::ops::extract_transformer_workloads;

/// Fingerprint-schema version for transformer scenarios: bump when the
/// lowering in [`crate::ops`] changes so persisted caches from older
/// decompositions are invalidated wholesale.
const XFORMER_KEY_SCHEMA: u64 = 1;

/// Stable fingerprint of a transformer architecture: every field of
/// [`TransformerConfig`].
pub fn model_fingerprint(model: &TransformerConfig) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(XFORMER_KEY_SCHEMA);
    h.write_str(env!("CARGO_PKG_VERSION"));
    model.hash(&mut h);
    h.finish()
}

/// Fingerprint of one workload scenario: the architecture at a
/// sequence length and batch size. The *effective* sequence length is
/// hashed, so requests a patch model (ViT) or the position-table clamp
/// collapses to the same workload share one cache entry instead of
/// re-simulating per requested length.
fn scenario_fingerprint(model: &TransformerConfig, seq_len: u32, batch: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(model_fingerprint(model));
    h.write_u32(model.effective_seq(seq_len));
    h.write_u32(batch);
    h.finish()
}

/// The memoization key of one `(configuration, platform, scenario)`
/// point.
pub fn scenario_key(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    seq_len: u32,
    batch: u32,
) -> u64 {
    workloads_key(
        cfg,
        platform,
        scenario_fingerprint(model, seq_len, batch),
        0,
    )
}

/// The display label of a scenario run (also the report's model name).
pub fn scenario_label(model: &TransformerConfig, seq_len: u32, batch: u32) -> String {
    format!(
        "{} (seq {}, batch {batch})",
        model.name,
        model.effective_seq(seq_len)
    )
}

/// Runs one scenario through the platform simulator, returning the
/// full per-op report.
///
/// # Errors
///
/// Propagates the runner's [`CoreError`]s (bad configuration,
/// infeasible photonics).
pub fn run(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    seq_len: u32,
    batch: u32,
) -> Result<RunReport, CoreError> {
    let work = extract_transformer_workloads(model, seq_len, batch, cfg.precision);
    Runner::new(cfg.clone()).run_workloads(platform, &scenario_label(model, seq_len, batch), &work)
}

/// Evaluates one scenario, folding infeasible configurations into
/// NaN-metric records (the CNN path's [`lumos_core::dse::evaluate`]
/// convention).
pub fn evaluate(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    seq_len: u32,
    batch: u32,
) -> DseMetrics {
    let work = extract_transformer_workloads(model, seq_len, batch, cfg.precision);
    evaluate_workloads(cfg, platform, &scenario_label(model, seq_len, batch), &work)
}

/// Fingerprint of one decode scenario: the architecture at a KV-cache
/// depth and batch size. Domain-tagged so decode keys stay disjoint
/// from prefill [`scenario_fingerprint`]s even where the lowered shapes
/// coincide (a cache-0 step vs a seq-1 prefill carry different
/// KV-write traffic).
fn decode_fingerprint(model: &TransformerConfig, cache_len: u32, batch: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(model_fingerprint(model));
    h.write_u64(u64::from_be_bytes(*b"KVDECODE"));
    h.write_u32(cache_len);
    h.write_u32(batch);
    h.finish()
}

/// The memoization key of one `(configuration, platform, decode
/// scenario)` point — the decode counterpart of [`scenario_key`],
/// with the cache depth folded into the fingerprint.
fn decode_key(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    cache_len: u32,
    batch: u32,
) -> u64 {
    workloads_key(
        cfg,
        platform,
        decode_fingerprint(model, cache_len, batch),
        0,
    )
}

/// The display label of a decode-step run (also the report's model
/// name).
fn decode_label(model: &TransformerConfig, cache_len: u32, batch: u32) -> String {
    format!("{} (decode @ cache {cache_len}, batch {batch})", model.name)
}

/// Evaluates one decode step, folding infeasible configurations into
/// NaN-metric records. `latency_ms` is the **per-token latency** of one
/// generated token at this cache depth.
fn evaluate_decode(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    cache_len: u32,
    batch: u32,
) -> DseMetrics {
    let work = extract_decode_workloads(model, cache_len, batch, cfg.precision);
    evaluate_workloads(cfg, platform, &decode_label(model, cache_len, batch), &work)
}

/// One evaluated decode scenario: its grid coordinates plus metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodePoint {
    /// KV-cache depth (tokens already cached).
    pub cache_len: u32,
    /// Batch size (concurrent generation streams).
    pub batch: u32,
    /// Per-token latency of one decode step, milliseconds.
    pub latency_ms: f64,
    /// Time-averaged power, watts.
    pub power_w: f64,
    /// Energy per bit, nanojoules.
    pub epb_nj: f64,
    /// Whether the point simulated successfully.
    pub feasible: bool,
}

/// Sweeps the [`DecodeAxes`] grid (cache depths × batches) for one
/// architecture on one platform, in parallel and memoized.
///
/// Points come back in grid order (cache depths outermost) regardless
/// of thread count.
pub fn sweep_decode(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &TransformerConfig,
    axes: &DecodeAxes,
    threads: usize,
    cache: &mut MemoCache,
) -> (Vec<DecodePoint>, SweepStats) {
    let grid: Vec<(u32, u32)> = axes.points().collect();
    let job = SweepJob::new(grid.clone()).threads(threads);
    let (metrics, stats) = job.run_memoized(
        cache,
        |&(c, b)| decode_key(cfg, platform, model, c, b),
        |&(c, b)| evaluate_decode(cfg, platform, model, c, b),
    );
    let points = grid
        .into_iter()
        .zip(metrics)
        .map(|((cache_len, batch), m)| DecodePoint {
            cache_len,
            batch,
            latency_ms: m.latency_ms,
            power_w: m.power_w,
            epb_nj: m.epb_nj,
            feasible: m.feasible,
        })
        .collect();
    (points, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn scenario_keys_are_stable_and_sensitive() {
        let cfg = PlatformConfig::paper_table1();
        let bert = zoo::bert_base();
        let p = Platform::Siph2p5D;
        assert_eq!(
            scenario_key(&cfg, &p, &bert, 128, 1),
            scenario_key(&cfg, &p, &bert.clone(), 128, 1)
        );
        assert_ne!(
            scenario_key(&cfg, &p, &bert, 128, 1),
            scenario_key(&cfg, &p, &bert, 256, 1)
        );
        assert_ne!(
            scenario_key(&cfg, &p, &bert, 128, 1),
            scenario_key(&cfg, &p, &bert, 128, 2)
        );
        assert_ne!(
            scenario_key(&cfg, &p, &bert, 128, 1),
            scenario_key(&cfg, &p, &zoo::gpt2_small(), 128, 1)
        );
        assert_ne!(
            scenario_key(&cfg, &p, &bert, 128, 1),
            scenario_key(&cfg, &Platform::Monolithic, &bert, 128, 1)
        );
        // Requests that lower to the same effective workload share a key.
        let vit = zoo::vit_b16();
        assert_eq!(
            scenario_key(&cfg, &p, &vit, 64, 1),
            scenario_key(&cfg, &p, &vit, 512, 1)
        );
        assert_eq!(
            scenario_key(&cfg, &p, &bert, 512, 1),
            scenario_key(&cfg, &p, &bert, 4096, 1), // clamped to 512
        );
    }

    #[test]
    fn evaluate_is_finite_on_table1() {
        let cfg = PlatformConfig::paper_table1();
        for platform in Platform::all() {
            let m = evaluate(&cfg, &platform, &zoo::bert_base(), 128, 1);
            assert!(m.feasible, "{platform}");
            assert!(m.latency_ms.is_finite() && m.latency_ms > 0.0);
            assert!(m.power_w.is_finite() && m.power_w > 0.0);
            assert!(m.epb_nj.is_finite() && m.epb_nj > 0.0);
        }
    }

    #[test]
    fn decode_keys_are_stable_and_sensitive() {
        let cfg = PlatformConfig::paper_table1();
        let gpt2 = zoo::gpt2_small();
        let p = Platform::Siph2p5D;
        assert_eq!(
            decode_key(&cfg, &p, &gpt2, 512, 1),
            decode_key(&cfg, &p, &gpt2.clone(), 512, 1)
        );
        assert_ne!(
            decode_key(&cfg, &p, &gpt2, 512, 1),
            decode_key(&cfg, &p, &gpt2, 513, 1),
            "cache depth is part of the fingerprint"
        );
        assert_ne!(
            decode_key(&cfg, &p, &gpt2, 512, 1),
            decode_key(&cfg, &p, &gpt2, 512, 2)
        );
        assert_ne!(
            decode_key(&cfg, &p, &gpt2, 512, 1),
            decode_key(&cfg, &Platform::Elec2p5D, &gpt2, 512, 1)
        );
        // A cache-0 decode step and a seq-1 prefill lower to related
        // shapes but are distinct workloads (KV write traffic).
        assert_ne!(
            decode_key(&cfg, &p, &gpt2, 0, 1),
            scenario_key(&cfg, &p, &gpt2, 1, 1)
        );
    }

    #[test]
    fn decode_sweep_is_memoized_and_monotone_in_cache_depth() {
        let cfg = PlatformConfig::paper_table1();
        let gpt2 = zoo::gpt2_small();
        let axes = DecodeAxes::from_slices(&[64, 512], &[1]);
        let mut cache = MemoCache::in_memory();
        let (points, s1) = sweep_decode(&cfg, &Platform::Siph2p5D, &gpt2, &axes, 2, &mut cache);
        assert_eq!(points.len(), 2);
        assert_eq!(s1.evaluated, 2);
        assert!(points.iter().all(|p| p.feasible));
        assert!(
            points[0].latency_ms < points[1].latency_ms,
            "a deeper cache must cost more per token: {points:?}"
        );
        let (again, s2) = sweep_decode(&cfg, &Platform::Siph2p5D, &gpt2, &axes, 2, &mut cache);
        assert!(s2.all_hits());
        assert_eq!(points, again);
        // The sweep agrees with direct evaluation point-for-point.
        let direct = evaluate_decode(&cfg, &Platform::Siph2p5D, &gpt2, 64, 1);
        assert_eq!(points[0].latency_ms, direct.latency_ms);
    }
}
