//! Design-space exploration (the paper's open challenge 3).
//!
//! "The silicon photonic 2.5D DNN accelerator architecture requires
//! design-space exploration (e.g., in terms of the number of
//! wavelengths, number of gateways per chiplet, and number of MACs per
//! chiplet) to create an optimized architecture tailored to DNNs of
//! interest." — paper §VII.
//!
//! The exploration engine itself lives in the [`lumos_dse`] crate (the
//! worker pool, the memo cache, Pareto tooling); this module re-exports
//! it for backward compatibility and supplies the platform glue:
//! stable fingerprints of `(PlatformConfig, Platform, Model)` points
//! ([`point_key`]), single-point evaluation through the [`Runner`]
//! ([`evaluate`]), and grid sweeps over the photonic platform
//! ([`sweep`], [`sweep_with`], [`explore`]).

use std::hash::{Hash, Hasher};

use lumos_dnn::Model;
use lumos_phnet::ReconfigPolicy;
use lumos_photonics::modulator::ModulationFormat;

pub use lumos_dse::{
    available_threads, engine_stats_line, parallel_map, pareto_front, pareto_front_by, refine_axes,
    DecodeAxes, DseAxes, DseMetrics, DsePoint, MemoCache, ServeAxes, ServePolicy, SharePolicy,
    StableHasher, SweepJob, SweepStats, XformerAxes,
};

use crate::config::{MacClassConfig, PlatformConfig};
use crate::platform::Platform;
use crate::runner::Runner;

/// Fingerprint-schema version: bump when the hashed field set changes —
/// or when simulator semantics change within a crate version — so
/// persisted caches from older layouts are invalidated wholesale.
/// (v2: explicit softmax workloads + heterogeneous batched-GEMM
/// placement changed every metric; v3: the calibration lost its
/// schedule flag, so fewer fields are hashed.)
const KEY_SCHEMA: u64 = 3;

/// Seeds a hasher with the schema version and the crate version, so a
/// release that changes simulator behavior invalidates persisted caches.
/// (Within one version, code edits do not rotate keys — clear
/// `target/dse-cache` after hacking on the runner; see the README.)
fn schema_seed(h: &mut StableHasher) {
    h.write_u64(KEY_SCHEMA);
    h.write_str(env!("CARGO_PKG_VERSION"));
}

fn write_mac_class(h: &mut StableHasher, c: &MacClassConfig) {
    h.write_usize(c.chiplets);
    h.write_usize(c.macs_per_chiplet);
    h.write_usize(c.macs_per_gateway);
}

/// Stable fingerprint of every semantically relevant field of a
/// [`PlatformConfig`] (chiplet classes, photonic network, HBM, and
/// calibration constants).
pub fn config_fingerprint(cfg: &PlatformConfig) -> u64 {
    let mut h = StableHasher::new();
    schema_seed(&mut h);
    for c in [&cfg.dense, &cfg.conv7, &cfg.conv5, &cfg.conv3] {
        write_mac_class(&mut h, c);
    }
    h.write_usize(cfg.memory_chiplets);
    h.write_u32(cfg.precision.weight_bits);
    h.write_u32(cfg.precision.activation_bits);

    let p = &cfg.phnet;
    h.write_usize(p.compute_chiplets);
    h.write_usize(p.gateways_per_chiplet);
    h.write_usize(p.memory_tx_gateways);
    h.write_usize(p.wavelengths);
    h.write_f64(p.rate_gbps);
    h.write_f64(p.gateway_freq_ghz);
    h.write_u64(p.conversion_latency_ns);
    h.write_u64(match p.policy {
        ReconfigPolicy::ResipiGateways => 0,
        ReconfigPolicy::ProwavesWavelengths => 1,
        ReconfigPolicy::StaticFull => 2,
        ReconfigPolicy::StaticMin => 3,
    });
    h.write_u64(p.epoch_us);
    h.write_f64(p.chiplet_pitch_mm);
    h.write_u64(match p.modulation {
        ModulationFormat::Ook => 0,
        ModulationFormat::Pam4 => 1,
    });
    h.write_u32(p.ring_q);
    h.write_f64(p.max_laser_dbm);
    h.write_f64(p.serdes_fj_per_bit);
    h.write_f64(p.gateway_static_mw);
    h.write_f64(p.ring_lock_mw);

    let m = &cfg.hbm;
    h.write_usize(m.channels);
    h.write_f64(m.channel_rate_gbps);
    h.write_u64(m.access_latency_ns);
    h.write_f64(m.energy_pj_per_bit);
    h.write_f64(m.static_power_w);

    let c = &cfg.calibration;
    h.write_f64(c.mac_rate_ghz);
    h.write_f64(c.dac_mw);
    h.write_f64(c.adc_mw_per_unit);
    h.write_f64(c.mac_lane_laser_mw);
    h.write_f64(c.mac_ring_lock_mw);
    h.write_f64(c.unit_idle_frac);
    h.write_u64(c.layer_overhead_ns);
    h.write_u64(c.elec_packet_bits);
    h.write_f64(c.elec_phy_static_w);
    h.write_f64(c.hop_mm_2p5d);
    h.write_f64(c.mono_unit_scale);
    h.write_f64(c.mono_mem_gbps);
    h.write_f64(c.mono_static_w);
    h.write_f64(c.digital_static_w);
    h.write_f64(c.comm_overlap_margin);
    h.finish()
}

/// Stable fingerprint of a model's topology: name, input shape, and
/// every node's name, layer parameters, and fan-in.
pub fn model_fingerprint(model: &Model) -> u64 {
    let mut h = StableHasher::new();
    schema_seed(&mut h);
    h.write_str(model.name());
    let s = model.input_shape();
    h.write_u32(s.c);
    h.write_u32(s.h);
    h.write_u32(s.w);
    h.write_usize(model.nodes().len());
    for node in model.nodes() {
        h.write_str(&node.name);
        node.layer.hash(&mut h);
        node.inputs.hash(&mut h);
    }
    h.finish()
}

/// Stable fingerprint of a pre-extracted workload sequence — the
/// transformer path and custom schedules, where no `Model` graph
/// exists. Hashes every field the runner consumes.
pub fn workloads_fingerprint(workloads: &[lumos_dnn::LayerWorkload]) -> u64 {
    let mut h = StableHasher::new();
    schema_seed(&mut h);
    // Domain tag: keep workload-sequence keys disjoint from the graph
    // fingerprints of `model_fingerprint`.
    h.write_u64(u64::from_be_bytes(*b"WORKLOAD"));
    h.write_usize(workloads.len());
    for w in workloads {
        h.write_str(&w.name);
        w.class.hash(&mut h);
        h.write_u64(w.dot_products);
        h.write_u64(w.dot_length);
        h.write_u64(w.window);
        h.write_u64(w.macs);
        h.write_u64(w.weight_bits);
        h.write_u64(w.input_bits);
        h.write_u64(w.output_bits);
    }
    h.finish()
}

/// The memoization key of one `(configuration, platform, workload
/// sequence)` point, from a pre-computed [`workloads_fingerprint`].
pub fn workloads_key(
    cfg: &PlatformConfig,
    platform: &Platform,
    workloads_fp: u64,
    salt: u64,
) -> u64 {
    combine_key(config_fingerprint(cfg), platform, workloads_fp, salt)
}

/// [`evaluate`] for a pre-extracted workload sequence.
pub fn evaluate_workloads(
    cfg: &PlatformConfig,
    platform: &Platform,
    name: &str,
    workloads: &[lumos_dnn::LayerWorkload],
) -> DseMetrics {
    match Runner::new(cfg.clone()).run_workloads(platform, name, workloads) {
        Ok(r) => DseMetrics {
            latency_ms: r.latency_ms(),
            power_w: r.avg_power_w(),
            epb_nj: r.epb_nj(),
            feasible: true,
        },
        Err(_) => DseMetrics::infeasible(),
    }
}

/// The memoization key of one `(configuration, platform, model)` point.
pub fn point_key(cfg: &PlatformConfig, platform: &Platform, model: &Model) -> u64 {
    point_key_salted(cfg, platform, model, 0)
}

/// [`point_key`] with an extra caller-chosen discriminant mixed in, for
/// evaluations the configuration alone does not determine (e.g. batch
/// size, a custom workload schedule).
pub fn point_key_salted(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &Model,
    salt: u64,
) -> u64 {
    combine_key(
        config_fingerprint(cfg),
        platform,
        model_fingerprint(model),
        salt,
    )
}

/// Mixes pre-computed fingerprints into a point key — lets sweeps hash
/// the (loop-invariant) model once instead of once per grid point.
fn combine_key(cfg_fp: u64, platform: &Platform, model_fp: u64, salt: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(cfg_fp);
    platform.hash(&mut h);
    h.write_u64(model_fp);
    h.write_u64(salt);
    h.finish()
}

/// Evaluates one point through the simulator, folding infeasible
/// configurations (link budget failures and invalid configs alike) into
/// a NaN-metric record rather than an error — knowing *where* the
/// laser/crosstalk wall sits is part of the exploration.
pub fn evaluate(cfg: &PlatformConfig, platform: &Platform, model: &Model) -> DseMetrics {
    match Runner::new(cfg.clone()).run(platform, model) {
        Ok(r) => DseMetrics {
            latency_ms: r.latency_ms(),
            power_w: r.avg_power_w(),
            epb_nj: r.epb_nj(),
            feasible: true,
        },
        Err(_) => DseMetrics::infeasible(),
    }
}

/// The simulator's error message for an infeasible point, or `None` if
/// the point simulates fine. Cached metrics stay `Copy`/bit-exact and so
/// cannot carry the reason; infeasible configurations fail fast in the
/// link-budget solver, so re-deriving the message on demand is cheap.
pub fn infeasibility_reason(
    cfg: &PlatformConfig,
    platform: &Platform,
    model: &Model,
) -> Option<String> {
    Runner::new(cfg.clone())
        .run(platform, model)
        .err()
        .map(|e| e.to_string())
}

/// Applies a MAC scale factor to every chiplet class, keeping gateway
/// divisibility intact (counts round to the nearest multiple of the
/// class's MACs-per-gateway, minimum one group). A scale that is not
/// finite and positive leaves no MACs, and one too large to count
/// saturates the MAC count; [`PlatformConfig::validate`] rejects both,
/// so such a grid point is infeasible.
fn scale_macs(cfg: &mut PlatformConfig, scale: f64) {
    let scalable = scale.is_finite() && scale > 0.0;
    for class_cfg in [
        &mut cfg.dense,
        &mut cfg.conv7,
        &mut cfg.conv5,
        &mut cfg.conv3,
    ] {
        let per_gw = class_cfg.macs_per_gateway;
        let target = (class_cfg.macs_per_chiplet as f64 * scale).round() as usize;
        let groups = if scalable {
            (target / per_gw).max(1)
        } else {
            0
        };
        class_cfg.macs_per_chiplet = groups * per_gw;
    }
}

/// The platform configuration of one grid point: `base` with the
/// wavelength count, gateway count, and MAC scale applied.
pub fn grid_config(
    base: &PlatformConfig,
    wavelengths: usize,
    gateways: usize,
    mac_scale: f64,
) -> PlatformConfig {
    let mut cfg = base.clone();
    cfg.phnet.wavelengths = wavelengths;
    cfg.phnet.gateways_per_chiplet = gateways;
    scale_macs(&mut cfg, mac_scale);
    cfg
}

/// Sweeps `axes` on the photonic platform for one model, evaluating
/// grid points in parallel on the default worker count (uncached).
///
/// Points come back in grid order (wavelengths outermost, MAC scales
/// innermost) regardless of thread count. Infeasible points are
/// reported with `feasible = false` and NaN metrics rather than
/// dropped.
pub fn sweep(base: &PlatformConfig, axes: &DseAxes, model: &Model) -> Vec<DsePoint> {
    sweep_with(base, axes, model, 0, None).0
}

/// [`sweep`] with explicit control: `threads` worker threads (0 = the
/// default, 1 = the sequential baseline) and an optional memo cache.
///
/// With a cache, previously seen points are served from the memo and
/// only distinct new configurations are simulated; the returned
/// [`SweepStats`] reports the split.
pub fn sweep_with(
    base: &PlatformConfig,
    axes: &DseAxes,
    model: &Model,
    threads: usize,
    cache: Option<&mut MemoCache>,
) -> (Vec<DsePoint>, SweepStats) {
    sweep_metered(
        base,
        axes,
        model,
        threads,
        cache,
        &lumos_metrics::MetricsRegistry::off(),
    )
}

/// [`sweep_with`] additionally metering the engine through `metrics`
/// (see [`SweepJob::with_metrics`]): cache hit/miss counters over the
/// key scan and evaluated-point counters over the virtual worker
/// rounds land in the registry, without ever perturbing the sweep
/// results.
pub fn sweep_metered(
    base: &PlatformConfig,
    axes: &DseAxes,
    model: &Model,
    threads: usize,
    cache: Option<&mut MemoCache>,
    metrics: &lumos_metrics::MetricsRegistry,
) -> (Vec<DsePoint>, SweepStats) {
    let grid: Vec<(usize, usize, f64)> = axes.points().collect();
    let configs: Vec<PlatformConfig> = grid
        .iter()
        .map(|&(w, g, s)| grid_config(base, w, g, s))
        .collect();
    let job = SweepJob::new(configs)
        .threads(threads)
        .with_metrics(metrics.clone());
    let platform = Platform::Siph2p5D;
    let model_fp = model_fingerprint(model);
    let (metrics, stats) = match cache {
        Some(c) => job.run_memoized(
            c,
            |cfg| combine_key(config_fingerprint(cfg), &platform, model_fp, 0),
            |cfg| evaluate(cfg, &platform, model),
        ),
        None => {
            let metrics = job.run(|cfg| evaluate(cfg, &platform, model));
            let stats = SweepStats {
                points: metrics.len(),
                hits: 0,
                evaluated: metrics.len(),
                threads: job.thread_count(),
            };
            (metrics, stats)
        }
    };
    let points = grid
        .into_iter()
        .zip(metrics)
        .map(|((w, g, s), m)| DsePoint::new(w, g, s, m))
        .collect();
    (points, stats)
}

/// The result of a multi-round [`explore`] run.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every distinct point evaluated across all rounds, in discovery
    /// order.
    pub points: Vec<DsePoint>,
    /// The Pareto front of `points` on (latency, power).
    pub front: Vec<DsePoint>,
    /// Per-round sweep accounting.
    pub rounds: Vec<SweepStats>,
}

/// Iteratively explores the design space: sweep the grid, extract the
/// Pareto front, refine the axes around it by successive halving, and
/// repeat for `rounds` rounds. The memo cache makes re-visited points
/// free, so each round mostly pays for the newly proposed midpoints.
pub fn explore(
    base: &PlatformConfig,
    axes: &DseAxes,
    model: &Model,
    rounds: usize,
    cache: &mut MemoCache,
    threads: usize,
) -> Exploration {
    let mut axes = axes.clone();
    let mut points: Vec<DsePoint> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut stats = Vec::new();
    for _ in 0..rounds.max(1) {
        let (pts, st) = sweep_with(base, &axes, model, threads, Some(cache));
        stats.push(st);
        for p in pts {
            if seen.insert((p.wavelengths, p.gateways, p.mac_scale.to_bits())) {
                points.push(p);
            }
        }
        let front = pareto_front(&points);
        axes = refine_axes(&axes, &front);
    }
    let front = pareto_front(&points);
    Exploration {
        points,
        front,
        rounds: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_dnn::zoo;

    fn small_axes() -> DseAxes {
        DseAxes {
            wavelengths: vec![16, 64],
            gateways: vec![1, 4],
            mac_scales: vec![1.0],
        }
    }

    #[test]
    fn sweep_covers_product_of_axes() {
        let points = sweep(
            &PlatformConfig::paper_table1(),
            &small_axes(),
            &zoo::lenet5(),
        );
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.feasible));
    }

    #[test]
    fn pareto_front_is_nondominated_and_sorted() {
        let points = sweep(
            &PlatformConfig::paper_table1(),
            &small_axes(),
            &zoo::resnet50(),
        );
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for pair in front.windows(2) {
            assert!(pair[0].latency_ms <= pair[1].latency_ms);
            // Along the front, more latency must buy less power.
            assert!(pair[0].power_w >= pair[1].power_w);
        }
        for p in &front {
            for q in &points {
                if q.feasible {
                    assert!(
                        !(q.latency_ms < p.latency_ms && q.power_w < p.power_w),
                        "front point dominated"
                    );
                }
            }
        }
    }

    #[test]
    fn mac_scaling_respects_gateway_grouping() {
        let mut cfg = PlatformConfig::paper_table1();
        scale_macs(&mut cfg, 0.5);
        // conv3: 44 MACs, 11/gateway -> 22 stays divisible by 11.
        assert_eq!(cfg.conv3.macs_per_chiplet % cfg.conv3.macs_per_gateway, 0);
        assert_eq!(cfg.conv3.macs_per_chiplet, 22);
        // dense: 4 MACs, 1/gateway -> 2.
        assert_eq!(cfg.dense.macs_per_chiplet, 2);
        cfg.validate().expect("scaled config stays valid");
    }

    #[test]
    fn halving_macs_increases_compute_bound_latency() {
        let base = PlatformConfig::paper_table1();
        let axes = DseAxes {
            wavelengths: vec![64],
            gateways: vec![4],
            mac_scales: vec![0.5, 1.0],
        };
        let points = sweep(&base, &axes, &zoo::vgg16());
        let half = &points[0];
        let full = &points[1];
        assert!(half.latency_ms > full.latency_ms);
    }

    #[test]
    fn infeasible_points_flagged_not_dropped() {
        let mut base = PlatformConfig::paper_table1();
        base.phnet.max_laser_dbm = -10.0; // nothing closes
        let points = sweep(&base, &small_axes(), &zoo::lenet5());
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| !p.feasible));
        assert!(pareto_front(&points).is_empty());
    }

    #[test]
    fn fingerprints_stable_and_sensitive() {
        let cfg = PlatformConfig::paper_table1();
        let model = zoo::lenet5();
        assert_eq!(
            point_key(&cfg, &Platform::Siph2p5D, &model),
            point_key(&cfg.clone(), &Platform::Siph2p5D, &model.clone()),
        );
        let mut other = cfg.clone();
        other.phnet.wavelengths = 32;
        assert_ne!(
            point_key(&cfg, &Platform::Siph2p5D, &model),
            point_key(&other, &Platform::Siph2p5D, &model),
        );
        assert_ne!(
            point_key(&cfg, &Platform::Siph2p5D, &model),
            point_key(&cfg, &Platform::Monolithic, &model),
        );
        assert_ne!(
            point_key(&cfg, &Platform::Siph2p5D, &model),
            point_key(&cfg, &Platform::Siph2p5D, &zoo::vgg16()),
        );
        assert_ne!(
            point_key_salted(&cfg, &Platform::Siph2p5D, &model, 1),
            point_key_salted(&cfg, &Platform::Siph2p5D, &model, 2),
        );
    }

    #[test]
    fn grid_config_applies_all_three_axes() {
        let base = PlatformConfig::paper_table1();
        let cfg = grid_config(&base, 32, 2, 0.5);
        assert_eq!(cfg.phnet.wavelengths, 32);
        assert_eq!(cfg.phnet.gateways_per_chiplet, 2);
        assert_eq!(cfg.conv3.macs_per_chiplet, 22);
    }
}
