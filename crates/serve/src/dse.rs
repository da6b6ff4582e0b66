//! Design-space-exploration glue: fingerprinted, memoized serving
//! sweeps through the `lumos_dse` engine.
//!
//! A capacity plan is a sweep over offered load × scheduling policy ×
//! platform ([`ServeAxes`] plus a platform list). Every point is keyed
//! by a stable fingerprint of the *entire* serving configuration —
//! platform configuration, model mix (workloads, decode steps,
//! generator recipes, rates, SLOs), policy, sharing discipline,
//! batching policy, horizon, seed, residency cap,
//! and load scale — so sweeps are parallel, memoized, and persistable
//! exactly like the CNN and transformer paths. The cached value is the
//! capacity-planning headline
//! ([`ServeReport::headline`](crate::report::ServeReport::headline)):
//! `latency_ms` holds the aggregate **p99**, with serving power and
//! energy-per-bit alongside.

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use lumos_core::dse::{config_fingerprint, workloads_fingerprint};
use lumos_core::Platform;
use lumos_dse::{
    DseMetrics, MemoCache, ServeAxes, ServePolicy, StableHasher, SweepJob, SweepStats,
};

use crate::config::{ServeConfig, ServedModel};
use crate::error::ServeError;
use crate::profile::{build_profiles, ServiceProfiles};
use crate::sim::{simulate, simulate_with_profiles};

/// Fingerprint-schema version for serving points: bump when the
/// simulation semantics change so persisted caches from older runs are
/// invalidated wholesale. (v2: generator stages + processor-sharing
/// discipline entered the key set; v3: the continuous-batching policy
/// and each model's re-lowerable generator recipe entered it; v4: the
/// bandwidth-contention kind — uniform vs flow-level — entered it.)
const SERVE_KEY_SCHEMA: u64 = 4;

/// Stable fingerprint of a model mix: every model's name, lowered
/// workload stream, decode-step streams, generator recipe (when one is
/// recorded — two mixes with identical lowered stages but different
/// re-lowering recipes batch differently), offered rate, and SLO.
fn mix_fingerprint(models: &[ServedModel]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(SERVE_KEY_SCHEMA);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_usize(models.len());
    for m in models {
        h.write_str(&m.name);
        h.write_u64(workloads_fingerprint(&m.workloads));
        h.write_usize(m.decode_steps.len());
        for step in &m.decode_steps {
            h.write_u64(workloads_fingerprint(step));
        }
        match &m.generator_spec {
            None => h.write_u64(0),
            Some(spec) => {
                h.write_u64(1);
                spec.arch.hash(&mut h);
                h.write_u64(u64::from(spec.prompt_len));
                h.write_u64(u64::from(spec.batch));
                h.write_u64(u64::from(spec.precision.weight_bits));
                h.write_u64(u64::from(spec.precision.activation_bits));
            }
        }
        h.write_f64(m.rate_rps);
        h.write_f64(m.slo_ms);
    }
    h.finish()
}

/// The memoization key of one serving configuration: every field that
/// shapes the report.
pub fn serve_key(cfg: &ServeConfig) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(SERVE_KEY_SCHEMA);
    h.write_u64(config_fingerprint(&cfg.platform_cfg));
    cfg.platform.hash(&mut h);
    h.write_u64(mix_fingerprint(&cfg.models));
    h.write_u64(cfg.policy.tag());
    h.write_u64(cfg.sharing.tag());
    h.write_u64(cfg.batching.tag());
    h.write_u64(cfg.contention.tag());
    h.write_f64(cfg.duration_s);
    h.write_u64(cfg.seed);
    h.write_usize(cfg.max_concurrency);
    h.write_f64(cfg.load_scale);
    h.finish()
}

/// Evaluates one serving configuration, folding failures into the
/// NaN-metric convention the rest of the DSE stack uses.
pub fn evaluate(cfg: &ServeConfig) -> DseMetrics {
    match simulate(cfg) {
        Ok(report) => report.headline(),
        Err(_) => DseMetrics::infeasible(),
    }
}

/// One evaluated serving point: its grid coordinates plus the headline
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Platform served from.
    pub platform: Platform,
    /// Offered-load multiplier.
    pub load_scale: f64,
    /// Scheduling policy.
    pub policy: ServePolicy,
    /// Aggregate p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Time-averaged serving power, watts.
    pub power_w: f64,
    /// Energy per served bit, nanojoules.
    pub epb_nj: f64,
    /// Whether the point simulated successfully.
    pub feasible: bool,
}

/// The serving configuration of one grid cell.
fn grid_config(
    base: &ServeConfig,
    platform: Platform,
    load_scale: f64,
    policy: ServePolicy,
) -> ServeConfig {
    base.clone()
        .with_platform(platform)
        .with_load_scale(load_scale)
        .with_policy(policy)
}

/// Sweeps the serving grid — `platforms` outermost, then the
/// [`ServeAxes`] load × policy product — in parallel and memoized.
///
/// Points come back in grid order regardless of thread count; failed
/// points carry `feasible = false` rather than being dropped.
///
/// `threads` sizes the pool over grid points. Each platform's profile
/// build ([`build_profiles`]) tabulates on its own pool of
/// [`lumos_dse::available_threads`] workers, and builds of different
/// platforms may overlap, so up to `threads × available_threads()`
/// threads can run while profiles build. Set `LUMOS_DSE_THREADS=1` as
/// well for a single-threaded sweep.
///
/// # Errors
///
/// Returns [`ServeError::BadConfig`] when the grid is empty.
pub fn sweep(
    base: &ServeConfig,
    axes: &ServeAxes,
    platforms: &[Platform],
    threads: usize,
    cache: &mut MemoCache,
) -> Result<(Vec<ServePoint>, SweepStats), ServeError> {
    if axes.is_empty() || platforms.is_empty() {
        return Err(ServeError::BadConfig {
            reason: "empty serving sweep grid".into(),
        });
    }
    let grid: Vec<(Platform, f64, ServePolicy)> = platforms
        .iter()
        .flat_map(|&p| axes.points().map(move |(l, pol)| (p, l, pol)))
        .collect();
    let job = SweepJob::new(grid.clone()).threads(threads);
    // Service profiles depend only on the platform (not load or
    // policy), so points that miss the memo share one profile build per
    // platform: one cell per platform, built lazily and exactly once (a
    // fully-warm sweep never simulates). A failed build is kept as
    // `None`.
    let profiles_of: Vec<OnceLock<Option<ServiceProfiles>>> =
        platforms.iter().map(|_| OnceLock::new()).collect();
    let (metrics, stats) = job.run_memoized(
        cache,
        |&(p, l, pol)| serve_key(&grid_config(base, p, l, pol)),
        |&(p, l, pol)| {
            let cfg = grid_config(base, p, l, pol);
            let slot = platforms
                .iter()
                .position(|&q| q == p)
                .expect("grid platforms come from the platform list");
            let Some(profiles) = profiles_of[slot].get_or_init(|| build_profiles(&cfg).ok()) else {
                return DseMetrics::infeasible();
            };
            match simulate_with_profiles(&cfg, profiles) {
                Ok(report) => report.headline(),
                Err(_) => DseMetrics::infeasible(),
            }
        },
    );
    let points = grid
        .into_iter()
        .zip(metrics)
        .map(|((platform, load_scale, policy), m)| ServePoint {
            platform,
            load_scale,
            policy,
            p99_ms: m.latency_ms,
            power_w: m.power_w,
            epb_nj: m.epb_nj,
            feasible: m.feasible,
        })
        .collect();
    Ok((points, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::PlatformConfig;
    use lumos_dnn::workload::Precision;
    use lumos_dnn::zoo;

    fn mix() -> Vec<ServedModel> {
        vec![ServedModel::cnn(
            &zoo::lenet5(),
            Precision::int8(),
            500.0,
            5.0,
        )]
    }

    fn base() -> ServeConfig {
        ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, mix())
            .with_duration_s(0.02)
            .with_max_concurrency(2)
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let cfg = base();
        assert_eq!(serve_key(&cfg), serve_key(&cfg.clone()));
        assert_ne!(serve_key(&cfg), serve_key(&cfg.clone().with_seed(7)));
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_load_scale(2.0))
        );
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_policy(ServePolicy::SloAware))
        );
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_platform(Platform::Elec2p5D))
        );
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_max_concurrency(3))
        );
        let mut hotter = cfg.clone();
        hotter.models[0].rate_rps *= 2.0;
        assert_ne!(serve_key(&cfg), serve_key(&hotter));
        assert_ne!(
            mix_fingerprint(&cfg.models),
            mix_fingerprint(&hotter.models)
        );
        // The sharing discipline and generator stages shape the report,
        // so they must rotate the key.
        use lumos_dse::SharePolicy;
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_sharing(SharePolicy::SloPressure))
        );
        let mut gen = cfg.clone();
        gen.models[0].decode_steps = vec![gen.models[0].workloads.clone()];
        assert_ne!(serve_key(&cfg), serve_key(&gen));
        assert_ne!(mix_fingerprint(&cfg.models), mix_fingerprint(&gen.models));
        // The batching policy changes the schedule (and the batch cap
        // changes the profile planes), so both must rotate the key.
        use lumos_dse::BatchPolicy;
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_batching(BatchPolicy::continuous(1)))
        );
        assert_ne!(
            serve_key(&cfg.clone().with_batching(BatchPolicy::continuous(2))),
            serve_key(&cfg.clone().with_batching(BatchPolicy::continuous(4)))
        );
        // The contention model changes the bandwidth shares, so it
        // must rotate the key.
        use lumos_dse::ContentionKind;
        assert_ne!(
            serve_key(&cfg),
            serve_key(&cfg.clone().with_contention(ContentionKind::FlowLevel))
        );
        // Two mixes with identical lowered stages but different
        // re-lowering recipes batch differently: the recorded
        // generator spec is part of the mix identity.
        let spec_a = ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            16,
            2,
            1,
            Precision::int8(),
            5.0,
            500.0,
        );
        let mut spec_none = spec_a.clone();
        spec_none.generator_spec = None;
        assert_ne!(
            mix_fingerprint(std::slice::from_ref(&spec_a)),
            mix_fingerprint(&[spec_none])
        );
        let mut deeper_prompt = spec_a.clone();
        deeper_prompt
            .generator_spec
            .as_mut()
            .expect("spec")
            .prompt_len += 1;
        assert_ne!(
            mix_fingerprint(&[spec_a]),
            mix_fingerprint(&[deeper_prompt])
        );
    }

    #[test]
    fn sweep_covers_grid_and_memoizes() {
        let axes = ServeAxes::from_slices(&[0.5, 1.0], &[ServePolicy::Fifo, ServePolicy::SloAware]);
        let platforms = [Platform::Siph2p5D, Platform::Elec2p5D];
        let mut cache = MemoCache::in_memory();
        let (points, stats) =
            sweep(&base(), &axes, &platforms, 2, &mut cache).expect("serving sweep runs");
        assert_eq!(points.len(), 8);
        assert_eq!(stats.evaluated, 8);
        assert!(points.iter().all(|p| p.feasible));
        // The amortized-profile path must agree with a direct
        // evaluation point-for-point.
        for p in &points {
            let direct = evaluate(
                &base()
                    .with_platform(p.platform)
                    .with_load_scale(p.load_scale)
                    .with_policy(p.policy),
            );
            assert_eq!(p.p99_ms, direct.latency_ms);
            assert_eq!(p.power_w, direct.power_w);
        }
        // Grid order: platforms outermost, then load × policy.
        assert_eq!(points[0].platform, Platform::Siph2p5D);
        assert_eq!(points[4].platform, Platform::Elec2p5D);
        assert_eq!(points[1].policy, ServePolicy::SloAware);

        // Second in-process run: 100% cache hits, identical points.
        let (again, warm) =
            sweep(&base(), &axes, &platforms, 2, &mut cache).expect("warm serving sweep runs");
        assert!(warm.all_hits(), "expected all hits, got {warm:?}");
        assert_eq!(points, again);
    }

    #[test]
    fn empty_grid_rejected() {
        let axes = ServeAxes::from_slices(&[], &[ServePolicy::Fifo]);
        let mut cache = MemoCache::in_memory();
        assert!(sweep(&base(), &axes, &[Platform::Siph2p5D], 1, &mut cache).is_err());
        let axes = ServeAxes::example_grid();
        assert!(sweep(&base(), &axes, &[], 1, &mut cache).is_err());
    }

    #[test]
    fn evaluate_matches_simulate_headline() {
        let cfg = base();
        let m = evaluate(&cfg);
        let r = simulate(&cfg).expect("simulate");
        assert!(m.feasible);
        assert_eq!(m.latency_ms, r.aggregate_latency.p99_ms);
        assert_eq!(m.power_w, r.avg_power_w);
        assert_eq!(m.epb_nj, r.epb_nj);
    }
}
