//! Property-based tests for the serving simulator's invariants:
//! seed-determinism, conservation (served ≤ arrived), ordered
//! percentiles, and agreement with the single-inference runner in the
//! zero-contention limit.
//!
//! Every case uses LeNet5 mixes (microsecond service times) so the
//! whole suite stays fast at the default case count.

use lumos_core::{Platform, PlatformConfig, Runner};
use lumos_dnn::workload::Precision;
use lumos_dnn::zoo;
use lumos_dse::{BatchPolicy, ContentionKind, ServePolicy, SharePolicy};
use lumos_serve::{build_profiles, simulate, simulate_with_profiles, ServeConfig, ServedModel};
use proptest::prelude::*;

fn policy_from(idx: u8) -> ServePolicy {
    ServePolicy::all()[idx as usize % 4]
}

fn lenet_mix(rates: &[f64]) -> Vec<ServedModel> {
    rates
        .iter()
        .map(|&r| ServedModel::cnn(&zoo::lenet5(), Precision::int8(), r, 5.0))
        .collect()
}

fn cfg(rates: &[f64], seed: u64, policy: ServePolicy, max_concurrency: usize) -> ServeConfig {
    ServeConfig::new(
        PlatformConfig::paper_table1(),
        Platform::Siph2p5D,
        lenet_mix(rates),
    )
    .with_duration_s(0.004)
    .with_seed(seed)
    .with_policy(policy)
    .with_max_concurrency(max_concurrency)
}

proptest! {
    /// (a) Same configuration (seed included) ⇒ bit-identical report.
    #[test]
    fn same_seed_is_bit_identical(
        seed in 0u64..1_000_000,
        policy_idx in 0u8..4,
        rate in 1_000.0f64..400_000.0,
        k in 1usize..4,
    ) {
        let c = cfg(&[rate, rate / 3.0], seed, policy_from(policy_idx), k);
        let a = simulate(&c).expect("serving simulation runs");
        let b = simulate(&c).expect("serving simulation repeats");
        // Derived PartialEq compares every f64 field; reports are
        // NaN-free by construction so equality means bit-identical.
        prop_assert_eq!(a, b);
    }

    /// (b) Conservation and ordering: served ≤ arrived (per model and
    /// total), and p50 ≤ p95 ≤ p99 wherever anything was served.
    #[test]
    fn conservation_and_ordered_percentiles(
        seed in 0u64..1_000_000,
        policy_idx in 0u8..4,
        rate in 1_000.0f64..600_000.0,
        k in 1usize..5,
    ) {
        let c = cfg(&[rate, rate / 2.0, rate / 5.0], seed, policy_from(policy_idx), k);
        let r = simulate(&c).expect("serving simulation runs");
        let mut arrived = 0;
        let mut served = 0;
        for m in &r.models {
            prop_assert!(m.served <= m.arrived, "{}: {} > {}", m.name, m.served, m.arrived);
            arrived += m.arrived;
            served += m.served;
            if m.served > 0 {
                prop_assert!(m.latency.min_ms > 0.0);
                prop_assert!(m.latency.p50_ms <= m.latency.p95_ms);
                prop_assert!(m.latency.p95_ms <= m.latency.p99_ms);
                prop_assert!(m.latency.p99_ms <= m.latency.max_ms);
                prop_assert!(m.queue_delay.p50_ms <= m.queue_delay.p99_ms);
            }
        }
        prop_assert_eq!(arrived, r.total_arrived);
        prop_assert_eq!(served, r.total_served);
        prop_assert!(r.total_served <= r.total_arrived);
        prop_assert!(r.aggregate_latency.p50_ms <= r.aggregate_latency.p95_ms);
        prop_assert!(r.aggregate_latency.p95_ms <= r.aggregate_latency.p99_ms);
        for u in r.class_utilization {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {}", u);
        }
        prop_assert!(r.mean_concurrency <= c.max_concurrency as f64 + 1e-9);
    }

    /// (c) Zero contention: with one resident stream the first request
    /// never queues, so the minimum observed latency is exactly the
    /// single-inference runner latency (within float-accumulation
    /// tolerance of the remaining-work integration).
    #[test]
    fn zero_contention_matches_runner_latency(
        seed in 0u64..1_000_000,
        rate in 10_000.0f64..100_000.0,
    ) {
        let c = cfg(&[rate], seed, ServePolicy::Fifo, 1);
        let r = simulate(&c).expect("serving simulation runs");
        // ≥ 40 expected arrivals at microsecond service times: the
        // chance of an empty horizon is ~e^-40.
        prop_assert!(r.total_served > 0);
        let isolated = Runner::new(c.platform_cfg.clone())
            .run_workloads(&c.platform, "lenet5", &c.models[0].workloads)
            .expect("lenet5 runs on 2.5D-SiPh")
            .latency_ms();
        let min = r.models[0].latency.min_ms;
        prop_assert!(
            (min - isolated).abs() <= 1e-9 * isolated.max(1.0),
            "serving min {} vs runner {}",
            min,
            isolated
        );
        // And nothing can beat the isolated latency.
        prop_assert!(r.aggregate_latency.min_ms >= isolated - 1e-9);
    }

    /// (d) Service profiles are monotone in the contention level: more
    /// resident streams never make a stream faster.
    #[test]
    fn profiles_monotone_in_contention(k in 2usize..6) {
        let c = cfg(&[1000.0], 1, ServePolicy::Fifo, k);
        let profiles = build_profiles(&c).expect("profiles build");
        for m in &profiles.models {
            for stage in &m.stages {
                for w in stage.windows(2) {
                    prop_assert!(w[0] <= w[1], "service times not monotone: {:?}", m.stages);
                }
            }
        }
    }

    /// (e) Uniform weights reproduce the old `1/k` reports bit-for-bit.
    /// Both disciplines run the same weighted-share machinery
    /// (weights → normalized shares → profile lookup); with one
    /// resident stream every share is exactly 1, so SLO-pressure
    /// weighting must collapse to the uniform discipline's exact
    /// tabulated lookups — the whole report, bit for bit.
    #[test]
    fn slo_pressure_collapses_to_uniform_at_k1(
        seed in 0u64..1_000_000,
        policy_idx in 0u8..4,
        rate in 1_000.0f64..400_000.0,
    ) {
        let base = cfg(&[rate, rate / 3.0], seed, policy_from(policy_idx), 1);
        let uniform = simulate(&base).expect("uniform sharing runs");
        let mut weighted = simulate(&base.clone().with_sharing(SharePolicy::SloPressure))
            .expect("slo-pressure sharing runs");
        prop_assert_eq!(weighted.sharing, SharePolicy::SloPressure);
        weighted.sharing = uniform.sharing;
        // Derived PartialEq over every f64 field; reports are NaN-free
        // by construction so equality means bit-identical.
        prop_assert_eq!(uniform, weighted);
    }

    /// (g) Flow-level contention on the photonic platform reproduces
    /// the uniform reports bit-for-bit: every stream's route crosses
    /// the HBM aggregate (2048 Gb/s), which always freezes before the
    /// roomier per-chiplet gateway complements (3072 Gb/s), so max-min
    /// water-filling hands every resident exactly `1/k` — the
    /// degenerate case the flow model must collapse on. The report does
    /// not record the contention kind, so equality is direct.
    #[test]
    fn flow_level_collapses_to_uniform_on_siph(
        seed in 0u64..1_000_000,
        rate in 1_000.0f64..400_000.0,
        k in 1usize..4,
    ) {
        let base = cfg(&[rate, rate / 3.0], seed, ServePolicy::Fifo, k);
        let uniform = simulate(&base).expect("uniform contention runs");
        let flow = simulate(&base.clone().with_contention(ContentionKind::FlowLevel))
            .expect("flow-level contention runs");
        prop_assert_eq!(uniform, flow);
    }

    /// (f) Uniform shares hit the tabulated contention levels exactly:
    /// the share-space lookup at `1/k` returns `stage_service(k)`
    /// bit-for-bit for every stage and depth.
    #[test]
    fn uniform_shares_hit_the_service_table_exactly(k in 1usize..6) {
        let c = cfg(&[1000.0], 1, ServePolicy::Fifo, k);
        let profiles = build_profiles(&c).expect("profiles build");
        for m in &profiles.models {
            for stage in 0..m.n_stages() {
                for j in 1..=k {
                    let share = 1.0 / j as f64;
                    prop_assert_eq!(
                        m.stage_service_at_share(stage, share).to_bits(),
                        m.stage_service(stage, j).to_bits()
                    );
                }
            }
        }
    }
}

/// Flow-level ≡ uniform on the monolithic platform too (every stream
/// crosses the same bus + HBM pair, so routes are literally identical),
/// one deterministic case per depth.
#[test]
fn flow_level_collapses_to_uniform_on_monolithic() {
    for k in 1usize..=3 {
        let base = cfg(&[50_000.0, 20_000.0], 11, ServePolicy::Fifo, k)
            .with_platform(Platform::Monolithic);
        let uniform = simulate(&base).expect("uniform contention runs");
        let flow = simulate(&base.clone().with_contention(ContentionKind::FlowLevel))
            .expect("flow-level contention runs");
        assert_eq!(uniform, flow, "k={k}: monolithic routes are identical");
    }
}

/// Flow-level contention is defined per execution stream: the
/// disciplines that blur stream identity (coalesced decode ticks,
/// pressure-weighted shares) are rejected at config time, not deep in
/// the event loop.
#[test]
fn flow_level_rejects_incompatible_disciplines() {
    let base = cfg(&[1000.0], 1, ServePolicy::Fifo, 2).with_contention(ContentionKind::FlowLevel);
    base.validate()
        .expect("flow-level per-stream uniform is valid");
    let err = base
        .clone()
        .with_batching(BatchPolicy::continuous(2))
        .validate()
        .expect_err("continuous batching must be rejected");
    assert!(err.to_string().contains("per-stream"), "got: {err}");
    let err = base
        .with_sharing(SharePolicy::SloPressure)
        .validate()
        .expect_err("slo-pressure sharing must be rejected");
    assert!(err.to_string().contains("uniform sharing"), "got: {err}");
}

/// A corrupt platform (here: a zero-rate HBM stack, which
/// `PlatformConfig::validate` does not inspect) must fail flow-level
/// validation at config time with a wrapped `CoreError` — instead of
/// producing a degenerate share and panicking mid-simulation.
#[test]
fn flow_level_rejects_corrupt_platform_at_config_time() {
    let mut c = cfg(&[1000.0], 1, ServePolicy::Fifo, 2).with_contention(ContentionKind::FlowLevel);
    c.platform_cfg.hbm.channel_rate_gbps = 0.0;
    let err = c
        .validate()
        .expect_err("zero-bandwidth HBM must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("hbm") && msg.contains("not positive"),
        "config-time rejection should name the bad link: {msg}"
    );
    // The entry point surfaces the same error rather than panicking.
    assert!(simulate(&c).is_err());
}

/// Platform values that panicked inside a run before
/// `PlatformConfig::validate` checked them, each with the field its
/// rejection names.
fn bad_platform_values() -> Vec<(&'static str, PlatformConfig)> {
    let with = |field: &'static str, edit: fn(&mut PlatformConfig)| {
        let mut c = PlatformConfig::paper_table1();
        edit(&mut c);
        (field, c)
    };
    vec![
        with("hbm.channel_rate_gbps", |c| {
            c.hbm.channel_rate_gbps = f64::NAN
        }),
        with("hbm.channel_rate_gbps", |c| c.hbm.channel_rate_gbps = 0.0),
        with("hbm.channels", |c| c.hbm.channels = 0),
        with("calibration.mac_rate_ghz", |c| {
            c.calibration.mac_rate_ghz = 0.0
        }),
        with("calibration.comm_overlap_margin", |c| {
            c.calibration.comm_overlap_margin = 0.0
        }),
        with("calibration.elec_packet_bits", |c| {
            c.calibration.elec_packet_bits = 0
        }),
        with("phnet.rate_gbps", |c| c.phnet.rate_gbps = 0.0),
        with("phnet.wavelengths", |c| c.phnet.wavelengths = 0),
        with("phnet.epoch_us", |c| c.phnet.epoch_us = 0),
        with("calibration.mono_mem_gbps", |c| {
            c.calibration.mono_mem_gbps = f64::INFINITY
        }),
        with("calibration.hop_mm_2p5d", |c| {
            c.calibration.hop_mm_2p5d = f64::NAN
        }),
    ]
}

/// Values that validate but leave no photonic design, with what their
/// SiPh error says: the smallest wavelength count whose 0.8 nm grid
/// reaches 0 nm, and the smallest gateway count whose laser requirement
/// overflows.
fn infeasible_siph_values() -> Vec<(&'static str, PlatformConfig)> {
    let mut off_band = PlatformConfig::paper_table1();
    off_band.phnet.wavelengths = 3_876;
    let mut overflow = PlatformConfig::paper_table1();
    overflow.phnet.gateways_per_chiplet = 3_845;
    vec![("reach below 0 nm", off_band), ("exceeds limit", overflow)]
}

/// Every bad platform value is a `BadConfig` naming its field, from
/// `Runner::run` on every platform and from `build_profiles`, never a
/// panic. Values that validate but leave no photonic design are SiPh
/// infeasibility errors, not panics either.
#[test]
fn bad_platform_values_are_errors_not_panics() {
    const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];
    for (field, platform_cfg) in bad_platform_values() {
        let runner = Runner::new(platform_cfg.clone());
        for platform in PLATFORMS {
            let err = runner
                .run(&platform, &zoo::lenet5())
                .expect_err("a bad platform value must be rejected");
            assert!(err.to_string().contains(field), "{platform}: {err}");
            let serve = ServeConfig::new(platform_cfg.clone(), platform, lenet_mix(&[1000.0]));
            let err = build_profiles(&serve).expect_err("a bad platform value must be rejected");
            assert!(err.to_string().contains(field), "{platform}: {err}");
        }
    }
    for (reason, platform_cfg) in infeasible_siph_values() {
        let err = Runner::new(platform_cfg.clone())
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect_err("no photonic design closes");
        assert!(err.to_string().contains(reason), "{err}");
        let serve = ServeConfig::new(platform_cfg, Platform::Siph2p5D, lenet_mix(&[1000.0]));
        let err = build_profiles(&serve).expect_err("no photonic design closes");
        assert!(err.to_string().contains(reason), "{err}");
    }
}

/// Seeded generator determinism: the closed-loop token generator is a
/// pure function of its configuration — identical seeds give
/// bit-identical reports (TTFT and per-token percentiles included),
/// different seeds move the arrivals. One deterministic case (not a
/// proptest loop) because the stage profiles simulate GPT-2.
#[test]
fn seeded_generator_reports_are_deterministic() {
    let gen = || {
        ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            3,
            1,
            Precision::int8(),
            30.0,
            1_000.0,
        )
    };
    let base = ServeConfig::new(
        PlatformConfig::paper_table1(),
        Platform::Siph2p5D,
        vec![gen()],
    )
    .with_duration_s(0.2)
    .with_max_concurrency(2);
    let profiles = build_profiles(&base).expect("generator profiles build");
    let a = simulate_with_profiles(&base, &profiles).expect("generator mix simulates");
    let b = simulate_with_profiles(&base, &profiles).expect("generator mix repeats");
    assert_eq!(a, b, "identical seeds must give bit-identical reports");
    assert_eq!(a, simulate(&base).expect("fresh profile build agrees"));
    assert!(a.models[0].tokens > 0, "tokens must flow at light load");
    let c = simulate_with_profiles(&base.clone().with_seed(7), &profiles).expect("reseeded");
    assert_ne!(a, c, "a different seed should move the Poisson arrivals");
}

/// The bit-identity property, but across the exact mix the serving
/// example ships (ResNet-50 + BERT-Base seq 128 batch 4) on both 2.5D
/// platforms — one deterministic case, not a proptest loop, because the
/// profile build simulates BERT.
#[test]
fn example_mix_reports_are_deterministic_and_siph_sustains_more() {
    let mix = || {
        vec![
            ServedModel::cnn(&zoo::resnet50(), Precision::int8(), 60.0, 10.0),
            ServedModel::transformer(
                &lumos_xformer::zoo::bert_base(),
                128,
                4,
                Precision::int8(),
                10.0,
                50.0,
            ),
        ]
    };
    let base = |platform| {
        ServeConfig::new(PlatformConfig::paper_table1(), platform, mix())
            .with_duration_s(0.5)
            .with_seed(2026)
    };
    for platform in [Platform::Siph2p5D, Platform::Elec2p5D] {
        let a = simulate(&base(platform)).expect("example mix simulates");
        let b = simulate(&base(platform)).expect("example mix repeats");
        assert_eq!(a, b, "{platform}: reports must be bit-identical");
    }
    // The photonic platform keeps up at a load the electrical mesh
    // cannot sustain (the example's saturation-curve claim).
    let siph = simulate(&base(Platform::Siph2p5D).with_load_scale(2.0)).expect("siph load 2");
    let elec = simulate(&base(Platform::Elec2p5D).with_load_scale(2.0)).expect("elec load 2");
    assert!(siph.sustained(), "SiPh should sustain 2x the base mix");
    assert!(!elec.sustained(), "Elec should saturate at 2x the base mix");
    assert!(siph.aggregate_throughput_rps > elec.aggregate_throughput_rps);
}
