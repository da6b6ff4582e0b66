//! Invariants of the continuous-batching scheduler:
//!
//! * `max_batch = 1` reproduces the per-stream report **bit-for-bit**
//!   (policy label and tick stats aside) across seeds, policies, and
//!   sharing disciplines — per-stream decode is the cap-1 case of the
//!   same event loop, so this pins that profiles built for either
//!   policy schedule identically;
//! * token emission is conserved across batching policies at light
//!   load (batching changes *when* tokens come out, not *how many*);
//! * the batch scheduler is deterministic in the seed;
//! * tick occupancy respects the configured cap;
//! * SLO-pressure batching of a mixed generator + CNN load is pinned
//!   against committed report goldens (stream order enters the
//!   pressure-weight sums, so a scheduler that mis-orders its streams
//!   drifts them), both from shared profiles and end to end through
//!   `simulate`;
//! * and the acceptance headline: at the same saturating offered load,
//!   a GPT-2-small generator mix sustains strictly more tokens/sec
//!   with continuous batching than per-stream decode on **both** 2.5D
//!   platforms.
//!
//! GPT-2-small profiles are built once per (platform, cap) and shared
//! across every proptest case, so the suite stays fast.

use std::hash::Hasher;
use std::sync::OnceLock;

use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::Precision;
use lumos_dse::{BatchPolicy, ServePolicy, SharePolicy, StableHasher};
use lumos_serve::{
    build_profiles, simulate, simulate_with_profiles, ServeConfig, ServeReport, ServedModel,
    ServiceProfiles,
};
use proptest::prelude::*;

const MAX_CONCURRENCY: usize = 3;

fn gpt2_mix(rate: f64) -> Vec<ServedModel> {
    vec![ServedModel::generator(
        &lumos_xformer::zoo::gpt2_small(),
        32,
        3,
        1,
        Precision::int8(),
        rate,
        1_000.0,
    )]
}

fn base_cfg(batching: BatchPolicy) -> ServeConfig {
    ServeConfig::new(
        PlatformConfig::paper_table1(),
        Platform::Siph2p5D,
        gpt2_mix(100.0),
    )
    .with_duration_s(0.05)
    .with_max_concurrency(MAX_CONCURRENCY)
    .with_batching(batching)
}

/// Profiles built once per batching policy and shared across cases
/// (they depend on the platform, mix, residency cap, and batch cap —
/// not on seed, policy, sharing, or load).
fn profiles_for(batching: BatchPolicy) -> &'static ServiceProfiles {
    static PER_STREAM: OnceLock<ServiceProfiles> = OnceLock::new();
    static SINGLETON: OnceLock<ServiceProfiles> = OnceLock::new();
    static BATCHED: OnceLock<ServiceProfiles> = OnceLock::new();
    let cell = match batching {
        BatchPolicy::PerStream => &PER_STREAM,
        BatchPolicy::Continuous { max_batch: 1 } => &SINGLETON,
        BatchPolicy::Continuous { max_batch: 3 } => &BATCHED,
        other => panic!("no shared profiles for {other:?}"),
    };
    cell.get_or_init(|| build_profiles(&base_cfg(batching)).expect("gpt2 profiles build"))
}

fn policy_from(idx: u8) -> ServePolicy {
    ServePolicy::all()[idx as usize % 4]
}

/// Strips the fields that legitimately differ between a continuous
/// run and a per-stream run of the same traffic (the policy label and
/// the tick stats), leaving everything that must coincide.
fn normalized(mut r: ServeReport, like: &ServeReport) -> ServeReport {
    r.batching = like.batching;
    r.batch = like.batch;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `max_batch = 1` ≡ per-stream, bit for bit, across seeds,
    /// admission policies, sharing disciplines, and offered loads:
    /// per-stream-built and `continuous(1)`-built profiles schedule
    /// identically.
    #[test]
    fn singleton_batching_is_per_stream_bitwise(
        seed in 0u64..1_000_000,
        policy_idx in 0u8..4,
        slo_pressure in proptest::bool::ANY,
        load in 0.2f64..3.0,
    ) {
        let sharing = if slo_pressure { SharePolicy::SloPressure } else { SharePolicy::Uniform };
        let cfg = |batching| base_cfg(batching)
            .with_seed(seed)
            .with_policy(policy_from(policy_idx))
            .with_sharing(sharing)
            .with_load_scale(load);
        let per_stream = simulate_with_profiles(
            &cfg(BatchPolicy::PerStream),
            profiles_for(BatchPolicy::PerStream),
        ).expect("per-stream simulates");
        let singleton = simulate_with_profiles(
            &cfg(BatchPolicy::continuous(1)),
            profiles_for(BatchPolicy::continuous(1)),
        ).expect("continuous mb=1 simulates");
        // Derived PartialEq compares every f64 field; reports are
        // NaN-free by construction so equality means bit-identical.
        prop_assert_eq!(normalized(singleton, &per_stream), per_stream);
    }

    /// The batch scheduler is a pure function of the configuration:
    /// identical seeds give bit-identical reports, and occupancy never
    /// exceeds the configured cap.
    #[test]
    fn batch_scheduler_is_seeded_and_capped(
        seed in 0u64..1_000_000,
        policy_idx in 0u8..4,
        load in 0.5f64..4.0,
    ) {
        let cfg = base_cfg(BatchPolicy::continuous(3))
            .with_seed(seed)
            .with_policy(policy_from(policy_idx))
            .with_load_scale(load);
        let profiles = profiles_for(BatchPolicy::continuous(3));
        let a = simulate_with_profiles(&cfg, profiles).expect("batched simulates");
        let b = simulate_with_profiles(&cfg, profiles).expect("batched repeats");
        prop_assert_eq!(&a, &b);
        if a.batch.ticks > 0 {
            prop_assert!(a.batch.max_occupancy <= 3.0, "{:?}", a.batch);
            prop_assert!(a.batch.mean_occupancy >= 1.0, "{:?}", a.batch);
            prop_assert!(a.batch.p50_occupancy <= a.batch.p95_occupancy);
            prop_assert!(a.batch.p95_occupancy <= a.batch.max_occupancy);
        }
        // Censoring counts conserve arrivals in batched mode too.
        for m in &a.models {
            prop_assert_eq!(m.arrived, m.served + m.in_flight + m.queued_at_horizon);
        }
    }
}

/// At light load every generation completes either way, so batching
/// changes *when* tokens are emitted, never *how many*: served counts
/// and total token counts agree exactly across all three policies.
#[test]
fn light_load_token_emission_is_conserved_across_policies() {
    let reports: Vec<ServeReport> = [
        BatchPolicy::PerStream,
        BatchPolicy::continuous(1),
        BatchPolicy::continuous(3),
    ]
    .into_iter()
    .map(|batching| {
        let cfg = base_cfg(batching).with_load_scale(0.3).with_duration_s(0.2);
        simulate_with_profiles(&cfg, profiles_for(batching)).expect("light load simulates")
    })
    .collect();
    let m = &reports[0].models[0];
    assert!(m.served >= 3, "light load must serve: {m:?}");
    assert_eq!(
        m.in_flight + m.queued_at_horizon,
        0,
        "test wants an uncensored horizon; tune load/duration: {m:?}"
    );
    // Every completed generation emits exactly its 3 decode tokens.
    assert_eq!(m.tokens, 3 * m.served);
    for r in &reports[1..] {
        assert_eq!(r.models[0].served, m.served, "{:?}", r.batching);
        assert_eq!(r.models[0].tokens, m.tokens, "{:?}", r.batching);
        assert_eq!(r.models[0].arrived, m.arrived, "{:?}", r.batching);
    }
}

/// The acceptance headline: the same saturating GPT-2-small offered
/// load sustains strictly more tokens/sec under continuous batching
/// than per-stream decode — on the photonic *and* the electrical 2.5D
/// platform. On SiPh the decode step is bandwidth-dominated and a
/// batched tick streams the weights once for every coalesced
/// generation; on Elec the small GEMV transfers are latency-bound, and
/// the win comes from a full group occupying a single
/// processor-sharing slice instead of one per generation.
#[test]
fn continuous_batching_sustains_more_tokens_per_second_on_both_platforms() {
    // 12-token generations make decode dominate the per-request work;
    // offered rates saturate each platform's per-stream capacity at
    // 16-way residency (decode steps run ~0.7ms on SiPh, ~49ms on
    // Elec).
    let mix = |rate| {
        vec![ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            12,
            1,
            Precision::int8(),
            rate,
            1_000.0,
        )]
    };
    for (platform, rate, duration) in [
        (Platform::Siph2p5D, 400.0, 0.25),
        (Platform::Elec2p5D, 30.0, 1.5),
    ] {
        let cfg = |batching| {
            ServeConfig::new(PlatformConfig::paper_table1(), platform, mix(rate))
                .with_duration_s(duration)
                .with_max_concurrency(16)
                .with_batching(batching)
        };
        let per_stream = simulate_with_profiles(
            &cfg(BatchPolicy::PerStream),
            &build_profiles(&cfg(BatchPolicy::PerStream)).expect("per-stream profiles"),
        )
        .expect("per-stream simulates");
        let batched = simulate_with_profiles(
            &cfg(BatchPolicy::continuous(4)),
            &build_profiles(&cfg(BatchPolicy::continuous(4))).expect("batched profiles"),
        )
        .expect("batched simulates");
        assert!(
            batched.batch.max_occupancy <= 4.0,
            "{platform}: occupancy must respect max_batch: {:?}",
            batched.batch
        );
        assert!(
            !per_stream.sustained(),
            "{platform}: the offered load must saturate per-stream decode"
        );
        assert!(
            batched.batch.max_occupancy > 1.0,
            "{platform}: ticks must actually coalesce: {:?}",
            batched.batch
        );
        assert!(
            batched.aggregate_tokens_per_s > per_stream.aggregate_tokens_per_s,
            "{platform}: batched {} tok/s must beat per-stream {} tok/s",
            batched.aggregate_tokens_per_s,
            per_stream.aggregate_tokens_per_s
        );
    }
}

/// `(seed, digest of the report's JSON)` for [`slo_batching_cfg`],
/// recorded while per-stream decode and continuous batching still ran
/// in two separate event loops.
const SLO_BATCHING_GOLDENS: [(u64, u64); 6] = [
    (1, 0x40f4784c0beed8c4),
    (2, 0x68c14eb991310920),
    (3, 0x0c58463d46d2a878),
    (4, 0xaa9fc19d9414b2d8),
    (5, 0x043a1fe40d5e1802),
    (6, 0x676468e56e969fd7),
];

/// A GPT-2-small generator sharing SiPh with a tight-SLO LeNet5 stream
/// under SLO-pressure weights, at a load that batches (`1.0 + 0.4 ·
/// seed`): groups form, evict and absorb waiters while pressure
/// weights reorder the shares.
fn slo_batching_cfg(seed: u64) -> ServeConfig {
    let mix = vec![
        ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            6,
            1,
            Precision::int8(),
            500.0,
            1_000.0,
        ),
        ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 4_000.0, 5.0),
    ];
    ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, mix)
        .with_duration_s(0.1)
        .with_max_concurrency(8)
        .with_policy(ServePolicy::Fifo)
        .with_sharing(SharePolicy::SloPressure)
        .with_batching(BatchPolicy::continuous(3))
        .with_seed(seed)
        .with_load_scale(1.0 + 0.4 * seed as f64)
}

#[test]
fn slo_pressure_batching_matches_goldens() {
    let profiles = build_profiles(&slo_batching_cfg(1)).expect("mix profiles build");
    let mut drifted = Vec::new();
    for (seed, golden) in SLO_BATCHING_GOLDENS {
        let report =
            simulate_with_profiles(&slo_batching_cfg(seed), &profiles).expect("mix simulates");
        assert!(
            report.batch.max_occupancy > 1.0,
            "seed {seed}: ticks must coalesce: {:?}",
            report.batch
        );
        let mut h = StableHasher::new();
        h.write_str(&report.to_json());
        let got = h.finish();
        if got != golden {
            drifted.push(format!("({seed}, {got:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from their goldens: {}",
        drifted.join(", ")
    );
}

/// Digest of the report's JSON for [`lenet_gpt2_cfg`], recorded while
/// the retired `lumos-bench --json` perf snapshot still simulated it.
const LENET_GPT2_GOLDEN: u64 = 0x663f7439d30d0520;

/// A tight-SLO LeNet5 stream beside a short GPT-2-small generator on
/// SiPh, batched under `continuous(3)` with SLO-pressure weights, and
/// run through `simulate` (which builds its own profiles).
fn lenet_gpt2_cfg() -> ServeConfig {
    let mix = vec![
        ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 600.0, 5.0),
        ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            4,
            1,
            Precision::int8(),
            120.0,
            1_000.0,
        ),
    ];
    ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, mix)
        .with_duration_s(0.05)
        .with_seed(7)
        .with_max_concurrency(4)
        .with_batching(BatchPolicy::continuous(3))
        .with_sharing(SharePolicy::SloPressure)
}

#[test]
fn lenet_gpt2_slo_batching_matches_golden() {
    let report = simulate(&lenet_gpt2_cfg()).expect("mix simulates");
    let mut h = StableHasher::new();
    h.write_str(&report.to_json());
    let got = h.finish();
    assert_eq!(
        got, LENET_GPT2_GOLDEN,
        "report drifted from its golden: {got:#018x}"
    );
}
