//! Whole-run reports of the runner, pinned against committed goldens.
//!
//! Every report of a grid — the five Table 2 CNNs and four GPT-2-small
//! streams (prefill at prompt 32, decode steps 0 and 11, and decode
//! step 0 at batch 4), each under seven contention models — is folded
//! into one `StableHasher` digest per configuration × platform, over
//! every `LayerReport` field (times by bits), the energy breakdown and
//! `bits_moved`. Three configurations cover what the runner
//! distinguishes: Table 1, a pinned placement policy, and PROWAVES
//! wavelength scaling on the photonic interposer. Digests of the
//! Chrome export of a traced GPT-2 decode step and of the Prometheus
//! export of a metered one pin what the runner emits besides its
//! report.
//!
//! A drift message prints every new digest; paste them in only when a
//! change of the simulated numbers is intended.

use std::hash::Hasher;

use lumos_core::contention::ContentionModel;
use lumos_core::dse::StableHasher;
use lumos_core::flow::{max_min_shares, FlowTopology};
use lumos_core::mapper::PlacementPolicy;
use lumos_core::{MacClass, Platform, PlatformConfig, RunReport, Runner};
use lumos_dnn::workload::{extract_workloads, LayerWorkload};
use lumos_metrics::{export_prometheus, MetricsRegistry};
use lumos_phnet::controller::ReconfigPolicy;
use lumos_trace::{export_chrome_trace, Tracer};
use lumos_xformer::{extract_decode_workloads, extract_transformer_workloads};

const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];

/// GPT-2-small prompt length of every transformer stream.
const PROMPT: u32 = 32;

/// The three configurations: name, platform configuration, placement.
fn configs() -> Vec<(&'static str, PlatformConfig, PlacementPolicy)> {
    let table1 = PlatformConfig::paper_table1();
    let mut prowaves = table1.clone();
    prowaves.phnet.policy = ReconfigPolicy::ProwavesWavelengths;
    let pinned = PlacementPolicy::unrestricted()
        .pin(MacClass::Conv5, vec![3])
        .pin(MacClass::Dense100, vec![0]);
    vec![
        ("table1", table1.clone(), PlacementPolicy::unrestricted()),
        ("pinned", table1, pinned),
        ("prowaves", prowaves, PlacementPolicy::unrestricted()),
    ]
}

/// GPT-2-small decode step `step` of a prompt-32 generation at `batch`.
fn gpt2_decode(cfg: &PlatformConfig, step: u32, batch: u32) -> Vec<LayerWorkload> {
    let gpt2 = lumos_xformer::zoo::gpt2_small();
    extract_decode_workloads(&gpt2, PROMPT + step, batch, cfg.precision)
}

/// The streams under test, in digest order.
fn streams(cfg: &PlatformConfig) -> Vec<(String, Vec<LayerWorkload>)> {
    let gpt2 = lumos_xformer::zoo::gpt2_small();
    let mut streams: Vec<(String, Vec<LayerWorkload>)> = lumos_dnn::zoo::table2_models()
        .iter()
        .map(|m| (m.name().to_owned(), extract_workloads(m, cfg.precision)))
        .collect();
    streams.push((
        "gpt2-prefill".into(),
        extract_transformer_workloads(&gpt2, PROMPT, 1, cfg.precision),
    ));
    streams.push(("gpt2-decode0".into(), gpt2_decode(cfg, 0, 1)));
    streams.push(("gpt2-decode11".into(), gpt2_decode(cfg, 11, 1)));
    streams.push(("gpt2-decode0-b4".into(), gpt2_decode(cfg, 0, 4)));
    streams
}

/// Uniform shares, skewed per-class and bandwidth shares, and a
/// flow-level model (max-min share plus bottleneck attribution) of
/// two streams whose routes overlap on `platform` — the contention
/// models of `plan_execute.rs`.
fn contentions(cfg: &PlatformConfig, platform: Platform) -> Vec<ContentionModel> {
    let topo = FlowTopology::for_platform(cfg, platform).expect("platform topology");
    let all: Vec<usize> = (0..cfg.compute_chiplets()).collect();
    let routes = [topo.route_for_chiplets(&[3]), topo.route_for_chiplets(&all)];
    let alloc = max_min_shares(&topo, &routes).expect("two flows solve");
    vec![
        ContentionModel::uncontended(),
        ContentionModel::of_resident_streams(3),
        ContentionModel::uniform(0.5).with_bandwidth_share(0.2),
        ContentionModel::uniform(1.0 / 7.0).with_bandwidth_share(1.0 / 2.0),
        ContentionModel::uncontended().with_unit_share(MacClass::Conv3, 0.25),
        alloc.contention_for(&topo, 0, 0.5),
        alloc.contention_for(&topo, 1, 0.5),
    ]
}

/// Folds every field of `r` into `h`, floats by bits.
fn hash_report(h: &mut StableHasher, r: &RunReport) {
    h.write_str(&r.model);
    h.write_u64(r.total_latency.as_ps());
    h.write_u64(r.bits_moved);
    for e in [
        r.energy.mac_j,
        r.energy.network_j,
        r.energy.memory_j,
        r.energy.digital_j,
    ] {
        h.write_f64(e);
    }
    for l in &r.layers {
        h.write_str(&l.name);
        h.write_u64(l.class.index() as u64);
        h.write_u64(l.start.as_ps());
        h.write_u64(l.finish.as_ps());
        h.write_u64(l.bits);
        for t in [l.compute_s, l.comm_in_s, l.comm_out_s] {
            h.write_f64(t);
        }
    }
}

/// The digest of every stream × contention report on `platform`.
fn grid_digest(cfg: &PlatformConfig, policy: &PlacementPolicy, platform: Platform) -> u64 {
    let runner = Runner::new(cfg.clone()).with_placement(policy.clone());
    let contentions = contentions(cfg, platform);
    let mut h = StableHasher::new();
    for (name, work) in streams(cfg) {
        let plan = runner.plan(&platform, &name, &work).expect("stream plans");
        for c in &contentions {
            hash_report(&mut h, &plan.execute(c).expect("stream executes"));
        }
    }
    h.finish()
}

/// `(config, platform, digest)`, recorded before a simulated layer's
/// timing could be reused for a later layer of the same shape.
const REPORT_GOLDENS: [(&str, Platform, u64); 9] = [
    ("table1", Platform::Siph2p5D, 0xe558_b798_2782_948f),
    ("table1", Platform::Elec2p5D, 0xb78a_768f_d46d_c5a3),
    ("table1", Platform::Monolithic, 0x0010_d5c7_2bb4_d7f1),
    ("pinned", Platform::Siph2p5D, 0x2ae1_1ab0_be2b_9252),
    ("pinned", Platform::Elec2p5D, 0xed22_b115_c700_c0e3),
    ("pinned", Platform::Monolithic, 0x3624_e8fb_b3b8_8b40),
    ("prowaves", Platform::Siph2p5D, 0x52c6_b836_5e33_bf23),
    ("prowaves", Platform::Elec2p5D, 0xb78a_768f_d46d_c5a3),
    ("prowaves", Platform::Monolithic, 0x0010_d5c7_2bb4_d7f1),
];

#[test]
fn reports_match_goldens() {
    let mut drifted = Vec::new();
    for (name, cfg, policy) in configs() {
        for platform in PLATFORMS {
            let golden = REPORT_GOLDENS
                .iter()
                .find(|g| (g.0, g.1) == (name, platform))
                .expect("every config × platform has a golden")
                .2;
            let got = grid_digest(&cfg, &policy, platform);
            if got != golden {
                drifted.push(format!("(\"{name}\", Platform::{platform:?}, {got:#018x})"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "runner reports drifted from their goldens: {}",
        drifted.join(", ")
    );
}

/// `(platform, Chrome export digest, Prometheus export digest)` of
/// GPT-2 decode step 0 under Table 1, recorded with the report goldens.
const EXPORT_GOLDENS: [(Platform, u64, u64); 3] = [
    (
        Platform::Siph2p5D,
        0xda2a_1387_933b_bb2d,
        0x49b8_4ba1_1612_8f84,
    ),
    (
        Platform::Elec2p5D,
        0xa15d_bff3_d3aa_8246,
        0x0c59_7f83_22a0_cbea,
    ),
    (
        Platform::Monolithic,
        0xd6ad_7f17_d372_7931,
        0x2a2d_841b_74de_b84a,
    ),
];

#[test]
fn exports_match_goldens() {
    let digest = |text: String| {
        let mut h = StableHasher::new();
        h.write_str(&text);
        h.finish()
    };
    let cfg = PlatformConfig::paper_table1();
    let work = gpt2_decode(&cfg, 0, 1);
    let mut drifted = Vec::new();
    for (platform, chrome_golden, prom_golden) in EXPORT_GOLDENS {
        let traced = Runner::new(cfg.clone()).with_tracer(Tracer::ring(1 << 14));
        traced
            .run_workloads(&platform, "gpt2-decode0", &work)
            .expect("traced run");
        let chrome = digest(export_chrome_trace(&traced.tracer().drain()));
        // 1 µs windows resolve a sub-millisecond decode step.
        let metered =
            Runner::new(cfg.clone()).with_metrics(MetricsRegistry::windowed(1_000_000, 4096));
        metered
            .run_workloads(&platform, "gpt2-decode0", &work)
            .expect("metered run");
        let prom = digest(export_prometheus(&metered.metrics().snapshot()));
        if (chrome, prom) != (chrome_golden, prom_golden) {
            drifted.push(format!(
                "(Platform::{platform:?}, {chrome:#018x}, {prom:#018x})"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "runner exports drifted from their goldens: {}",
        drifted.join(", ")
    );
}
