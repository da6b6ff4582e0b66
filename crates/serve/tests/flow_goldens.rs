//! Flow-level serving pinned against committed goldens, on a mix whose
//! max-min shares fall between the tabulated `1/k` points.
//!
//! Whole-model CNN mixes on the electrical mesh always share a
//! 256 Gb/s mesh link, so every share there is exactly `1/k` and the
//! event loop only ever reads tabulated flow-plane points. This mix
//! serves three single layers whose routes overlap only in part —
//! LeNet5 layer 0 (Conv5, chiplets 3–4), LeNet5 layer 3 (Dense100,
//! chiplets 0–1) and ResNet-50 layer 0 (Conv7, chiplet 2) — so
//! water-filling hands out shares between the tabulated points and the
//! flow planes are interpolated. Each report is pinned by a
//! `StableHasher` digest of its JSON.

use std::hash::Hasher;

use lumos_core::flow::{max_min_shares, FlowRoute};
use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::{extract_workloads, Precision};
use lumos_dnn::zoo;
use lumos_dse::{ContentionKind, StableHasher};
use lumos_serve::{build_profiles, simulate_with_profiles, ServeConfig, ServeReport, ServedModel};

/// `(seed, max_concurrency, digest of the report's JSON)`, recorded
/// while the event loop still water-filled at every event, so they pin
/// the per-mix share memo against that direct computation.
const GOLDENS: [(u64, usize, u64); 9] = [
    (1, 3, 0x6de87151432a0adb),
    (2, 3, 0x1bb914180ee9c133),
    (3, 3, 0x410670f0ec661fb9),
    (1, 8, 0x585f8213f0bda645),
    (2, 8, 0x50da8512cc12edae),
    (3, 8, 0x7a27f7c0880f88db),
    (1, 16, 0xaf966369bdc209d5),
    (2, 16, 0x0e5a52d3e47478f0),
    (3, 16, 0xd829cdd08b563b77),
];

fn config(max_concurrency: usize) -> ServeConfig {
    let lenet = extract_workloads(&zoo::lenet5(), Precision::int8());
    let resnet = extract_workloads(&zoo::resnet50(), Precision::int8());
    let mix = vec![
        ServedModel::from_workloads("lenet5-l0", vec![lenet[0].clone()], 150_000.0, 1.0),
        ServedModel::from_workloads("lenet5-l3", vec![lenet[3].clone()], 100_000.0, 1.0),
        ServedModel::from_workloads("resnet50-l0", vec![resnet[0].clone()], 1_200.0, 5.0),
    ];
    ServeConfig::new(PlatformConfig::paper_table1(), Platform::Elec2p5D, mix)
        .with_duration_s(0.2)
        .with_max_concurrency(max_concurrency)
        .with_contention(ContentionKind::FlowLevel)
}

fn digest(report: &ServeReport) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&report.to_json());
    h.finish()
}

#[test]
fn flow_level_reports_match_goldens() {
    let mut drifted = Vec::new();
    for k in [3, 8, 16] {
        let flow = config(k);
        let uniform = flow.clone().with_contention(ContentionKind::Uniform);
        let flow_profiles = build_profiles(&flow).expect("flow-level profiles");
        let uniform_profiles = build_profiles(&uniform).expect("uniform profiles");
        for &(seed, _, golden) in GOLDENS.iter().filter(|g| g.1 == k) {
            let report = simulate_with_profiles(&flow.clone().with_seed(seed), &flow_profiles)
                .expect("flow-level run");
            let baseline =
                simulate_with_profiles(&uniform.clone().with_seed(seed), &uniform_profiles)
                    .expect("uniform run");
            assert_ne!(
                report.to_json(),
                baseline.to_json(),
                "seed {seed}, K = {k}: flow-level report equals the uniform one"
            );
            let got = digest(&report);
            if got != golden {
                drifted.push(format!("({seed}, {k}, {got:#018x})"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from their goldens: {}",
        drifted.join(", ")
    );
}

#[test]
fn mix_water_fills_between_tabulated_shares() {
    let profiles = build_profiles(&config(16)).expect("flow-level profiles");
    let flow = profiles.flow.expect("flow model");
    // Three LeNet5 layer-0 streams, two layer-3 streams, one ResNet-50
    // layer-0 stream: the ResNet-50 stream's share is no `1/j`.
    let routes: Vec<FlowRoute> = [3, 2, 1]
        .iter()
        .zip(&flow.routes)
        .flat_map(|(&c, route)| std::iter::repeat_n(route.clone(), c))
        .collect();
    let alloc = max_min_shares(&flow.topology, &routes).expect("solves");
    let off_grid = alloc.share(5);
    assert!(
        (1..=64).all(|j| off_grid != 1.0 / j as f64),
        "share {off_grid} is a tabulated point"
    );
}
