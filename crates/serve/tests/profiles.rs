//! `build_profiles` against a reference tabulation.
//!
//! The reference below is the straightforward algorithm: one
//! `Runner::run_workloads_scaled` call per contention cell, every stage
//! placed again for its unit-seconds and routes, all on one thread. The
//! library plans each stream once and tabulates streams in parallel;
//! every field of the resulting `ServiceProfiles` must agree with the
//! reference bit for bit — per-stream, continuous-batching and
//! flow-level profiles on all three platforms.

use lumos_core::contention::ContentionModel;
use lumos_core::flow::FlowTopology;
use lumos_core::mac::MacUnit;
use lumos_core::mapper::place;
use lumos_core::{MacClass, Platform, PlatformConfig, Runner};
use lumos_dnn::workload::{KernelClass, LayerWorkload, Precision};
use lumos_dse::{BatchPolicy, ContentionKind};
use lumos_phnet::controller::ReconfigPolicy;
use lumos_serve::profile::FlowModel;
use lumos_serve::{build_profiles, ModelProfile, ServeConfig, ServedModel, ServiceProfiles};

const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];

/// The pre-split tabulation, cell by cell and in order.
fn reference_profiles(cfg: &ServeConfig) -> ServiceProfiles {
    let runner = Runner::new(cfg.platform_cfg.clone());
    let calib = &cfg.platform_cfg.calibration;
    let k_max = cfg.max_concurrency;
    let latency = |label: &str, work: &[_], c: &ContentionModel| {
        runner
            .run_workloads_scaled(&cfg.platform, label, work, c)
            .expect("reference cell runs")
            .total_latency
            .as_secs_f64()
    };
    let topology = (cfg.contention == ContentionKind::FlowLevel)
        .then(|| FlowTopology::for_platform(&cfg.platform_cfg, cfg.platform).expect("topology"));
    let mut routes = Vec::new();
    let mut models = Vec::new();
    for m in &cfg.models {
        let mut profile = ModelProfile {
            name: m.name.clone(),
            stages: Vec::new(),
            batched: Vec::new(),
            flow_stages: Vec::new(),
            energy_j: 0.0,
            bits: 0,
            class_unit_seconds: [0.0; 4],
        };
        let mut chiplets = Vec::new();
        for (si, stage) in m.stages().enumerate() {
            let label = if si == 0 {
                m.name.clone()
            } else {
                format!("{} [step {si}]", m.name)
            };
            let mut column = Vec::new();
            for k in 1..=k_max {
                let report = runner
                    .run_workloads_scaled(
                        &cfg.platform,
                        &label,
                        stage,
                        &ContentionModel::of_resident_streams(k),
                    )
                    .expect("reference cell runs");
                if k == 1 {
                    profile.energy_j += report.energy.total_j();
                    profile.bits += report.bits_moved;
                }
                column.push(report.total_latency.as_secs_f64());
            }
            if topology.is_some() {
                let plane = (1..=k_max)
                    .map(|k| {
                        (1..=k_max)
                            .map(|j| {
                                if j == k {
                                    return column[k - 1];
                                }
                                let c = ContentionModel::uniform(1.0 / k as f64)
                                    .with_bandwidth_share(1.0 / j as f64);
                                latency(&label, stage, &c)
                            })
                            .collect()
                    })
                    .collect();
                profile.flow_stages.push(plane);
            }
            profile.stages.push(column);
            for w in stage {
                let placement = place(&cfg.platform_cfg, w).expect("reference placement");
                for share in &placement.shares {
                    let unit = MacUnit::new(share.class, calib);
                    profile.class_unit_seconds[share.class.index()] +=
                        share.passes as f64 / unit.passes_per_second();
                }
                chiplets.extend(placement.chiplets.iter().copied());
            }
        }
        if let Some(topo) = &topology {
            routes.push(topo.route_for_chiplets(&chiplets));
        }
        if cfg.batching.is_continuous() && m.n_stages() > 1 {
            profile.batched.push(profile.stages[1..].to_vec());
            if m.generator_spec.is_some() {
                for b in 2..=cfg.effective_max_batch() {
                    let plane = (0..m.decode_steps.len())
                        .map(|step| {
                            let work = m.decode_step_at_batch(step, b as u32).expect("generator");
                            let label = format!("{} [step {step} x{b}]", m.name);
                            (1..=k_max - b + 1)
                                .map(|k| {
                                    latency(&label, &work, &ContentionModel::of_resident_streams(k))
                                })
                                .collect()
                        })
                        .collect();
                    profile.batched.push(plane);
                }
            }
        }
        models.push(profile);
    }
    let mut class_units = [0.0; 4];
    for class in MacClass::all() {
        let n = cfg.platform_cfg.class(class).total_units();
        class_units[class.index()] = if cfg.platform == Platform::Monolithic {
            calib.mono_units(n) as f64
        } else {
            n as f64
        };
    }
    ServiceProfiles {
        models,
        class_units,
        flow: topology.map(|topology| FlowModel { topology, routes }),
    }
}

fn bits_2d(t: &[Vec<f64>]) -> Vec<Vec<u64>> {
    t.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn bits_3d(t: &[Vec<Vec<f64>>]) -> Vec<Vec<Vec<u64>>> {
    t.iter().map(|p| bits_2d(p)).collect()
}

/// Asserts every field of `got` equals `want`, floats by bits.
fn assert_profiles_bitwise(got: &ServiceProfiles, want: &ServiceProfiles, what: &str) {
    assert_eq!(got.models.len(), want.models.len(), "{what}");
    for (g, w) in got.models.iter().zip(&want.models) {
        let what = format!("{what}, {}", w.name);
        assert_eq!(g.name, w.name, "{what}");
        assert_eq!(bits_2d(&g.stages), bits_2d(&w.stages), "{what}: stages");
        assert_eq!(bits_3d(&g.batched), bits_3d(&w.batched), "{what}: batched");
        assert_eq!(
            bits_3d(&g.flow_stages),
            bits_3d(&w.flow_stages),
            "{what}: flow_stages"
        );
        assert_eq!(g.energy_j.to_bits(), w.energy_j.to_bits(), "{what}: energy");
        assert_eq!(g.bits, w.bits, "{what}: bits");
        assert_eq!(
            g.class_unit_seconds.map(f64::to_bits),
            w.class_unit_seconds.map(f64::to_bits),
            "{what}: class unit-seconds"
        );
    }
    assert_eq!(
        got.class_units.map(f64::to_bits),
        want.class_units.map(f64::to_bits),
        "{what}: class units"
    );
    assert_eq!(got.flow, want.flow, "{what}: flow model");
    // Nothing escaped the field-by-field comparison.
    assert_eq!(got, want, "{what}");
}

fn gpt2(rate_rps: f64) -> ServedModel {
    ServedModel::generator(
        &lumos_xformer::zoo::gpt2_small(),
        16,
        3,
        1,
        Precision::int8(),
        rate_rps,
        1_000.0,
    )
}

fn lenet(rate_rps: f64) -> ServedModel {
    ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), rate_rps, 5.0)
}

/// Per-stream, continuous(4) and flow-level configurations on
/// `platform`; on the photonic interposer also Table 2's CNNs at
/// flow-level `K = 7` under each interposer policy. ReSiPI's active set
/// follows a layer's compute span, so within one plane column (one
/// bandwidth share) a shape can run on several sets.
fn configs(platform: Platform) -> Vec<(String, ServeConfig)> {
    let base = |models| {
        ServeConfig::new(PlatformConfig::paper_table1(), platform, models).with_max_concurrency(5)
    };
    let mut configs = vec![
        (
            "per-stream".to_owned(),
            base(vec![gpt2(50.0), lenet(500.0)]).with_batching(BatchPolicy::PerStream),
        ),
        (
            "continuous(4)".to_owned(),
            base(vec![gpt2(50.0)]).with_batching(BatchPolicy::continuous(4)),
        ),
        (
            "flow-level".to_owned(),
            base(vec![lenet(500.0), gpt2(50.0)])
                .with_max_concurrency(4)
                .with_contention(ContentionKind::FlowLevel),
        ),
    ];
    if platform == Platform::Siph2p5D {
        for policy in [
            ReconfigPolicy::ResipiGateways,
            ReconfigPolicy::ProwavesWavelengths,
            ReconfigPolicy::StaticFull,
            ReconfigPolicy::StaticMin,
        ] {
            let mut platform_cfg = PlatformConfig::paper_table1();
            platform_cfg.phnet.policy = policy;
            configs.push((
                format!("flow-level {policy:?}"),
                ServeConfig::new(platform_cfg, platform, table2_cnns())
                    .with_max_concurrency(7)
                    .with_contention(ContentionKind::FlowLevel),
            ));
        }
    }
    configs
}

#[test]
fn build_profiles_matches_reference_tabulation_bitwise() {
    for platform in PLATFORMS {
        for (name, cfg) in configs(platform) {
            let got = build_profiles(&cfg).expect("profiles build");
            let want = reference_profiles(&cfg);
            assert_profiles_bitwise(&got, &want, &format!("{platform:?} {name}"));
            // The configurations exercise the tables they claim to.
            let generator = || {
                got.models
                    .iter()
                    .find(|m| m.n_stages() > 1)
                    .expect("a generator in the mix")
            };
            match name.as_str() {
                "per-stream" => {
                    let gen = generator();
                    assert!(gen.batched.is_empty() && gen.flow_stages.is_empty());
                }
                "continuous(4)" => assert_eq!(generator().max_batch(), 4),
                "flow-level" => assert_eq!(generator().flow_depth(), 4),
                _ => assert!(got.models.iter().all(|m| m.flow_depth() == 7), "{name}"),
            }
        }
    }
}

#[test]
fn the_first_failing_stream_names_the_error() {
    // Two unplaceable layers (zero-sized kernels) in decode steps 1
    // and 2: every stream is tabulated in parallel, and the error
    // reported is the one of the earliest stream, as in a sequential
    // build.
    let broken = |name: &str| LayerWorkload {
        name: name.into(),
        class: KernelClass::Conv { k: 0 },
        dot_products: 1,
        dot_length: 1,
        window: 1,
        macs: 1,
        weight_bits: 8,
        input_bits: 8,
        output_bits: 8,
    };
    let good = lenet(1.0).workloads;
    let mut steps = vec![good.clone(); 3];
    steps[1].push(broken("broken_step1"));
    steps[2].push(broken("broken_step2"));
    let model = ServedModel::from_stages("broken", good, steps, 1.0, 5.0);
    let cfg = ServeConfig::new(
        PlatformConfig::paper_table1(),
        Platform::Elec2p5D,
        vec![model],
    )
    .with_max_concurrency(3);
    let err = build_profiles(&cfg).expect_err("unplaceable layer rejected");
    assert!(err.to_string().contains("broken_step1"), "{err}");
}

/// Table 2's CNNs (10 rps, 50 ms SLO).
fn table2_cnns() -> Vec<ServedModel> {
    lumos_dnn::zoo::table2_models()
        .iter()
        .map(|m| ServedModel::cnn(m, Precision::int8(), 10.0, 50.0))
        .collect()
}

/// Table 2's CNNs and a GPT-2-small generator (prompt 32, 12 tokens,
/// int8).
fn table2_and_gpt2() -> Vec<ServedModel> {
    let mut models = table2_cnns();
    models.push(ServedModel::generator(
        &lumos_xformer::zoo::gpt2_small(),
        32,
        12,
        1,
        Precision::int8(),
        10.0,
        1_000.0,
    ));
    models
}

/// Virtual residencies `v = 1/share` from 1 to `v_max` in steps of
/// 1/16.
fn residencies(v_max: usize) -> impl Iterator<Item = f64> {
    (0..=16 * (v_max - 1)).map(|i| 1.0 + i as f64 / 16.0)
}

#[test]
fn share_interpolation_error_stays_within_its_measured_bound() {
    // The worst relative error of `stage_service_at_share` against the
    // exact latency at that share (`RunPlan::latency`), in percent, per
    // platform: within the table (v <= K) and beyond it (K < v <= 2K,
    // proportional extrapolation from v = K). The measured worst cases,
    // rounded up:
    // - within: monolithic 0.18% (LeNet5, v = 1.5), Elec 0.07% (VGG16,
    //   v = 7.375), SiPh 25.8% (LeNet5, v = 1.9375: ReSiPI's
    //   provisioning steps at v = 2, where the exact curve jumps from
    //   5.44 µs at v = 1.9375 to 6.99 µs);
    // - beyond K = 4 / 16: monolithic 17.2% / 4.7%, Elec 80.8% / 50.5%
    //   (MobileNetV2, DenseNet-121), SiPh 60.9% / 36.8% (LeNet5):
    //   proportional extrapolation overestimates streams whose
    //   per-layer overheads do not dilate with the share.
    // A ratchet: a change may tighten these bounds, never loosen them.
    let bounds = [
        // (platform, within, beyond K = 4, beyond K = 16)
        (Platform::Monolithic, 0.19, 17.3, 4.8),
        (Platform::Elec2p5D, 0.07, 80.8, 50.5),
        (Platform::Siph2p5D, 25.9, 61.0, 36.9),
    ];
    let models = table2_and_gpt2();
    let cfg = PlatformConfig::paper_table1();
    let runner = Runner::new(cfg.clone());
    for (platform, within_bound, beyond_4, beyond_16) in bounds {
        // exact[m][s][i]: stage s of model m at the i-th residency.
        let exact: Vec<Vec<Vec<f64>>> = models
            .iter()
            .map(|m| {
                m.stages()
                    .map(|stage| {
                        let plan = runner.plan(&platform, &m.name, stage).expect("stage plans");
                        residencies(32)
                            .map(|v| {
                                let c = ContentionModel::uniform(1.0 / v);
                                plan.latency(&c).expect("exact cell").as_secs_f64()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for (k, beyond_bound) in [(4, beyond_4), (16, beyond_16)] {
            let serve =
                ServeConfig::new(cfg.clone(), platform, models.clone()).with_max_concurrency(k);
            let profiles = build_profiles(&serve).expect("profiles build");
            // (worst error in percent, where)
            let mut within = (0.0f64, String::new());
            let mut beyond = within.clone();
            for (profile, exact) in profiles.models.iter().zip(&exact) {
                for (s, exact) in exact.iter().enumerate() {
                    for (v, &exact) in residencies(2 * k).zip(exact) {
                        let looked_up = profile.stage_service_at_share(s, 1.0 / v);
                        let err = 100.0 * (looked_up - exact).abs() / exact;
                        let worst = if v <= k as f64 {
                            &mut within
                        } else {
                            &mut beyond
                        };
                        if err > worst.0 {
                            *worst = (err, format!("{} stage {s} at v = {v}", profile.name));
                        }
                    }
                }
            }
            assert!(
                within.0 <= within_bound,
                "{platform:?} K = {k}: {:.4}% within the table ({})",
                within.0,
                within.1
            );
            assert!(
                beyond.0 <= beyond_bound,
                "{platform:?} K = {k}: {:.4}% beyond the table ({})",
                beyond.0,
                beyond.1
            );
        }
    }
}

#[test]
fn profiles_are_nondecreasing_in_k_but_for_one_siph_cell() {
    // Every `stages` and `batched` column up to K = 16 under
    // continuous(4), Table 2 CNNs and a GPT-2 generator: nondecreasing
    // on Elec and monolithic. On SiPh, ReSiPI's burst threshold scales
    // with the bandwidth share, so at a smaller share more layers count
    // as bursts and get every gateway: LeNet5 reads 14.370 µs at k = 15
    // and 13.804 µs at k = 16, the one drop in the grid.
    let models = table2_and_gpt2();
    for platform in PLATFORMS {
        let serve = ServeConfig::new(PlatformConfig::paper_table1(), platform, models.clone())
            .with_max_concurrency(16)
            .with_batching(BatchPolicy::continuous(4));
        let profiles = build_profiles(&serve).expect("profiles build");
        let mut drops = Vec::new();
        for p in &profiles.models {
            let stages = p
                .stages
                .iter()
                .enumerate()
                .map(|(s, column)| (format!("stages[{s}]"), column));
            let batched = p.batched.iter().enumerate().flat_map(|(b, plane)| {
                plane
                    .iter()
                    .enumerate()
                    .map(move |(s, column)| (format!("batched[{b}][{s}]"), column))
            });
            for (table, column) in stages.chain(batched) {
                for (k, pair) in (1..).zip(column.windows(2)) {
                    if pair[1] < pair[0] {
                        drops.push(format!("{} {table} k = {k} -> {}", p.name, k + 1));
                    }
                }
            }
        }
        let expected: &[&str] = match platform {
            Platform::Siph2p5D => &["lenet5 stages[0] k = 15 -> 16"],
            _ => &[],
        };
        assert_eq!(drops, expected, "{platform:?}");
    }
}
