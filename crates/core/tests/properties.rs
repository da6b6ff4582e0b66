//! Property-based tests of the platform runner on randomly generated
//! (but valid) convolutional models.

use lumos_core::mapper::PlacementPolicy;
use lumos_core::{ContentionModel, MacClass, Platform, PlatformConfig, Runner};
use lumos_dnn::workload::{extract_workloads, LayerWorkload};
use lumos_dnn::{Layer, Model, Padding, TensorShape};
use lumos_phnet::controller::ReconfigPolicy;
use lumos_sim::SimTime;
use proptest::prelude::*;

/// Strategy: a random small sequential CNN that always shape-checks.
fn random_cnn() -> impl Strategy<Value = Model> {
    let conv = (
        1u32..=3,
        prop::sample::select(vec![1u32, 3, 5, 7]),
        4u32..32,
    );
    (
        8u32..=32, // input H=W
        2u32..=8,  // input channels
        proptest::collection::vec(conv, 1..5),
        4u32..64, // classifier width
    )
        .prop_map(|(hw, c, convs, classes)| {
            let mut m = Model::new("random_cnn", TensorShape::chw(c, hw, hw));
            for (i, (stride, k, out_c)) in convs.into_iter().enumerate() {
                // Keep spatial dims >= 4 so strides always fit.
                let cur = m
                    .tail()
                    .map(|t| m.output_shape_of(t))
                    .unwrap_or(m.input_shape());
                let stride = if cur.h / stride >= 4 { stride } else { 1 };
                m.push(
                    &format!("conv{i}"),
                    Layer::conv(out_c, k, stride, Padding::Same),
                )
                .expect("same-padded conv always fits");
            }
            m.push("gap", Layer::GlobalAvgPool).expect("valid");
            m.push("fc", Layer::dense(classes)).expect("valid");
            m
        })
}

/// The platform × interposer-policy pairs on which a stream's latency
/// is the sum of its layers' single-layer latencies: monolithic and
/// the electrical mesh under every policy (neither has an interposer to
/// reconfigure), and the photonic interposer under the two policies
/// that never toggle a PCM coupler, so no layer stalls on the set its
/// predecessor left behind.
fn additive_pairs() -> Vec<(Platform, ReconfigPolicy)> {
    let all = [
        ReconfigPolicy::ResipiGateways,
        ReconfigPolicy::ProwavesWavelengths,
        ReconfigPolicy::StaticFull,
        ReconfigPolicy::StaticMin,
    ];
    let mut pairs: Vec<_> = [Platform::Monolithic, Platform::Elec2p5D]
        .into_iter()
        .flat_map(|p| all.map(|policy| (p, policy)))
        .collect();
    pairs.push((Platform::Siph2p5D, ReconfigPolicy::StaticFull));
    pairs.push((Platform::Siph2p5D, ReconfigPolicy::ProwavesWavelengths));
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Without weight prefetch every link is idle when a layer starts,
    /// so a layer takes as long inside a stream as alone: a stream of
    /// randomly repeated layers lasts exactly the sum of its layers'
    /// single-layer runs, to the picosecond, under contention too.
    #[test]
    fn stream_latency_is_additive_over_layers(
        model in random_cnn(),
        picks in proptest::collection::vec(0usize..64, 1..16),
        contention in prop::sample::select(vec![
            ContentionModel::uncontended(),
            ContentionModel::of_resident_streams(3),
            ContentionModel::uniform(0.5).with_bandwidth_share(0.2),
        ]),
    ) {
        let base = PlatformConfig::paper_table1();
        let layers = extract_workloads(&model, base.precision);
        let stream: Vec<LayerWorkload> = picks
            .iter()
            .map(|&i| layers[i % layers.len()].clone())
            .collect();
        for (platform, policy) in additive_pairs() {
            let mut cfg = base.clone();
            cfg.phnet.policy = policy;
            let runner = Runner::new(cfg);
            let latency = |work: &[LayerWorkload]| {
                runner
                    .run_workloads_scaled(&platform, "stream", work, &contention)
                    .expect("valid stream runs")
                    .total_latency
            };
            let sum = stream
                .iter()
                .fold(SimTime::ZERO, |acc, w| acc + latency(std::slice::from_ref(w)));
            prop_assert_eq!(latency(&stream), sum, "{} {:?}", platform, policy);
        }
    }

    /// Every random model runs on every platform, with causal layer
    /// reports and self-consistent totals.
    #[test]
    fn runner_total_consistency(model in random_cnn()) {
        let runner = Runner::new(PlatformConfig::paper_table1());
        for platform in Platform::all() {
            let r = runner.run(&platform, &model).expect("valid model runs");
            prop_assert!(r.total_latency.as_secs_f64() > 0.0);
            prop_assert!(r.energy.total_j() > 0.0);
            prop_assert!(r.bits_moved > 0);
            prop_assert!(r.avg_power_w().is_finite());
            prop_assert!(r.epb_nj().is_finite());
            // Per-layer reports tile the run.
            let mut last = lumos_sim::SimTime::ZERO;
            for l in &r.layers {
                prop_assert!(l.start >= last);
                prop_assert!(l.finish >= l.start);
                last = l.finish;
            }
            prop_assert_eq!(last, r.total_latency);
            // Energy breakdown components are non-negative.
            prop_assert!(r.energy.mac_j >= 0.0);
            prop_assert!(r.energy.network_j >= 0.0);
            prop_assert!(r.energy.memory_j >= 0.0);
            prop_assert!(r.energy.digital_j >= 0.0);
        }
    }

    /// Determinism: two runs of the same model agree exactly.
    #[test]
    fn runner_deterministic(model in random_cnn()) {
        let runner = Runner::new(PlatformConfig::paper_table1());
        let a = runner.run(&Platform::Siph2p5D, &model).expect("valid model runs");
        let b = runner.run(&Platform::Siph2p5D, &model).expect("rerun also runs");
        prop_assert_eq!(a.total_latency, b.total_latency);
        prop_assert_eq!(a.energy, b.energy);
        prop_assert_eq!(a.bits_moved, b.bits_moved);
    }

    /// Doubling precision doubles traffic and never reduces latency.
    #[test]
    fn precision_monotone(model in random_cnn()) {
        let mut cfg8 = PlatformConfig::paper_table1();
        cfg8.precision = lumos_dnn::Precision::int8();
        let mut cfg16 = PlatformConfig::paper_table1();
        cfg16.precision = lumos_dnn::Precision::int16();
        let r8 = Runner::new(cfg8)
            .run(&Platform::Siph2p5D, &model)
            .expect("int8 model runs");
        let r16 = Runner::new(cfg16)
            .run(&Platform::Siph2p5D, &model)
            .expect("int16 model runs");
        prop_assert_eq!(r16.bits_moved, 2 * r8.bits_moved);
        prop_assert!(r16.total_latency >= r8.total_latency);
    }

    /// Prefetching weights never increases latency.
    #[test]
    fn prefetch_monotone(model in random_cnn()) {
        let base = PlatformConfig::paper_table1();
        let mut pre = PlatformConfig::paper_table1();
        pre.calibration.prefetch_weights = true;
        for platform in Platform::all() {
            let without = Runner::new(base.clone())
                .run(&platform, &model)
                .expect("baseline model runs");
            let with = Runner::new(pre.clone())
                .run(&platform, &model)
                .expect("pre-emphasis model runs");
            prop_assert!(
                with.total_latency <= without.total_latency,
                "{platform}: prefetch regressed"
            );
        }
    }
}

proptest! {
    // The default config, so `PROPTEST_CASES` scales this property.

    /// `RunPlan::latency` is the executed total latency to the
    /// picosecond on random streams of repeated layers, on every
    /// platform under every interposer policy, with free and pinned
    /// placement, at skewed compute and bandwidth shares. That includes
    /// the photonic interposer under ReSiPI and `StaticMin`, where a
    /// layer's reconfiguration stall depends on the set its predecessor
    /// left, so the total is not additive over layers, only over shapes
    /// and shape transitions.
    #[test]
    fn closed_form_latency_is_exact(
        model in random_cnn(),
        picks in proptest::collection::vec(0usize..64, 1..16),
        compute_share in 0.02f64..1.0,
        conv3_share in 0.02f64..1.0,
        bandwidth_share in 0.02f64..1.0,
        uncontended in prop::bool::ANY,
    ) {
        let base = PlatformConfig::paper_table1();
        let layers = extract_workloads(&model, base.precision);
        let stream: Vec<LayerWorkload> = picks
            .iter()
            .map(|&i| layers[i % layers.len()].clone())
            .collect();
        let contention = if uncontended {
            ContentionModel::uncontended()
        } else {
            ContentionModel::uniform(compute_share)
                .with_unit_share(MacClass::Conv3, conv3_share)
                .with_bandwidth_share(bandwidth_share)
        };
        let placements = [
            PlacementPolicy::unrestricted(),
            PlacementPolicy::unrestricted()
                .pin(MacClass::Conv5, vec![3])
                .pin(MacClass::Dense100, vec![0]),
        ];
        for policy in [
            ReconfigPolicy::ResipiGateways,
            ReconfigPolicy::ProwavesWavelengths,
            ReconfigPolicy::StaticFull,
            ReconfigPolicy::StaticMin,
        ] {
            let mut cfg = base.clone();
            cfg.phnet.policy = policy;
            for placement in &placements {
                let runner = Runner::new(cfg.clone()).with_placement(placement.clone());
                for platform in Platform::all() {
                    let plan = runner
                        .plan(&platform, "stream", &stream)
                        .expect("valid stream plans");
                    let executed = plan.execute(&contention).expect("valid stream runs");
                    prop_assert_eq!(
                        plan.latency(&contention),
                        Ok(executed.total_latency),
                        "{} {:?} {:?}",
                        platform,
                        policy,
                        placement
                    );
                }
            }
        }
    }

    /// One `ShapeTable` over random streams drawn from a shared pool of
    /// layer shapes times every stream of a random selection (repeats
    /// and any order allowed) as that stream's own `RunPlan` and
    /// execution do, to the picosecond, under every interposer policy,
    /// with free and pinned placement, at skewed shares. The streams
    /// share shapes but not transitions, so on the photonic interposer
    /// under ReSiPI each stream's stall chain must start from the boot
    /// set, not from where another stream's left off.
    #[test]
    fn shape_table_latencies_are_exact(
        model in random_cnn(),
        streams in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..12),
            1..6,
        ),
        selection in proptest::collection::vec(0usize..64, 1..8),
        shares in (0.02f64..1.0, 0.02f64..1.0, 0.02f64..1.0),
        uncontended in prop::bool::ANY,
    ) {
        let (compute_share, conv3_share, bandwidth_share) = shares;
        let base = PlatformConfig::paper_table1();
        let pool = extract_workloads(&model, base.precision);
        let streams: Vec<Vec<LayerWorkload>> = streams
            .iter()
            .map(|picks| picks.iter().map(|&i| pool[i % pool.len()].clone()).collect())
            .collect();
        let selection: Vec<usize> = selection.iter().map(|&i| i % streams.len()).collect();
        let contention = if uncontended {
            ContentionModel::uncontended()
        } else {
            ContentionModel::uniform(compute_share)
                .with_unit_share(MacClass::Conv3, conv3_share)
                .with_bandwidth_share(bandwidth_share)
        };
        let placements = [
            PlacementPolicy::unrestricted(),
            PlacementPolicy::unrestricted()
                .pin(MacClass::Conv5, vec![3])
                .pin(MacClass::Dense100, vec![0]),
        ];
        for policy in [
            ReconfigPolicy::ResipiGateways,
            ReconfigPolicy::ProwavesWavelengths,
            ReconfigPolicy::StaticFull,
            ReconfigPolicy::StaticMin,
        ] {
            let mut cfg = base.clone();
            cfg.phnet.policy = policy;
            for placement in &placements {
                let runner = Runner::new(cfg.clone()).with_placement(placement.clone());
                for platform in Platform::all() {
                    let mut table = runner.shape_table(&platform).expect("valid config");
                    for work in &streams {
                        table.add_stream(work).expect("valid stream adds");
                    }
                    let timed = table
                        .latencies(&contention, &selection)
                        .expect("valid streams time");
                    for (&s, &latency) in selection.iter().zip(&timed) {
                        let plan = runner
                            .plan(&platform, "stream", &streams[s])
                            .expect("valid stream plans");
                        let executed = plan.execute(&contention).expect("valid stream runs");
                        prop_assert_eq!(
                            (Ok(latency), latency),
                            (plan.latency(&contention), executed.total_latency),
                            "stream {} of {:?}: {} {:?} {:?}",
                            s,
                            selection,
                            platform,
                            policy,
                            placement
                        );
                    }
                }
            }
        }
    }
}
