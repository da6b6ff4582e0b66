//! The plan/execute split of the runner.
//!
//! [`Runner::plan`] places a stream once; `RunPlan::execute` runs that
//! plan under any [`ContentionModel`]. One plan executed under a whole
//! series of contention models must give, model for model, the report
//! a fresh [`Runner::run_workloads_scaled`] call gives — bit for bit,
//! down to every per-layer field — on every platform, under uniform
//! and flow-level contention, with unrestricted and pinned placement.
//! Digests of the same grid are pinned against the runner as it was
//! before the split, so the two halves cannot drift together.
//! `RunPlan::latency`, the closed-form total, must equal the executed
//! report's total latency to the picosecond over the same grid, under
//! every interposer policy, and fail where execution fails, with the
//! same error. So must every stream a `ShapeTable` times, whichever
//! streams it is asked for together.

use std::hash::Hasher;

use lumos_core::contention::ContentionModel;
use lumos_core::dse::StableHasher;
use lumos_core::flow::{max_min_shares, FlowTopology};
use lumos_core::mapper::PlacementPolicy;
use lumos_core::runner::{HORIZON, MIN_LINK_GBPS};
use lumos_core::{CoreError, MacClass, Platform, PlatformConfig, RunReport, Runner};
use lumos_dnn::workload::{extract_workloads, KernelClass, LayerWorkload};
use lumos_dnn::zoo;
use lumos_phnet::controller::ReconfigPolicy;
use lumos_xformer::{extract_decode_workloads, extract_transformer_workloads};

const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];

/// One batched GEMM layer, shaped like a transformer block's.
fn gemm(name: &str, m: u32, n: u32, k: u32, batch: u32) -> LayerWorkload {
    let dots = batch as u64 * m as u64 * n as u64;
    LayerWorkload {
        name: name.into(),
        class: KernelClass::Gemm { m, n, k, batch },
        dot_products: dots,
        dot_length: k as u64,
        window: k as u64,
        macs: dots * k as u64,
        weight_bits: n as u64 * k as u64 * 8,
        input_bits: batch as u64 * m as u64 * k as u64 * 8,
        output_bits: dots * 8,
    }
}

/// The streams under test: a CNN (single-class placements) and a
/// decode-step-like GEMV stream (placements spread over every class).
fn streams(cfg: &PlatformConfig) -> Vec<(&'static str, Vec<LayerWorkload>)> {
    let decode = vec![
        gemm("qkv", 1, 2304, 768, 1),
        gemm("scores", 1, 33, 64, 12),
        gemm("context", 1, 64, 33, 12),
        gemm("proj", 1, 768, 768, 1),
        gemm("ff1", 1, 3072, 768, 1),
        gemm("ff2", 1, 768, 3072, 1),
    ];
    vec![
        ("lenet5", extract_workloads(&zoo::lenet5(), cfg.precision)),
        ("decode", decode),
    ]
}

/// Unrestricted placement and one that pins two classes to a subset
/// of their chiplets (Conv5 to chiplet 3, Dense100 to chiplet 0).
fn policies() -> [PlacementPolicy; 2] {
    [
        PlacementPolicy::unrestricted(),
        PlacementPolicy::unrestricted()
            .pin(MacClass::Conv5, vec![3])
            .pin(MacClass::Dense100, vec![0]),
    ]
}

/// Uniform shares, skewed per-class and bandwidth shares, and a
/// flow-level model (max-min share plus bottleneck attribution) of
/// two streams whose routes overlap on `platform`.
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

/// Asserts `a` and `b` agree in every field, floats compared by bits.
fn assert_bitwise(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.model, b.model, "{what}");
    assert_eq!(a.platform, b.platform, "{what}");
    assert_eq!(a.total_latency, b.total_latency, "{what}: latency");
    assert_eq!(a.bits_moved, b.bits_moved, "{what}: bits");
    let energy = |r: &RunReport| {
        let e = r.energy;
        [e.mac_j, e.network_j, e.memory_j, e.digital_j].map(f64::to_bits)
    };
    assert_eq!(energy(a), energy(b), "{what}: energy");
    assert_eq!(a.layers.len(), b.layers.len(), "{what}: layer count");
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        let what = format!("{what}, layer {}", la.name);
        assert_eq!(la.name, lb.name, "{what}");
        assert_eq!(la.class, lb.class, "{what}: class");
        assert_eq!((la.start, la.finish), (lb.start, lb.finish), "{what}: span");
        assert_eq!(la.bits, lb.bits, "{what}: bits");
        let times = |l: &lumos_core::LayerReport| {
            [l.compute_s, l.comm_in_s, l.comm_out_s].map(f64::to_bits)
        };
        assert_eq!(times(la), times(lb), "{what}: times");
    }
}

#[test]
fn one_plan_executes_like_fresh_scaled_runs_bitwise() {
    let cfg = PlatformConfig::paper_table1();
    for policy in policies() {
        let runner = Runner::new(cfg.clone()).with_placement(policy.clone());
        for platform in PLATFORMS {
            let contentions = contentions(&cfg, platform);
            for (name, work) in streams(&cfg) {
                let plan = runner.plan(&platform, name, &work).expect("stream plans");
                assert_eq!(plan.placements().len(), work.len());
                for (i, c) in contentions.iter().enumerate() {
                    let executed = plan.execute(c).expect("plan executes");
                    let fresh = runner
                        .run_workloads_scaled(&platform, name, &work, c)
                        .expect("scaled run");
                    assert_bitwise(
                        &executed,
                        &fresh,
                        &format!("{platform:?} {name} contention #{i} {policy:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn pinned_plans_place_on_the_pinned_chiplets() {
    let cfg = PlatformConfig::paper_table1();
    let [free, pinned] = policies();
    let work = extract_workloads(&zoo::lenet5(), cfg.precision);
    let plan_with = |policy: PlacementPolicy| {
        Runner::new(cfg.clone())
            .with_placement(policy)
            .plan(&Platform::Elec2p5D, "lenet5", &work)
            .expect("lenet5 plans")
            .placements()
            .cloned()
            .collect::<Vec<_>>()
    };
    let (free, pinned) = (plan_with(free), plan_with(pinned));
    // LeNet5's second layer is a 5×5 conv: Conv5 chiplets 3 and 4
    // unrestricted, chiplet 3 alone when pinned.
    assert_eq!(free[1].chiplets, vec![3, 4]);
    assert_eq!(pinned[1].chiplets, vec![3]);
}

#[test]
fn planning_rejects_what_running_rejects() {
    let cfg = PlatformConfig::paper_table1();
    let work = extract_workloads(&zoo::lenet5(), cfg.precision);
    // Chiplet 0 hosts Dense100, so this pin is invalid.
    let bad = Runner::new(cfg.clone())
        .with_placement(PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![0]));
    let planned = bad.plan(&Platform::Siph2p5D, "lenet5", &work);
    let ran = bad.run_workloads(&Platform::Siph2p5D, "lenet5", &work);
    assert_eq!(
        planned.expect_err("bad pin").to_string(),
        ran.expect_err("bad pin").to_string()
    );
    // Shares outside (0, 1] are caught at execution.
    let runner = Runner::new(cfg);
    let plan = runner
        .plan(&Platform::Siph2p5D, "lenet5", &work)
        .expect("lenet5 plans");
    assert!(plan.execute(&ContentionModel::uniform(0.0)).is_err());
}

#[test]
fn a_plan_executes_on_the_runner_that_made_it() {
    // Two runners that differ only in the MAC units per chiplet: each
    // plan reproduces its own runner's scaled run, and the two differ,
    // so nothing of one configuration leaks into the other's execution.
    let table1 = PlatformConfig::paper_table1();
    let mut wide = table1.clone();
    for class in [
        &mut wide.dense,
        &mut wide.conv7,
        &mut wide.conv5,
        &mut wide.conv3,
    ] {
        class.macs_per_chiplet *= 2;
    }
    let (narrow_runner, wide_runner) = (Runner::new(table1.clone()), Runner::new(wide));
    let c = ContentionModel::of_resident_streams(2);
    for platform in PLATFORMS {
        for (name, work) in streams(&table1) {
            let narrow = narrow_runner.plan(&platform, name, &work).expect("plans");
            let wide = wide_runner.plan(&platform, name, &work).expect("plans");
            let (narrow, wide) = (
                narrow.execute(&c).expect("executes"),
                wide.execute(&c).expect("executes"),
            );
            let what = format!("{platform:?} {name}");
            let fresh = |runner: &Runner| {
                runner
                    .run_workloads_scaled(&platform, name, &work, &c)
                    .expect("scaled run")
            };
            assert_bitwise(&narrow, &fresh(&narrow_runner), &what);
            assert_bitwise(&wide, &fresh(&wide_runner), &what);
            let compute_s = |r: &RunReport| r.layers.iter().map(|l| l.compute_s).sum::<f64>();
            assert!(compute_s(&wide) < compute_s(&narrow), "{what}");
        }
    }
}

/// Table 1 under each interposer policy, with twice the MAC units per
/// chiplet, and with a laser ceiling no photonic link budget closes
/// under (planning succeeds; the photonic interposer fails at
/// execution).
fn latency_configs() -> Vec<(String, PlatformConfig)> {
    let table1 = PlatformConfig::paper_table1();
    let mut configs: Vec<(String, PlatformConfig)> = [
        ReconfigPolicy::ResipiGateways,
        ReconfigPolicy::ProwavesWavelengths,
        ReconfigPolicy::StaticFull,
        ReconfigPolicy::StaticMin,
    ]
    .into_iter()
    .map(|policy| {
        let mut cfg = table1.clone();
        cfg.phnet.policy = policy;
        (format!("{policy:?}"), cfg)
    })
    .collect();
    let mut wide = table1.clone();
    for class in [
        &mut wide.dense,
        &mut wide.conv7,
        &mut wide.conv5,
        &mut wide.conv3,
    ] {
        class.macs_per_chiplet *= 2;
    }
    configs.push(("wide".into(), wide));
    let mut infeasible = table1;
    infeasible.phnet.max_laser_dbm = -20.0;
    configs.push(("infeasible".into(), infeasible));
    configs
}

/// [`streams`], plus both of them twice over in one stream: every
/// shape repeats, with a transition between every two.
fn latency_streams(cfg: &PlatformConfig) -> Vec<(&'static str, Vec<LayerWorkload>)> {
    let mut all = streams(cfg);
    let twice: Vec<LayerWorkload> = all
        .iter()
        .chain(&all)
        .flat_map(|(_, work)| work.iter().cloned())
        .collect();
    all.push(("both twice", twice));
    all
}

#[test]
fn latency_is_the_executed_total_latency_bitwise() {
    let zero = ContentionModel::uniform(0.0);
    for (config, cfg) in latency_configs() {
        let infeasible_on = |p: Platform| config == "infeasible" && p == Platform::Siph2p5D;
        for policy in policies() {
            let runner = Runner::new(cfg.clone()).with_placement(policy.clone());
            for platform in PLATFORMS {
                let contentions = contentions(&cfg, platform);
                for (name, work) in latency_streams(&cfg) {
                    let plan = runner.plan(&platform, name, &work).expect("stream plans");
                    for (i, c) in contentions.iter().chain([&zero]).enumerate() {
                        let what = format!("{config} {platform:?} {name} #{i} {policy:?}");
                        let executed = plan.execute(c).map(|r| r.total_latency);
                        assert_eq!(plan.latency(c), executed, "{what}");
                        // Both fail, with the same error, exactly where
                        // execution must.
                        let fails = c == &zero || infeasible_on(platform);
                        assert_eq!(executed.is_err(), fails, "{what}");
                    }
                }
            }
        }
    }
}

/// The streams of one shape table: GPT-2 prefill, a GPT-2 decode step
/// at batch 1–4 (one shape set re-lowered four times), and the Table 2
/// CNNs.
fn table_streams(cfg: &PlatformConfig) -> Vec<(String, Vec<LayerWorkload>)> {
    let gpt2 = lumos_xformer::zoo::gpt2_small();
    let mut all = vec![(
        "gpt2 prefill".to_owned(),
        extract_transformer_workloads(&gpt2, 32, 1, cfg.precision),
    )];
    for batch in 1..=4 {
        all.push((
            format!("gpt2 decode x{batch}"),
            extract_decode_workloads(&gpt2, 40, batch, cfg.precision),
        ));
    }
    for model in zoo::table2_models() {
        all.push((
            model.name().to_owned(),
            extract_workloads(&model, cfg.precision),
        ));
    }
    all
}

#[test]
fn table_latencies_are_each_streams_latency_bitwise() {
    let zero = ContentionModel::uniform(0.0);
    // Off-diagonal (compute, bandwidth) pairs, as flow-level planes ask.
    let off_diagonal = [
        (1.0, 1.0 / 8.0),
        (1.0 / 16.0, 1.0 / 2.0),
        (1.0 / 3.0, 1.0 / 5.0),
    ]
    .map(|(compute, bandwidth)| ContentionModel::uniform(compute).with_bandwidth_share(bandwidth));
    for (config, cfg) in latency_configs() {
        let streams = table_streams(&cfg);
        let n = streams.len();
        // Any subset in any order: everything, reversed, every other
        // stream, a few out of order with a repeat, and each alone.
        let mut selections: Vec<Vec<usize>> = vec![
            (0..n).collect(),
            (0..n).rev().collect(),
            (0..n).step_by(2).collect(),
            vec![n - 1, 2, 0, 2],
        ];
        selections.extend((0..n).map(|s| vec![s]));
        for policy in policies() {
            let runner = Runner::new(cfg.clone()).with_placement(policy.clone());
            for platform in PLATFORMS {
                let mut table = runner.shape_table(&platform).expect("valid config");
                let plans: Vec<_> = streams
                    .iter()
                    .map(|(name, work)| {
                        let next = table.streams();
                        assert_eq!(table.add_stream(work), Ok(next));
                        runner.plan(&platform, name, work).expect("stream plans")
                    })
                    .collect();
                let models: Vec<ContentionModel> = contentions(&cfg, platform)
                    .into_iter()
                    .chain(off_diagonal.iter().cloned())
                    .chain([zero.clone()])
                    .collect();
                // executed[m][s]: stream s's executed total under model m.
                let mut executed = Vec::new();
                for (i, c) in models.iter().enumerate() {
                    let what = format!("{config} {platform:?} #{i} {policy:?}");
                    let model: Vec<_> = plans
                        .iter()
                        .map(|plan| plan.execute(c).map(|r| r.total_latency))
                        .collect();
                    for (s, plan) in plans.iter().enumerate() {
                        assert_eq!(plan.latency(c), model[s], "{what} {}", streams[s].0);
                        // The table's own execution is the plan's but
                        // for names.
                        let (planned, tabled) = (plan.execute(c), table.execute(s, c));
                        assert_eq!(planned.is_ok(), tabled.is_ok(), "{what}");
                        if let (Ok(a), Ok(b)) = (planned, tabled) {
                            assert_eq!(
                                (a.total_latency, a.bits_moved, a.energy.total_j().to_bits()),
                                (b.total_latency, b.bits_moved, b.energy.total_j().to_bits()),
                                "{what} {}",
                                streams[s].0
                            );
                        }
                    }
                    let fails =
                        c == &zero || (config == "infeasible" && platform == Platform::Siph2p5D);
                    assert_eq!(model[0].is_err(), fails, "{what}");
                    executed.push(model);
                }
                // One call per bandwidth share, over the models that
                // share it, in order: each cell is its stream's executed
                // total under its model, and the first failing cell
                // (model by model, then stream by stream) gives the error.
                let mut groups: Vec<Vec<usize>> = Vec::new();
                for (m, c) in models.iter().enumerate() {
                    let share = c.bandwidth_share().to_bits();
                    match groups
                        .iter_mut()
                        .find(|g| models[g[0]].bandwidth_share().to_bits() == share)
                    {
                        Some(group) => group.push(m),
                        None => groups.push(vec![m]),
                    }
                }
                assert!(groups.iter().any(|g| g.len() >= 3), "{groups:?}");
                for group in &groups {
                    let grouped: Vec<ContentionModel> =
                        group.iter().map(|&m| models[m].clone()).collect();
                    for selection in &selections {
                        let expected: Result<Vec<Vec<_>>, _> = group
                            .iter()
                            .map(|&m| selection.iter().map(|&s| executed[m][s].clone()).collect())
                            .collect();
                        assert_eq!(
                            table.latencies(&grouped, selection),
                            expected,
                            "{config} {platform:?} {policy:?} models {group:?} {selection:?}"
                        );
                    }
                }
                // Two bandwidth shares in one call are an error naming
                // both, as is any later model off the first one's share.
                let mixed = [
                    ContentionModel::uncontended(),
                    ContentionModel::uncontended().with_unit_share(MacClass::Conv3, 0.5),
                    ContentionModel::of_resident_streams(3),
                ];
                match table.latencies(&mixed, &[0]) {
                    Err(CoreError::BadConfig { reason }) => {
                        for share in ["1.0", &format!("{:?}", 1.0 / 3.0)] {
                            assert!(reason.contains(share), "{reason}");
                        }
                    }
                    other => panic!("{config} {platform:?}: {other:?}"),
                }
                assert_eq!(table.latencies(&[], &[0]), Ok(Vec::new()));
            }
        }
    }
}

/// Shares so small that a link would run below a link server's 1 Mb/s
/// resolution (and so below [`MIN_LINK_GBPS`]), or the run's clock
/// past [`HORIZON`], are configuration errors on every path: not a
/// panic (debug builds) nor a wrapped or silently clamped latency
/// (release builds).
#[test]
fn tiny_shares_are_errors_not_panics() {
    let cfg = PlatformConfig::paper_table1();
    let runner = Runner::new(cfg.clone());
    let work = extract_workloads(&zoo::lenet5(), cfg.precision);
    let tiny = [
        ContentionModel::uniform(1e-300),
        ContentionModel::uncontended().with_bandwidth_share(1e-300),
        ContentionModel::uncontended().with_bandwidth_share(1e-15),
        ContentionModel::uncontended().with_bandwidth_share(1e-6),
        ContentionModel::uniform(1e-9),
        ContentionModel::uncontended().with_unit_share(MacClass::Conv5, 1e-300),
    ];
    for platform in PLATFORMS {
        let plan = runner
            .plan(&platform, "lenet5", &work)
            .expect("lenet5 plans");
        let mut table = runner.shape_table(&platform).expect("valid config");
        let stream = table.add_stream(&work).expect("lenet5 adds");
        for c in &tiny {
            let what = format!("{platform:?} {c:?}");
            let scaled = runner
                .run_workloads_scaled(&platform, "lenet5", &work, c)
                .map(|r| r.total_latency);
            match &scaled {
                Err(CoreError::BadConfig { reason }) => assert!(reason.contains("share"), "{what}"),
                other => panic!("{what}: {other:?}"),
            }
            assert_eq!(plan.latency(c), scaled, "{what}");
            assert_eq!(
                table.latencies(std::slice::from_ref(c), &[stream]),
                scaled.map(|t| vec![vec![t]]),
                "{what}"
            );
        }
    }
}

/// Bandwidth shares that derate a link below [`MIN_LINK_GBPS`] (50
/// Mb/s), where a link server's rounding to whole Mb/s would move its
/// rate by more than 1%, are configuration errors on every path. With
/// only a 1 Mb/s floor, LeNet5 on the electrical mesh read one latency
/// at every bandwidth share from 4e-6 to 5.5e-6 and half of it at 6e-6,
/// and monolithic one latency at 4.5e-6 and 5e-6. The floor binds at
/// the rate a server runs at: Table 1's 256 Gb/s HBM channels reach it
/// at a share of 1/5120 on every platform, and a photonic gateway, at
/// its fewest active wavelengths times 12 Gb/s, at 1/15360 under ReSiPI
/// and at 1/960 under PROWAVES' 4-wavelength floor. Shares on both
/// sides of each floor are checked, and 1/240 and the smallest share
/// the properties draw (0.02) still run everywhere.
#[test]
fn shares_a_link_server_would_round_are_errors() {
    let cfg = PlatformConfig::paper_table1();
    let mut prowaves = cfg.clone();
    prowaves.phnet.policy = ReconfigPolicy::ProwavesWavelengths;
    let work = extract_workloads(&zoo::lenet5(), cfg.precision);
    // Configuration, platform, the link an error names, shares below
    // its floor and shares above it.
    let floors = [
        (
            &cfg,
            Platform::Elec2p5D,
            "HBM channel",
            &[4e-6, 4.5e-6, 5e-6, 5.5e-6, 6e-6][..],
            &[][..],
        ),
        (
            &cfg,
            Platform::Monolithic,
            "HBM channel",
            &[4.5e-6, 5e-6],
            &[],
        ),
        (
            &cfg,
            Platform::Siph2p5D,
            "HBM channel",
            &[1e-4, 1.0 / 5200.0],
            &[1.0 / 241.0, 1.0 / 5000.0],
        ),
        (
            &prowaves,
            Platform::Siph2p5D,
            "interposer gateway",
            &[1.0 / 1000.0, 1.0 / 5000.0],
            &[1.0 / 950.0],
        ),
    ];
    for (cfg, platform, link, below, above) in floors {
        let runner = Runner::new(cfg.clone());
        let plan = runner
            .plan(&platform, "lenet5", &work)
            .expect("lenet5 plans");
        let mut table = runner.shape_table(&platform).expect("valid config");
        let stream = table.add_stream(&work).expect("lenet5 adds");
        for &share in below.iter().chain(above) {
            let c = ContentionModel::uncontended().with_bandwidth_share(share);
            let what = format!("{platform:?} {:?} at {share:e}", cfg.phnet.policy);
            let scaled = runner
                .run_workloads_scaled(&platform, "lenet5", &work, &c)
                .map(|r| r.total_latency);
            match &scaled {
                Err(CoreError::BadConfig { reason }) if below.contains(&share) => assert!(
                    reason.contains(link)
                        && reason.contains("whole Mb/s")
                        && reason.contains(&format!("{share:?}"))
                        && reason.contains(&MIN_LINK_GBPS.to_string()),
                    "{what}: {reason}"
                ),
                Ok(_) if above.contains(&share) => {}
                other => panic!("{what}: {other:?}"),
            }
            assert_eq!(plan.latency(&c), scaled, "{what}");
            assert_eq!(
                table.latencies(std::slice::from_ref(&c), &[stream]),
                scaled.map(|t| vec![vec![t]]),
                "{what}"
            );
        }
    }
    let runner = Runner::new(cfg);
    for platform in PLATFORMS {
        let plan = runner
            .plan(&platform, "lenet5", &work)
            .expect("lenet5 plans");
        for share in [1.0 / 240.0, 0.02] {
            let c = ContentionModel::uniform(share);
            let executed = plan.execute(&c).map(|r| r.total_latency);
            assert!(executed.is_ok(), "{platform:?} at {share:e}: {executed:?}");
            assert_eq!(plan.latency(&c), executed, "{platform:?} at {share:e}");
        }
    }
}

/// [`HORIZON`] bounds each stream, not the table: three one-layer
/// streams that each run for 0.6 of it time on one table without
/// overflow, and only the stream of all three fails, as its execution
/// does.
#[test]
fn the_horizon_bounds_each_stream_not_the_table() {
    let cfg = PlatformConfig::paper_table1();
    let runner = Runner::new(cfg.clone());
    let layers = [768, 769, 770].map(|k| gemm("proj", 1, 768, k, 1));
    for platform in PLATFORMS {
        let mut table = runner.shape_table(&platform).expect("valid config");
        let alone: Vec<usize> = layers
            .iter()
            .map(|w| table.add_stream(std::slice::from_ref(w)).expect("adds"))
            .collect();
        let together = table.add_stream(&layers).expect("adds");
        let slowest = alone
            .iter()
            .map(|&s| {
                let report = table.execute(s, &ContentionModel::uncontended());
                report.expect("runs").layers[0].compute_s
            })
            .fold(0.0, f64::max);
        let c = ContentionModel::uniform(slowest / (0.6 * HORIZON.as_secs_f64()))
            .with_bandwidth_share(1.0);
        let executed = |s: usize| table.execute(s, &c).map(|r| r.total_latency);
        let timed = table
            .latencies(std::slice::from_ref(&c), &alone)
            .expect("each stream fits");
        for (&s, &t) in alone.iter().zip(&timed[0]) {
            assert_eq!(Ok(t), executed(s), "{platform:?}");
            assert!(t > HORIZON / 2, "{platform:?}: {t}");
        }
        assert!(executed(together).is_err(), "{platform:?}");
        assert_eq!(
            table.latencies(std::slice::from_ref(&c), &[together]),
            executed(together).map(|t| vec![vec![t]]),
            "{platform:?}"
        );
    }
}

/// A stable digest of every field of every report of the grid on
/// `platform`, built through `run_workloads_scaled`.
fn grid_digest(platform: Platform) -> u64 {
    let cfg = PlatformConfig::paper_table1();
    let mut h = StableHasher::new();
    for policy in policies() {
        let runner = Runner::new(cfg.clone()).with_placement(policy);
        for (name, work) in streams(&cfg) {
            for c in contentions(&cfg, platform) {
                let r = runner
                    .run_workloads_scaled(&platform, name, &work, &c)
                    .expect("scaled run");
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
        }
    }
    h.finish()
}

#[test]
fn scaled_runs_match_pre_split_digests() {
    // Captured from the runner before `plan`/`execute` existed, when
    // every scaled run placed its workloads inline.
    let golden = [
        (Platform::Siph2p5D, 0x0b53_cf27_6824_a55d),
        (Platform::Elec2p5D, 0xdc6c_55ad_d0d1_d74e),
        (Platform::Monolithic, 0x34be_fc44_43d2_80cb),
    ];
    for (platform, digest) in golden {
        assert_eq!(
            grid_digest(platform),
            digest,
            "{platform:?}: reports drifted from the pre-split runner"
        );
    }
}
