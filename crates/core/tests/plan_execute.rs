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
//! every interposer policy and with weight prefetch, and fail where
//! execution fails, with the same error.

use std::hash::Hasher;

use lumos_core::contention::ContentionModel;
use lumos_core::dse::StableHasher;
use lumos_core::flow::{max_min_shares, FlowTopology};
use lumos_core::mapper::PlacementPolicy;
use lumos_core::{MacClass, Platform, PlatformConfig, RunReport, Runner};
use lumos_dnn::workload::{extract_workloads, KernelClass, LayerWorkload};
use lumos_dnn::zoo;
use lumos_phnet::controller::ReconfigPolicy;

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
/// chiplet, with weight prefetch (where `latency` executes), and with
/// a laser ceiling no photonic link budget closes under (planning
/// succeeds; the photonic interposer fails at execution).
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
    let mut prefetch = table1.clone();
    prefetch.calibration.prefetch_weights = true;
    configs.push(("prefetch".into(), prefetch));
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
