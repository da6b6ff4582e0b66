//! The differential/property test layer pinning `lumos_core::flow`.
//!
//! Differentials: a flow that contends with nobody must reproduce the
//! uncontended [`Runner::run`] **bitwise**, and the degenerate
//! topology the uniform model assumes (all flows crossing every link)
//! must reproduce the legacy uniform `1/k` report bit-for-bit.
//!
//! Properties (max-min invariants over randomized topologies): link
//! allocations never exceed capacity, every unsatisfied flow names a
//! saturated bottleneck, shares are bitwise invariant under flow input
//! order, and the fairness floor degrades monotonically as flows are
//! added.

use lumos_core::contention::ContentionModel;
use lumos_core::flow::{max_min_shares, FlowAllocation, FlowRoute, FlowTopology};
use lumos_core::{Platform, PlatformConfig, Runner};
use lumos_dnn::workload::extract_workloads;
use lumos_dnn::zoo;
use proptest::prelude::*;

const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];

/// Link capacities with many exact ties (mesh-, gateway- and HBM-like
/// values).
const TIE_CAPS: [f64; 4] = [256.0, 512.0, 2048.0, 3072.0];

/// A pseudo-random flow problem built from proptest-drawn raw parts:
/// capacities as drawn, each flow's route from the bits of a mask
/// (clamped into range, never empty).
fn problem_from(caps: &[f64], masks: &[u32]) -> (FlowTopology, Vec<FlowRoute>) {
    let topo = FlowTopology::custom(caps);
    let n = caps.len();
    let routes = masks
        .iter()
        .map(|&mask| {
            let links: Vec<usize> = (0..n).filter(|&l| mask & (1 << (l % 32)) != 0).collect();
            FlowRoute::over(if links.is_empty() { vec![0] } else { links })
        })
        .collect();
    (topo, routes)
}

#[test]
fn solo_flow_reproduces_uncontended_runner_bitwise() {
    let cfg = PlatformConfig::paper_table1();
    let model = zoo::lenet5();
    let workloads = extract_workloads(&model, cfg.precision);
    let runner = Runner::new(cfg.clone());
    for platform in PLATFORMS {
        let topo = FlowTopology::for_platform(&cfg, platform).expect("platform topology");
        // The model's streams touch every compute chiplet in general;
        // a solo flow contends with nobody regardless of its route.
        let chiplets: Vec<usize> = (0..cfg.compute_chiplets()).collect();
        let alloc =
            max_min_shares(&topo, &[topo.route_for_chiplets(&chiplets)]).expect("solo solves");
        assert_eq!(alloc.share(0), 1.0, "{platform:?}: solo share is exactly 1");
        let contention = alloc.contention_for(&topo, 0, 1.0);
        assert!(contention.is_uncontended());
        let flow = runner
            .run_workloads_scaled(&platform, "lenet5", &workloads, &contention)
            .expect("flow-modeled run");
        let base = runner.run(&platform, &model).expect("uncontended run");
        assert_eq!(flow, base, "{platform:?}: bitwise-identical reports");
    }
}

#[test]
fn degenerate_topology_reproduces_uniform_reports_bitwise() {
    let cfg = PlatformConfig::paper_table1();
    let model = zoo::lenet5();
    let workloads = extract_workloads(&model, cfg.precision);
    let runner = Runner::new(cfg.clone());
    for platform in PLATFORMS {
        let topo = FlowTopology::for_platform(&cfg, platform).expect("platform topology");
        // All k flows crossing every link — the topology the uniform
        // model implicitly assumes.
        let all_links: Vec<usize> = (0..topo.links().len()).collect();
        for k in 1usize..=4 {
            let routes: Vec<FlowRoute> =
                (0..k).map(|_| FlowRoute::over(all_links.clone())).collect();
            let alloc = max_min_shares(&topo, &routes).expect("degenerate solves");
            for f in 0..k {
                assert_eq!(
                    alloc.share(f).to_bits(),
                    (1.0 / k as f64).to_bits(),
                    "{platform:?}: share is exactly 1/{k}"
                );
            }
            // The modeled stream: uniform 1/k compute slice, flow-model
            // bandwidth share — which must equal the legacy uniform run.
            let contention =
                ContentionModel::uniform(1.0 / k as f64).with_bandwidth_share(alloc.share(0));
            let flow = runner
                .run_workloads_scaled(&platform, "lenet5", &workloads, &contention)
                .expect("flow-modeled run");
            let uniform = runner
                .run_workloads_scaled(
                    &platform,
                    "lenet5",
                    &workloads,
                    &ContentionModel::of_resident_streams(k),
                )
                .expect("uniform run");
            assert_eq!(flow, uniform, "{platform:?} k={k}: bitwise-identical");
        }
    }
}

#[test]
fn bottleneck_attribution_never_perturbs_the_report() {
    let cfg = PlatformConfig::paper_table1();
    let model = zoo::lenet5();
    let workloads = extract_workloads(&model, cfg.precision);
    let runner = Runner::new(cfg.clone());
    let bare = ContentionModel::of_resident_streams(2);
    let attributed = ContentionModel::of_resident_streams(2).with_bottleneck("hbm", 1024.0);
    for platform in PLATFORMS {
        let a = runner
            .run_workloads_scaled(&platform, "lenet5", &workloads, &bare)
            .expect("bare run");
        let b = runner
            .run_workloads_scaled(&platform, "lenet5", &workloads, &attributed)
            .expect("attributed run");
        assert_eq!(a, b, "{platform:?}: attribution is metadata only");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance pin: a flow whose route is disjoint from every other
    /// route gets share exactly 1.0, and feeding that share back
    /// through the scaled runner reproduces the uncontended run
    /// bitwise — on a randomly chosen platform, against random
    /// competing traffic on the other links.
    #[test]
    fn disjoint_routes_match_uncontended_runner_bitwise(
        platform_idx in 0usize..3,
        competitors in 1usize..4,
    ) {
        let cfg = PlatformConfig::paper_table1();
        let platform = PLATFORMS[platform_idx];
        let topo = FlowTopology::for_platform(&cfg, platform).expect("platform topology");
        // Synthetic disjointness: give the probe flow its own private
        // link set by extending the platform capacities.
        let mut caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_gbps).collect();
        let probe_link = caps.len();
        caps.push(512.0);
        let synth = FlowTopology::custom(&caps);
        let mut routes = vec![FlowRoute::over(vec![probe_link])];
        // Competitors pile onto the *platform* links, never the probe's.
        let shared: Vec<usize> = (0..probe_link).collect();
        for _ in 0..competitors {
            routes.push(FlowRoute::over(shared.clone()));
        }
        let alloc = max_min_shares(&synth, &routes).expect("solves");
        prop_assert_eq!(alloc.share(0).to_bits(), 1.0f64.to_bits());

        let model = zoo::lenet5();
        let workloads = extract_workloads(&model, cfg.precision);
        let runner = Runner::new(cfg.clone());
        let contention = alloc.contention_for(&synth, 0, 1.0);
        let flow = runner
            .run_workloads_scaled(&platform, "lenet5", &workloads, &contention)
            .expect("flow-modeled run");
        let base = runner.run(&platform, &model).expect("uncontended run");
        prop_assert_eq!(flow, base);
    }

    /// Per-link allocated bandwidth never exceeds capacity.
    #[test]
    fn allocations_respect_capacity(
        caps in proptest::collection::vec(1.0f64..4096.0, 1..6),
        masks in proptest::collection::vec(1u32..64, 1..8),
    ) {
        let (topo, routes) = problem_from(&caps, &masks);
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        for (l, link) in topo.links().iter().enumerate() {
            prop_assert!(
                alloc.link_allocated_gbps(l) <= link.capacity_gbps * (1.0 + 1e-9),
                "link {l}: {} > {}",
                alloc.link_allocated_gbps(l),
                link.capacity_gbps
            );
        }
        for f in 0..routes.len() {
            let share = alloc.share(f);
            prop_assert!(share > 0.0 && share <= 1.0, "share {share} outside (0, 1]");
            alloc.contention_for(&topo, f, 1.0).validate().expect("valid model");
        }
    }

    /// Every unsatisfied flow (share < 1) names a bottleneck link that
    /// is saturated — the max-min optimality certificate.
    #[test]
    fn unsatisfied_flows_have_saturated_bottlenecks(
        caps in proptest::collection::vec(1.0f64..4096.0, 1..6),
        masks in proptest::collection::vec(1u32..64, 2..8),
    ) {
        let (topo, routes) = problem_from(&caps, &masks);
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        for f in 0..routes.len() {
            if alloc.share(f) < 1.0 {
                let b = alloc.bottleneck(f);
                let cap = topo.links()[b].capacity_gbps;
                prop_assert!(
                    alloc.link_allocated_gbps(b) >= cap * (1.0 - 1e-9),
                    "flow {f}: bottleneck {b} not saturated ({} of {cap})",
                    alloc.link_allocated_gbps(b)
                );
            }
        }
    }

    /// Shares are a function of the route multiset: a few distinct
    /// routes, each repeated, solved in any order give every flow
    /// bit-identical share, Gb/s and bottleneck, and flows on identical
    /// routes get identical bits. Topologies are custom ones (drawn
    /// capacities, or capacities from a tie-heavy set so fair shares
    /// often tie across links) or the three platform topologies with
    /// routes over chiplet subsets.
    #[test]
    fn shares_invariant_under_input_order(
        topo_pick in 0usize..5,
        caps in proptest::collection::vec(1.0f64..4096.0, 1..6),
        masks in proptest::collection::vec(1u32..512, 1..5),
        multiplicities in proptest::collection::vec(1usize..5, 4),
        keys in proptest::collection::vec(0u64..u64::MAX, 16),
    ) {
        let (topo, distinct) = match topo_pick {
            0 => problem_from(&caps, &masks),
            1 => {
                let tied: Vec<f64> =
                    caps.iter().map(|&c| TIE_CAPS[c as usize % TIE_CAPS.len()]).collect();
                problem_from(&tied, &masks)
            }
            p => {
                let cfg = PlatformConfig::paper_table1();
                let topo = FlowTopology::for_platform(&cfg, PLATFORMS[p - 2])
                    .expect("platform topology");
                let routes = masks
                    .iter()
                    .map(|&mask| {
                        let chiplets: Vec<usize> = (0..cfg.compute_chiplets())
                            .filter(|&c| mask & (1 << c) != 0)
                            .collect();
                        topo.route_for_chiplets(&chiplets)
                    })
                    .collect();
                (topo, routes)
            }
        };
        let routes: Vec<FlowRoute> = distinct
            .iter()
            .zip(&multiplicities)
            .flat_map(|(route, &m)| std::iter::repeat_n(route.clone(), m))
            .collect();
        // `order[p]` is the flow that lands at position `p`.
        let mut order: Vec<usize> = (0..routes.len()).collect();
        order.sort_by_key(|&f| keys[f]);
        let permuted: Vec<FlowRoute> = order.iter().map(|&f| routes[f].clone()).collect();
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        let alloc_perm = max_min_shares(&topo, &permuted).expect("permuted solves");
        let bits = |a: &FlowAllocation, f: usize| {
            (a.share(f).to_bits(), a.allocated_gbps(f).to_bits(), a.bottleneck(f))
        };
        for (p, &f) in order.iter().enumerate() {
            prop_assert_eq!(bits(&alloc, f), bits(&alloc_perm, p), "flow {} at position {}", f, p);
        }
        for f in 0..routes.len() {
            for g in 0..f {
                if routes[f] == routes[g] {
                    prop_assert_eq!(bits(&alloc, f), bits(&alloc, g), "flows {} and {}", g, f);
                }
            }
        }
    }

    /// Monotone degradation: adding a flow never raises the fairness
    /// floor (the worst-off flow's allocation), and piling flows onto
    /// one shared route degrades every share as exactly `1/k`.
    #[test]
    fn adding_flows_degrades_the_fairness_floor(
        caps in proptest::collection::vec(1.0f64..4096.0, 1..6),
        masks in proptest::collection::vec(1u32..64, 2..8),
    ) {
        let (topo, routes) = problem_from(&caps, &masks);
        let mut prev_floor = f64::INFINITY;
        for m in 1..=routes.len() {
            let alloc = max_min_shares(&topo, &routes[..m]).expect("prefix solves");
            let floor = (0..m)
                .map(|f| alloc.allocated_gbps(f))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                floor <= prev_floor * (1.0 + 1e-9),
                "floor rose from {prev_floor} to {floor} at m={m}"
            );
            prev_floor = floor;
        }
    }

    /// The degenerate single-route pile-up is exactly `1/k` at every
    /// depth — the bit-exactness the serve-layer differential rests on.
    #[test]
    fn shared_route_shares_are_exactly_one_over_k(
        cap in 1.0f64..4096.0,
        k in 1usize..9,
    ) {
        let topo = FlowTopology::custom(&[cap]);
        let routes: Vec<FlowRoute> = (0..k).map(|_| FlowRoute::over(vec![0])).collect();
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        for f in 0..k {
            prop_assert_eq!(alloc.share(f).to_bits(), (1.0 / k as f64).to_bits());
        }
    }
}
