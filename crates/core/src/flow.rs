//! Flow-level max-min fair network contention.
//!
//! The uniform [`ContentionModel`] derate gives each of `k` resident
//! streams `1/k` of **every** wavelength, mesh link, and HBM channel —
//! regardless of which links its traffic actually crosses. This module
//! replaces that platform-wide average with a topology-aware flow
//! model: the platform's link set is enumerated explicitly
//! ([`FlowTopology::for_platform`]), each stream's transfers are
//! attributed to the links its route crosses ([`FlowTopology::route_for_chiplets`]),
//! and per-stream throughput is computed by iterative max-min
//! water-filling ([`max_min_shares`]): a [`BinaryHeap`] of link-usage
//! entries (bandwidth left / unfrozen-flow count) finds the bottleneck
//! link, freezes its flows at the fair share, subtracts them from every
//! other link on their routes, and repeats — the `LinkUsage`
//! priority-queue technique of dslab-network's topology model, run
//! against our static routes so results stay bit-deterministic.
//!
//! Two exactness guarantees anchor the differential tests:
//!
//! * a flow whose route shares no link with any other flow gets share
//!   **exactly** `1.0` — feeding it back through
//!   [`Runner::run_workloads_scaled`] reproduces the uncontended
//!   [`Runner::run`] bit for bit;
//! * when all `k` flows cross every link (the degenerate topology the
//!   uniform model assumes), every flow gets share **exactly**
//!   `1.0 / k` — reproducing the legacy uniform report bit for bit.
//!
//! Both hold because shares are tracked in *fraction space* (every
//! link starts with fraction `1.0` left), so the fair split at the
//! freezing link is computed as `1.0 / count` rather than round-tripped
//! through absolute bandwidths.
//!
//! [`Runner::run`]: crate::runner::Runner::run
//! [`Runner::run_workloads_scaled`]: crate::runner::Runner::run_workloads_scaled
//!
//! # Examples
//!
//! Two flows over a shared bottleneck plus a private link each:
//!
//! ```
//! use lumos_core::flow::{max_min_shares, FlowRoute, FlowTopology};
//!
//! // Links 0 and 1 are private (256 Gb/s); link 2 is shared (2048).
//! let topo = FlowTopology::custom(&[256.0, 256.0, 2048.0]);
//! let routes = [FlowRoute::over(vec![0, 2]), FlowRoute::over(vec![1, 2])];
//! let alloc = max_min_shares(&topo, &routes)?;
//! // The private 256 Gb/s links bottleneck both flows: each gets its
//! // whole private link (share 1.0, 256 Gb/s) and the shared link
//! // never saturates.
//! assert_eq!(alloc.share(0), 1.0);
//! assert_eq!(alloc.allocated_gbps(1), 256.0);
//! assert_eq!(alloc.bottleneck(1), 1);
//! assert!(alloc.link_allocated_gbps(2) <= 2048.0);
//! # Ok::<(), lumos_core::error::CoreError>(())
//! ```

use std::collections::BinaryHeap;

use lumos_noc::{xy_route, Coord, LinkModel, Mesh};

use crate::config::PlatformConfig;
use crate::contention::ContentionModel;
use crate::error::CoreError;
use crate::platform::Platform;

/// One capacity-constrained link of the flow topology.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLink {
    /// Human-readable label (`"hbm"`, `"mesh:(1,1)->(0,1)"`,
    /// `"phnet:chiplet3"`, `"bus"`, …) — what bottleneck attribution
    /// reports in traces and metrics.
    pub label: String,
    /// Peak capacity in Gb/s.
    pub capacity_gbps: f64,
}

/// The electrical 2.5D floorplan shared by the runner and the flow
/// model: memory chiplet at the centre of the 3×3 interposer mesh,
/// compute chiplets around it in id order (Fig. 3).
pub(crate) fn elec_floorplan() -> (Coord, Vec<Coord>) {
    let mem = Coord::new(1, 1);
    let positions: Vec<Coord> = (0..3u32)
        .flat_map(|y| (0..3u32).map(move |x| Coord::new(x, y)))
        .filter(|&c| c != mem)
        .collect();
    (mem, positions)
}

/// The platform's link set plus per-chiplet route fragments.
///
/// Built per platform by [`FlowTopology::for_platform`] (or
/// synthetically by [`FlowTopology::custom`] for solver tests); routes
/// for a concrete stream come from
/// [`FlowTopology::route_for_chiplets`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTopology {
    links: Vec<FlowLink>,
    /// Links every stream crosses regardless of placement (HBM
    /// aggregate, photonic memory-TX broadcast, the monolithic bus).
    shared: Vec<usize>,
    /// `chiplet_routes[c]`: links a stream touching chiplet `c`
    /// crosses, beyond the shared set. Empty for custom topologies.
    chiplet_routes: Vec<Vec<usize>>,
}

impl FlowTopology {
    /// Enumerates `platform`'s link set from `cfg`:
    ///
    /// * **SiPh 2.5D** — one aggregate gateway link per compute chiplet
    ///   (gateways × wavelengths × per-wavelength rate), the shared
    ///   memory-TX broadcast complement, and the HBM aggregate;
    /// * **Elec 2.5D** — every directed link of the 3×3 interposer mesh
    ///   at the Table 1 link rate (128 bits × 2 GHz), with routes
    ///   derived by XY routing from the memory chiplet (centre of the
    ///   mesh, compute chiplets around it in id order), plus the HBM
    ///   aggregate;
    /// * **Monolithic** — the on-chip distribution bus and the HBM
    ///   aggregate (all routes identical, so flow-level sharing
    ///   degenerates to the uniform model by construction).
    ///
    /// The HBM stack is modeled as one aggregate link because bursts
    /// stripe across all channels — channels pool, they don't partition
    /// per stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when `cfg` is inconsistent or a
    /// link capacity comes out non-positive.
    pub fn for_platform(cfg: &PlatformConfig, platform: Platform) -> Result<Self, CoreError> {
        cfg.validate()?;
        let n_chiplets = cfg.compute_chiplets();
        let hbm_gbps = cfg.hbm.aggregate_gbps();
        let mut links = Vec::new();
        let mut shared = Vec::new();
        let mut chiplet_routes = vec![Vec::new(); n_chiplets];
        let push = |links: &mut Vec<FlowLink>, label: String, capacity_gbps: f64| {
            links.push(FlowLink {
                label,
                capacity_gbps,
            });
            links.len() - 1
        };
        match platform {
            Platform::Siph2p5D => {
                let gw = cfg.phnet.gateway_rate_gbps();
                for (c, route) in chiplet_routes.iter_mut().enumerate() {
                    let cap = cfg.phnet.gateways_per_chiplet as f64 * gw;
                    route.push(push(&mut links, format!("phnet:chiplet{c}"), cap));
                }
                let memtx = cfg.phnet.memory_tx_gateways as f64 * gw;
                shared.push(push(&mut links, "phnet:memtx".into(), memtx));
            }
            Platform::Elec2p5D => {
                let (mem, positions) = elec_floorplan();
                if positions.len() < n_chiplets {
                    return Err(CoreError::BadConfig {
                        reason: format!(
                            "3x3 interposer fits {} compute chiplets, platform has {n_chiplets}",
                            positions.len()
                        ),
                    });
                }
                let mesh = Mesh::new(3, 3);
                let link_gbps =
                    LinkModel::paper_table1(cfg.calibration.hop_mm_2p5d).bandwidth_gbps();
                for (c, route) in chiplet_routes.iter_mut().enumerate() {
                    // Both directions: inbound weight/activation streams
                    // (mem → chiplet) and the output write-back.
                    for hop in xy_route(&mesh, mem, positions[c])
                        .into_iter()
                        .chain(xy_route(&mesh, positions[c], mem))
                    {
                        let label = format!("mesh:{}->{}", hop.from, hop.to);
                        let id = match links.iter().position(|l| l.label == label) {
                            Some(id) => id,
                            None => push(&mut links, label, link_gbps),
                        };
                        route.push(id);
                    }
                }
            }
            Platform::Monolithic => {
                shared.push(push(
                    &mut links,
                    "bus".into(),
                    cfg.calibration.mono_mem_gbps,
                ));
            }
        }
        shared.push(push(&mut links, "hbm".into(), hbm_gbps));
        let topo = FlowTopology {
            links,
            shared,
            chiplet_routes,
        };
        topo.validate()?;
        Ok(topo)
    }

    /// A synthetic topology over bare capacities (links labelled
    /// `"link0"`, `"link1"`, …) — routes are built by hand with
    /// [`FlowRoute::over`]. The property-test surface of the solver.
    pub fn custom(capacities_gbps: &[f64]) -> Self {
        FlowTopology {
            links: capacities_gbps
                .iter()
                .enumerate()
                .map(|(i, &capacity_gbps)| FlowLink {
                    label: format!("link{i}"),
                    capacity_gbps,
                })
                .collect(),
            shared: Vec::new(),
            chiplet_routes: Vec::new(),
        }
    }

    /// The enumerated link set.
    pub fn links(&self) -> &[FlowLink] {
        &self.links
    }

    /// The route of a stream whose placement touches `chiplets`: the
    /// platform's shared links plus every per-chiplet fragment, sorted
    /// and deduplicated.
    pub fn route_for_chiplets(&self, chiplets: &[usize]) -> FlowRoute {
        let mut ids = self.shared.clone();
        for &c in chiplets {
            if let Some(frag) = self.chiplet_routes.get(c) {
                ids.extend_from_slice(frag);
            }
        }
        FlowRoute::over(ids)
    }

    /// Checks every link has a finite, positive capacity and the
    /// topology is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] naming the first bad link —
    /// this is what lets `lumos_serve` reject an invalid flow
    /// configuration at config time instead of panicking on a
    /// degenerate share mid-simulation.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.links.is_empty() {
            return Err(CoreError::BadConfig {
                reason: "flow topology has no links".into(),
            });
        }
        for l in &self.links {
            if !(l.capacity_gbps.is_finite() && l.capacity_gbps > 0.0) {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "flow link {} capacity {} Gb/s not positive",
                        l.label, l.capacity_gbps
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The set of links one flow's traffic crosses (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRoute {
    links: Vec<usize>,
}

impl FlowRoute {
    /// A route over `links` (indices into the topology's link set);
    /// duplicates are dropped and order is normalized, so two routes
    /// over the same link set compare equal.
    pub fn over(mut links: Vec<usize>) -> Self {
        links.sort_unstable();
        links.dedup();
        FlowRoute { links }
    }

    /// The link indices this route crosses.
    pub fn links(&self) -> &[usize] {
        &self.links
    }

    /// Whether the route crosses no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// One heap entry of the water-filling loop: a snapshot of a link's
/// remaining bandwidth and unfrozen-flow count. Ordered so the
/// max-heap pops the link with the **smallest** fair share first
/// (ties broken by the smaller link id, keeping the freeze order — and
/// therefore the floating-point result — deterministic). Entries go
/// stale when another freeze updates the link; stale entries are
/// skipped by comparing the snapshot against the live arrays.
#[derive(Debug, Clone, Copy)]
struct LinkUsage {
    fair_share: f64,
    id: usize,
    left_gbps: f64,
    count: usize,
}

impl PartialEq for LinkUsage {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for LinkUsage {}

impl PartialOrd for LinkUsage {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinkUsage {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the greatest element (what BinaryHeap pops) is the
        // smallest fair share; among equals, the smallest link id.
        other
            .fair_share
            .total_cmp(&self.fair_share)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// The solved max-min allocation of one flow set.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAllocation {
    shares: Vec<f64>,
    allocated_gbps: Vec<f64>,
    bottleneck: Vec<usize>,
    link_allocated_gbps: Vec<f64>,
}

impl FlowAllocation {
    /// Flow `flow`'s bandwidth share in `(0, 1]`: the fraction of its
    /// bottleneck link it was allocated — what
    /// [`ContentionModel::with_bandwidth_share`] consumes. Exactly
    /// `1.0` for a flow contending with nobody; exactly `1.0 / k` when
    /// all `k` flows freeze together at a common bottleneck.
    pub fn share(&self, flow: usize) -> f64 {
        self.shares[flow]
    }

    /// Flow `flow`'s absolute max-min throughput in Gb/s.
    pub fn allocated_gbps(&self, flow: usize) -> f64 {
        self.allocated_gbps[flow]
    }

    /// The link that froze flow `flow` (an index into
    /// [`FlowTopology::links`]).
    pub fn bottleneck(&self, flow: usize) -> usize {
        self.bottleneck[flow]
    }

    /// Total bandwidth allocated on link `link` across all flows, Gb/s.
    /// Never exceeds the link's capacity (property-tested).
    pub fn link_allocated_gbps(&self, link: usize) -> f64 {
        self.link_allocated_gbps[link]
    }

    /// The [`ContentionModel`] of flow `flow`: `unit_share` of every
    /// MAC class (the compute time-slice stays the caller's choice —
    /// typically `1/k` for `k` residents), the flow's max-min bandwidth
    /// share, and bottleneck attribution naming the freezing link.
    pub fn contention_for(
        &self,
        topo: &FlowTopology,
        flow: usize,
        unit_share: f64,
    ) -> ContentionModel {
        ContentionModel::uniform(unit_share)
            .with_bandwidth_share(self.shares[flow])
            .with_bottleneck(
                topo.links[self.bottleneck[flow]].label.clone(),
                self.allocated_gbps[flow],
            )
    }
}

/// Computes the max-min fair allocation of `routes` over `topo` by
/// iterative water-filling (see [the module docs](self) for the
/// algorithm and its exactness guarantees).
///
/// Deterministic: the freeze order is a pure function of the inputs
/// (bottlenecks tie-break by link id), so identical calls produce
/// bit-identical allocations.
///
/// Each flow's share, Gb/s and bottleneck are a function of its route
/// and the *multiset* of routes, bit for bit, whatever order the flows
/// come in: every flow frozen at one bottleneck subtracts the same
/// `fair` and `fair / capacity` from each link it crosses, so flow
/// order never changes a floating-point operation, and flows on
/// identical routes always freeze together. Callers may therefore
/// memoize allocations by route counts. (Only the summed
/// [`FlowAllocation::link_allocated_gbps`] depends on flow order.)
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for an invalid topology, an empty
/// route, or a route crossing a link the topology doesn't have.
pub fn max_min_shares(
    topo: &FlowTopology,
    routes: &[FlowRoute],
) -> Result<FlowAllocation, CoreError> {
    topo.validate()?;
    let n_links = topo.links.len();
    for (f, r) in routes.iter().enumerate() {
        if r.is_empty() {
            return Err(CoreError::BadConfig {
                reason: format!("flow {f} crosses no links"),
            });
        }
        if let Some(&bad) = r.links().iter().find(|&&l| l >= n_links) {
            return Err(CoreError::BadConfig {
                reason: format!("flow {f} crosses unknown link {bad} (topology has {n_links})"),
            });
        }
    }

    // Live per-link state: absolute bandwidth left (drives bottleneck
    // selection and the Gb/s outputs), the *fraction* left (drives the
    // exact share outputs), and the unfrozen-flow count.
    let mut left: Vec<f64> = topo.links.iter().map(|l| l.capacity_gbps).collect();
    let mut left_frac = vec![1.0f64; n_links];
    let mut count = vec![0usize; n_links];
    let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); n_links];
    for (f, r) in routes.iter().enumerate() {
        for &l in r.links() {
            count[l] += 1;
            link_flows[l].push(f);
        }
    }

    let mut heap = BinaryHeap::new();
    for id in 0..n_links {
        if count[id] > 0 {
            heap.push(LinkUsage {
                fair_share: left[id] / count[id] as f64,
                id,
                left_gbps: left[id],
                count: count[id],
            });
        }
    }

    let n = routes.len();
    let mut frozen = vec![false; n];
    let mut shares = vec![1.0f64; n];
    let mut allocated = vec![0.0f64; n];
    let mut bottleneck = vec![0usize; n];

    while let Some(u) = heap.pop() {
        // Stale snapshot: the link was updated (or fully frozen) since
        // this entry was pushed.
        if count[u.id] == 0 || u.left_gbps != left[u.id] || u.count != count[u.id] {
            continue;
        }
        let fair = left[u.id] / count[u.id] as f64;
        let frac = left_frac[u.id] / count[u.id] as f64;
        let freezing: Vec<usize> = link_flows[u.id]
            .iter()
            .copied()
            .filter(|&f| !frozen[f])
            .collect();
        for &f in &freezing {
            frozen[f] = true;
            shares[f] = frac;
            allocated[f] = fair;
            bottleneck[f] = u.id;
            for &l in routes[f].links() {
                if l == u.id {
                    continue;
                }
                count[l] -= 1;
                left[l] = (left[l] - fair).max(0.0);
                left_frac[l] = (left_frac[l] - fair / topo.links[l].capacity_gbps).max(0.0);
                if count[l] > 0 {
                    heap.push(LinkUsage {
                        fair_share: left[l] / count[l] as f64,
                        id: l,
                        left_gbps: left[l],
                        count: count[l],
                    });
                }
            }
        }
        // The bottleneck link is exactly exhausted.
        left[u.id] = 0.0;
        left_frac[u.id] = 0.0;
        count[u.id] = 0;
    }

    let mut link_allocated_gbps = vec![0.0f64; n_links];
    for (f, r) in routes.iter().enumerate() {
        for &l in r.links() {
            link_allocated_gbps[l] += allocated[f];
        }
    }

    Ok(FlowAllocation {
        shares,
        allocated_gbps: allocated,
        bottleneck,
        link_allocated_gbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_flow_gets_exactly_one() {
        let topo = FlowTopology::custom(&[100.0, 37.5, 2048.0]);
        let routes = [FlowRoute::over(vec![0, 1, 2])];
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        assert_eq!(alloc.share(0), 1.0);
        assert_eq!(alloc.allocated_gbps(0), 37.5);
        assert_eq!(alloc.bottleneck(0), 1, "tightest link wins");
    }

    #[test]
    fn degenerate_all_shared_is_exactly_one_over_k() {
        for k in 1usize..=7 {
            let topo = FlowTopology::custom(&[3072.0, 2048.0]);
            let routes: Vec<FlowRoute> = (0..k).map(|_| FlowRoute::over(vec![0, 1])).collect();
            let alloc = max_min_shares(&topo, &routes).expect("solves");
            for f in 0..k {
                assert_eq!(
                    alloc.share(f).to_bits(),
                    (1.0 / k as f64).to_bits(),
                    "k = {k}"
                );
                assert_eq!(alloc.bottleneck(f), 1, "hbm-like link freezes first");
            }
        }
    }

    #[test]
    fn private_links_bottleneck_before_a_roomy_shared_one() {
        // Two flows, private 256 Gb/s mesh links, shared 2048 HBM: the
        // mesh links freeze first (fair 256 < 1024) and each flow keeps
        // its whole private link.
        let topo = FlowTopology::custom(&[256.0, 256.0, 2048.0]);
        let routes = [FlowRoute::over(vec![0, 2]), FlowRoute::over(vec![1, 2])];
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        assert_eq!(alloc.share(0), 1.0);
        assert_eq!(alloc.share(1), 1.0);
        assert_eq!(alloc.allocated_gbps(0), 256.0);
        assert_eq!(alloc.link_allocated_gbps(2), 512.0);
    }

    #[test]
    fn colocated_flows_halve_their_shared_private_link() {
        let topo = FlowTopology::custom(&[256.0, 256.0, 2048.0]);
        let routes = [FlowRoute::over(vec![0, 2]), FlowRoute::over(vec![0, 2])];
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        assert_eq!(alloc.share(0).to_bits(), 0.5f64.to_bits());
        assert_eq!(alloc.share(1).to_bits(), 0.5f64.to_bits());
        assert_eq!(alloc.bottleneck(0), 0);
    }

    #[test]
    fn water_filling_refills_after_a_freeze() {
        // Flow 0 is frozen at 10 by its private link; flows 1 and 2
        // then split the remaining 90 of the shared link.
        let topo = FlowTopology::custom(&[10.0, 100.0]);
        let routes = [
            FlowRoute::over(vec![0, 1]),
            FlowRoute::over(vec![1]),
            FlowRoute::over(vec![1]),
        ];
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        assert_eq!(alloc.allocated_gbps(0), 10.0);
        assert!((alloc.allocated_gbps(1) - 45.0).abs() < 1e-9);
        assert!((alloc.allocated_gbps(2) - 45.0).abs() < 1e-9);
        assert!(alloc.link_allocated_gbps(1) <= 100.0 + 1e-9);
    }

    #[test]
    fn platform_topologies_enumerate_expected_links() {
        let cfg = PlatformConfig::paper_table1();
        let siph = FlowTopology::for_platform(&cfg, Platform::Siph2p5D).expect("siph topo");
        // 8 per-chiplet gateway links + memtx + hbm.
        assert_eq!(siph.links().len(), 10);
        assert!(siph.links().iter().any(|l| l.label == "hbm"));
        assert_eq!(
            siph.links()[0].capacity_gbps,
            4.0 * 64.0 * 12.0,
            "4 gateways x 64 wavelengths x 12 Gb/s"
        );
        let elec = FlowTopology::for_platform(&cfg, Platform::Elec2p5D).expect("elec topo");
        // Every chiplet is reachable and hbm is shared.
        let route = elec.route_for_chiplets(&[0, 7]);
        assert!(!route.is_empty());
        let mono = FlowTopology::for_platform(&cfg, Platform::Monolithic).expect("mono topo");
        assert_eq!(mono.links().len(), 2); // bus + hbm
                                           // All monolithic routes are identical regardless of placement.
        assert_eq!(
            mono.route_for_chiplets(&[0]),
            mono.route_for_chiplets(&[3, 4, 5])
        );
    }

    #[test]
    fn elec_spread_vs_colocated_differentiates() {
        // Conv5 chiplets 3 and 4 sit at (0,1) and (2,1) — one hop from
        // the (1,1) memory chiplet over disjoint first hops. Spread
        // placements therefore keep whole private mesh links; a
        // colocated pair halves one.
        let cfg = PlatformConfig::paper_table1();
        let topo = FlowTopology::for_platform(&cfg, Platform::Elec2p5D).expect("elec topo");
        let spread = max_min_shares(
            &topo,
            &[topo.route_for_chiplets(&[3]), topo.route_for_chiplets(&[4])],
        )
        .expect("spread solves");
        assert_eq!(spread.share(0), 1.0);
        assert_eq!(spread.share(1), 1.0);
        let colocated = max_min_shares(
            &topo,
            &[topo.route_for_chiplets(&[3]), topo.route_for_chiplets(&[3])],
        )
        .expect("colocated solves");
        assert_eq!(colocated.share(0).to_bits(), 0.5f64.to_bits());
        assert!(topo.links()[colocated.bottleneck(0)]
            .label
            .starts_with("mesh:"));
    }

    #[test]
    fn siph_residents_always_bottleneck_on_hbm() {
        // Gateway links (3072 Gb/s each) always out-provision the HBM
        // aggregate (2048), so on the photonic platform every resident
        // set freezes together at HBM with exactly uniform shares —
        // flow-level sharing ≡ the uniform model there, honestly.
        let cfg = PlatformConfig::paper_table1();
        let topo = FlowTopology::for_platform(&cfg, Platform::Siph2p5D).expect("siph topo");
        let routes: Vec<FlowRoute> = (0..3).map(|c| topo.route_for_chiplets(&[c])).collect();
        let alloc = max_min_shares(&topo, &routes).expect("solves");
        for f in 0..3 {
            assert_eq!(alloc.share(f).to_bits(), (1.0f64 / 3.0).to_bits());
            assert_eq!(topo.links()[alloc.bottleneck(f)].label, "hbm");
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let topo = FlowTopology::custom(&[100.0]);
        let err = max_min_shares(&topo, &[FlowRoute::over(vec![])]).unwrap_err();
        assert!(err.to_string().contains("no links"));
        let err = max_min_shares(&topo, &[FlowRoute::over(vec![3])]).unwrap_err();
        assert!(err.to_string().contains("unknown link"));
        let bad = FlowTopology::custom(&[0.0]);
        assert!(bad.validate().is_err());
        assert!(FlowTopology::custom(&[]).validate().is_err());
        assert!(FlowTopology::custom(&[f64::NAN]).validate().is_err());
    }

    #[test]
    fn contention_for_carries_bottleneck_attribution() {
        let topo = FlowTopology::custom(&[256.0, 2048.0]);
        let alloc = max_min_shares(&topo, &[FlowRoute::over(vec![0, 1])]).expect("solves");
        let c = alloc.contention_for(&topo, 0, 0.5);
        assert_eq!(c.bandwidth_share(), 1.0);
        let (link, gbps) = c.bottleneck().expect("attributed");
        assert_eq!(link, "link0");
        assert_eq!(gbps, 256.0);
        c.validate().expect("valid shares");
    }
}
