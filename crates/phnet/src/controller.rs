//! Epoch-based reconfiguration controller.
//!
//! ReSiPI (paper §IV) monitors inter-chiplet traffic in time epochs and
//! activates only the gateways the observed demand needs, retuning the
//! PCM couplers and dimming the laser accordingly. PROWAVES achieves a
//! similar effect by scaling the number of active *wavelengths* instead.
//! Both are implemented here, alongside static baselines, so the
//! policies can be compared (ablation A3 in the docs/ARCHITECTURE.md
//! experiment index).

use lumos_photonics::pcmc::PcmCoupler;

/// How the interposer adapts to traffic load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigPolicy {
    /// ReSiPI: per-chiplet gateway activation via PCM couplers.
    ResipiGateways,
    /// PROWAVES: global wavelength scaling (all gateways stay active).
    ProwavesWavelengths,
    /// Everything always on (maximum bandwidth, maximum power).
    StaticFull,
    /// One gateway per chiplet, all wavelengths (minimum-power static).
    StaticMin,
}

/// The fewest wavelengths PROWAVES keeps lit per gateway, to keep its
/// links alive however light the load.
const PROWAVES_MIN_WAVELENGTHS: usize = 4;

impl ReconfigPolicy {
    /// The fewest wavelengths per gateway the policy ever leaves active
    /// on an interposer of `total`: 4 (or `total`, if fewer) under
    /// PROWAVES, `total` under every other policy, which never scales
    /// wavelengths.
    ///
    /// ```
    /// use lumos_phnet::controller::ReconfigPolicy;
    ///
    /// assert_eq!(ReconfigPolicy::ProwavesWavelengths.min_wavelengths(64), 4);
    /// assert_eq!(ReconfigPolicy::ProwavesWavelengths.min_wavelengths(2), 2);
    /// assert_eq!(ReconfigPolicy::ResipiGateways.min_wavelengths(64), 64);
    /// ```
    pub fn min_wavelengths(self, total: usize) -> usize {
        match self {
            ReconfigPolicy::ProwavesWavelengths => PROWAVES_MIN_WAVELENGTHS.min(total),
            _ => total,
        }
    }
}

/// The active resource set chosen for an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// Active writer/reader gateways per compute chiplet.
    pub gateways_per_chiplet: Vec<usize>,
    /// Active memory-side broadcast gateways.
    pub memory_gateways: usize,
    /// Active wavelengths per gateway.
    pub wavelengths: usize,
}

impl ActiveSet {
    /// Total active compute gateways.
    pub fn total_compute_gateways(&self) -> usize {
        self.gateways_per_chiplet.iter().sum()
    }
}

/// Cost of applying a reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReconfigCost {
    /// PCM write energy, joules.
    pub energy_j: f64,
    /// Stall before the new configuration is usable, nanoseconds.
    pub latency_ns: f64,
    /// Number of PCM couplers rewritten.
    pub pcmc_writes: usize,
}

/// Epoch-granularity controller state.
///
/// # Examples
///
/// ```
/// use lumos_phnet::controller::{EpochController, ReconfigPolicy};
///
/// let mut ctl = EpochController::new(ReconfigPolicy::ResipiGateways, 8, 4, 4, 64);
/// // A light epoch: only one chiplet moves data.
/// let demand = vec![100_000_000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
/// let (set, cost) = ctl.plan_epoch(&demand, 768.0);
/// assert_eq!(set.gateways_per_chiplet[0], 1); // 100 Mb/s << one gateway
/// assert!(set.gateways_per_chiplet[1..].iter().all(|&g| g == 1));
/// assert!(cost.pcmc_writes > 0); // scaled down from the full boot state
/// ```
#[derive(Debug, Clone)]
pub struct EpochController {
    policy: ReconfigPolicy,
    chiplets: usize,
    gateways_per_chiplet: usize,
    memory_gateways: usize,
    wavelengths: usize,
    current: ActiveSet,
    pcmc: PcmCoupler,
}

impl EpochController {
    /// Creates a controller booted in the all-on state.
    ///
    /// # Panics
    ///
    /// Panics if any capacity argument is zero.
    pub fn new(
        policy: ReconfigPolicy,
        chiplets: usize,
        gateways_per_chiplet: usize,
        memory_gateways: usize,
        wavelengths: usize,
    ) -> Self {
        assert!(
            chiplets > 0 && gateways_per_chiplet > 0 && memory_gateways > 0 && wavelengths > 0,
            "controller capacities must be positive"
        );
        EpochController {
            policy,
            chiplets,
            gateways_per_chiplet,
            memory_gateways,
            wavelengths,
            current: ActiveSet {
                gateways_per_chiplet: vec![gateways_per_chiplet; chiplets],
                memory_gateways,
                wavelengths,
            },
            pcmc: PcmCoupler::typical(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> ReconfigPolicy {
        self.policy
    }

    /// The currently active resource set.
    pub fn current(&self) -> &ActiveSet {
        &self.current
    }

    /// Plans the next epoch from the observed per-chiplet demand (bits
    /// per second each compute chiplet wants to move) and the gateway
    /// line rate in Gb/s. Returns the chosen set and the cost of
    /// switching to it (zero when unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `demand_bps.len()` differs from the chiplet count.
    pub fn plan_epoch(
        &mut self,
        demand_bps: &[f64],
        gateway_gbps: f64,
    ) -> (ActiveSet, ReconfigCost) {
        assert_eq!(
            demand_bps.len(),
            self.chiplets,
            "demand vector must cover every chiplet"
        );
        let target = match self.policy {
            ReconfigPolicy::StaticFull => ActiveSet {
                gateways_per_chiplet: vec![self.gateways_per_chiplet; self.chiplets],
                memory_gateways: self.memory_gateways,
                wavelengths: self.wavelengths,
            },
            ReconfigPolicy::StaticMin => ActiveSet {
                gateways_per_chiplet: vec![1; self.chiplets],
                memory_gateways: 1,
                wavelengths: self.wavelengths,
            },
            ReconfigPolicy::ResipiGateways => {
                let per_gateway = gateway_gbps * 1e9;
                let gws: Vec<usize> = demand_bps
                    .iter()
                    .map(|&d| {
                        ((d / per_gateway).ceil() as usize).clamp(1, self.gateways_per_chiplet)
                    })
                    .collect();
                let total_demand: f64 = demand_bps.iter().sum();
                let mem =
                    ((total_demand / per_gateway).ceil() as usize).clamp(1, self.memory_gateways);
                ActiveSet {
                    gateways_per_chiplet: gws,
                    memory_gateways: mem,
                    wavelengths: self.wavelengths,
                }
            }
            ReconfigPolicy::ProwavesWavelengths => {
                // Scale wavelengths so the busiest chiplet's full gateway
                // complement covers its demand, down to the policy's floor.
                let per_lambda = self.rate_per_lambda(gateway_gbps) * 1e9;
                let busiest = demand_bps.iter().cloned().fold(0.0, f64::max);
                let needed = busiest / (self.gateways_per_chiplet as f64 * per_lambda);
                let floor = self.policy.min_wavelengths(self.wavelengths);
                let lambdas = (needed.ceil() as usize).clamp(floor, self.wavelengths);
                ActiveSet {
                    gateways_per_chiplet: vec![self.gateways_per_chiplet; self.chiplets],
                    memory_gateways: self.memory_gateways,
                    wavelengths: lambdas,
                }
            }
        };
        let cost = self.apply(target.clone());
        (target, cost)
    }

    fn rate_per_lambda(&self, gateway_gbps: f64) -> f64 {
        gateway_gbps / self.wavelengths as f64
    }

    /// The cost of switching from `from` to `to`, a pure function of
    /// the two sets. Gateway-count changes rewrite one PCM coupler per
    /// gateway toggled (the tap fractions of the remaining chain also
    /// shift, but those writes overlap the same transition window); the
    /// stall is one PCM write latency when any coupler is rewritten.
    /// Wavelength-only changes (PROWAVES) and no change cost nothing.
    pub fn switch_cost(&self, from: &ActiveSet, to: &ActiveSet) -> ReconfigCost {
        let mut toggles = to.memory_gateways.abs_diff(from.memory_gateways);
        for (new, old) in to
            .gateways_per_chiplet
            .iter()
            .zip(&from.gateways_per_chiplet)
        {
            toggles += new.abs_diff(*old);
        }
        // The laser bank gates wavelengths electronically: no PCM write.
        if toggles == 0 {
            return ReconfigCost::default();
        }
        ReconfigCost {
            energy_j: self.pcmc.write_energy_nj * 1e-9 * toggles as f64,
            latency_ns: self.pcmc.write_latency_ns,
            pcmc_writes: toggles,
        }
    }

    /// Applies `target`, returning the switching cost
    /// ([`EpochController::switch_cost`] from the current set).
    fn apply(&mut self, target: ActiveSet) -> ReconfigCost {
        if target == self.current {
            return ReconfigCost::default();
        }
        let cost = self.switch_cost(&self.current, &target);
        self.current = target;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(v: &[f64]) -> Vec<f64> {
        v.to_vec()
    }

    #[test]
    fn resipi_scales_gateways_with_demand() {
        let mut c = EpochController::new(ReconfigPolicy::ResipiGateways, 4, 4, 4, 64);
        // 768 Gb/s per gateway. Demands: 0.1, 1, 2.5, 4 gateways' worth.
        let d = demand(&[76.8e9, 768e9, 1920e9, 3072e9]);
        let (set, _) = c.plan_epoch(&d, 768.0);
        assert_eq!(set.gateways_per_chiplet, vec![1, 1, 3, 4]);
        // Memory side covers the sum (7.6 gateways' worth, clamped to 4).
        assert_eq!(set.memory_gateways, 4);
    }

    #[test]
    fn resipi_idle_floors_at_one() {
        let mut c = EpochController::new(ReconfigPolicy::ResipiGateways, 3, 4, 2, 64);
        let (set, _) = c.plan_epoch(&demand(&[0.0, 0.0, 0.0]), 768.0);
        assert_eq!(set.gateways_per_chiplet, vec![1, 1, 1]);
        assert_eq!(set.memory_gateways, 1);
    }

    #[test]
    fn prowaves_scales_wavelengths_not_gateways() {
        let mut c = EpochController::new(ReconfigPolicy::ProwavesWavelengths, 2, 4, 2, 64);
        // Busiest chiplet wants 1/8 of its 4-gateway capacity.
        let (set, _) = c.plan_epoch(&demand(&[384e9, 10e9]), 768.0);
        assert_eq!(set.gateways_per_chiplet, vec![4, 4]);
        assert!(set.wavelengths < 64, "wavelengths should shrink");
        assert!(set.wavelengths >= 4);
        // Heavy load restores the full grid.
        let (set, _) = c.plan_epoch(&demand(&[3072e9, 3072e9]), 768.0);
        assert_eq!(set.wavelengths, 64);
    }

    #[test]
    fn prowaves_floor_fits_a_narrow_grid() {
        // Fewer wavelengths than the PROWAVES floor: it keeps them all.
        for total in 1..PROWAVES_MIN_WAVELENGTHS {
            let mut c = EpochController::new(ReconfigPolicy::ProwavesWavelengths, 2, 4, 2, total);
            for load in [0.0, 1e15] {
                let (set, _) = c.plan_epoch(&demand(&[load, 0.0]), 12.0 * total as f64);
                assert_eq!(set.wavelengths, total);
            }
        }
    }

    #[test]
    fn static_policies_never_reconfigure_after_boot() {
        for policy in [ReconfigPolicy::StaticFull, ReconfigPolicy::StaticMin] {
            let mut c = EpochController::new(policy, 2, 4, 2, 64);
            let (_, first) = c.plan_epoch(&demand(&[1e12, 0.0]), 768.0);
            let (_, second) = c.plan_epoch(&demand(&[0.0, 1e12]), 768.0);
            // StaticMin pays one boot transition (4→1 gateways); after
            // that, nothing ever changes.
            assert_eq!(second, ReconfigCost::default(), "{policy:?}");
            let _ = first;
        }
    }

    #[test]
    fn pcm_cost_scales_with_toggles() {
        let mut c = EpochController::new(ReconfigPolicy::ResipiGateways, 2, 4, 4, 64);
        // Boot state: all 4+4 compute, 4 memory. Scale down to 1+1 / 1.
        let (_, cost) = c.plan_epoch(&demand(&[0.0, 0.0]), 768.0);
        assert_eq!(cost.pcmc_writes, 3 + 3 + 3);
        assert!(cost.energy_j > 0.0);
        assert!(cost.latency_ns > 0.0);
        // Unchanged plan: free.
        let (_, cost2) = c.plan_epoch(&demand(&[0.0, 0.0]), 768.0);
        assert_eq!(cost2, ReconfigCost::default());
    }

    #[test]
    #[should_panic(expected = "must cover every chiplet")]
    fn demand_length_checked() {
        let mut c = EpochController::new(ReconfigPolicy::ResipiGateways, 3, 2, 2, 64);
        let _ = c.plan_epoch(&[0.0], 768.0);
    }
}
