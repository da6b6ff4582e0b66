//! The reconfigurable photonic interposer simulator.
//!
//! Ties together the layout (loss budgets → laser power), the epoch
//! controller (active gateways/wavelengths), and FIFO bandwidth servers
//! (transfer serialization) into the network object the platform
//! simulator drives. Implements the paper's two protocols:
//!
//! * **SWMR reads** — the memory MRG modulates once and every addressed
//!   reader receives the stream (true broadcast, no replication);
//! * **SWSR writes** — each compute writer gateway owns a dedicated
//!   waveguide into a memory filter row.

use lumos_photonics::laser::{Laser, LaserPlacement};
use lumos_photonics::link::{solve_link, LinkDesign, LinkError};
use lumos_photonics::modulator::Modulator;
use lumos_photonics::photodetector::Photodetector;
use lumos_photonics::wdm::ChannelPlan;
use lumos_sim::{ServerPool, SimTime, TimeWeighted};

use crate::config::PhnetConfig;
use crate::controller::{ActiveSet, EpochController, ReconfigCost};
use crate::layout::InterposerLayout;

/// Outcome of one interposer transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhTransfer {
    /// When serialization started at the writer gateway.
    pub start: SimTime,
    /// When the last bit was delivered (including conversions + flight).
    pub finish: SimTime,
}

/// Final report of a simulation run over the interposer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhnetReport {
    /// Total network energy: laser/tuning/static integrated over time +
    /// per-bit EO/OE + PCM reconfiguration writes, joules.
    pub energy_j: f64,
    /// Time-averaged network power over the run, watts.
    pub avg_power_w: f64,
}

/// The photonic interposer network.
///
/// # Examples
///
/// ```
/// use lumos_phnet::{config::PhnetConfig, network::PhotonicInterposer};
/// use lumos_sim::SimTime;
///
/// let mut net = PhotonicInterposer::new(PhnetConfig::paper_table1())?;
/// let t = net.read_unicast(SimTime::ZERO, 0, 1 << 20);
/// assert!(t.finish > t.start);
/// let report = net.finalize(t.finish);
/// assert!(report.avg_power_w > 0.0);
/// # Ok::<(), lumos_photonics::link::LinkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhotonicInterposer {
    cfg: PhnetConfig,
    layout: InterposerLayout,
    swmr_design: LinkDesign,
    swsr_design: LinkDesign,
    mem_tx: ServerPool,
    chiplet_tx: Vec<ServerPool>,
    controller: EpochController,
    /// Instantaneous laser + tuning + gateway-static power, watts.
    idle_power: TimeWeighted,
    eo_oe_j_per_bit: f64,
    eo_oe_accum: f64,
    reconfig_energy_j: f64,
    conversion: SimTime,
    flight: SimTime,
}

impl PhotonicInterposer {
    /// Builds the interposer, solving both link budgets up front.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the Table-1-style design point is not
    /// optically feasible (a channel grid that leaves the band, crosstalk,
    /// detector bandwidth, or laser power ceiling).
    pub fn new(cfg: PhnetConfig) -> Result<Self, LinkError> {
        cfg.validate();
        let layout = InterposerLayout::from_config(&cfg);
        let plan = ChannelPlan::dense(cfg.wavelengths)?;
        let modulator = Modulator::typical(cfg.modulation);
        let detector = Photodetector::typical();
        let laser = Laser::new(LaserPlacement::OffChip, cfg.wavelengths);

        let swmr_design = solve_link(
            &layout.swmr_budget,
            &plan,
            cfg.rate_gbps,
            &modulator,
            &detector,
            &laser,
            cfg.ring_q,
            cfg.max_laser_dbm,
        )?;
        let swsr_design = solve_link(
            &layout.swsr_budget,
            &plan,
            cfg.rate_gbps,
            &modulator,
            &detector,
            &laser,
            cfg.ring_q,
            cfg.max_laser_dbm,
        )?;

        let gateway_gbps = cfg.gateway_rate_gbps();
        let mem_tx = ServerPool::new(cfg.memory_tx_gateways, gateway_gbps);
        let chiplet_tx =
            vec![ServerPool::new(cfg.gateways_per_chiplet, gateway_gbps); cfg.compute_chiplets];
        let controller = EpochController::new(
            cfg.policy,
            cfg.compute_chiplets,
            cfg.gateways_per_chiplet,
            cfg.memory_tx_gateways,
            cfg.wavelengths,
        );

        // Per-bit electronic cost of one gateway-to-gateway crossing:
        // modulator drive + receiver + SerDes/datapath on both sides.
        let eo_oe_j_per_bit = modulator.energy.as_joules()
            + detector.receiver_energy.as_joules()
            + 2.0 * cfg.serdes_fj_per_bit * 1e-15;

        let conversion = SimTime::from_ns(2 * cfg.conversion_latency_ns);
        let flight = SimTime::from_ps((layout.flight_ns * 1e3).round() as u64);

        let mut net = PhotonicInterposer {
            cfg,
            layout,
            swmr_design,
            swsr_design,
            mem_tx,
            chiplet_tx,
            controller,
            idle_power: TimeWeighted::new(SimTime::ZERO, 0.0),
            eo_oe_j_per_bit,
            eo_oe_accum: 0.0,
            reconfig_energy_j: 0.0,
            conversion,
            flight,
        };
        let boot = net.controller.current().clone();
        let p = net.static_power_of(&boot);
        net.idle_power = TimeWeighted::new(SimTime::ZERO, p);
        Ok(net)
    }

    /// The configuration in force.
    pub fn config(&self) -> &PhnetConfig {
        &self.cfg
    }

    /// The derived layout (loss budgets, flight time).
    pub fn layout(&self) -> &InterposerLayout {
        &self.layout
    }

    /// Solved SWMR link design (per broadcast lane).
    pub fn swmr_design(&self) -> &LinkDesign {
        &self.swmr_design
    }

    /// Solved SWSR link design (per writer gateway).
    pub fn swsr_design(&self) -> &LinkDesign {
        &self.swsr_design
    }

    /// The controller's currently active resource set.
    pub fn active_set(&self) -> &ActiveSet {
        self.controller.current()
    }

    /// Instantaneous idle (laser + tuning + gateway static) power of an
    /// active set, in watts.
    ///
    /// * Lasers: one SWMR tree per active memory gateway, one SWSR feed
    ///   per active compute writer gateway; PROWAVES-style wavelength
    ///   scaling dims both proportionally.
    /// * Ring tuning: only the MRG rows of active gateways are locked.
    /// * Gateway digital static power per active gateway (+ memory side).
    pub fn static_power_of(&self, set: &ActiveSet) -> f64 {
        let lambda_frac = set.wavelengths as f64 / self.cfg.wavelengths as f64;
        let active_cgw = set.total_compute_gateways() as f64;
        let laser = self.swmr_design.laser_electrical_w * set.memory_gateways as f64
            + self.swsr_design.laser_electrical_w * active_cgw;
        let laser = laser * lambda_frac;

        let rings_per_gateway = 2.0 * self.cfg.wavelengths as f64; // mod + filter rows
        let mem_rings = (set.memory_gateways as f64 + active_cgw) * self.cfg.wavelengths as f64;
        let active_rings = active_cgw * rings_per_gateway + mem_rings;
        let tuning = active_rings * self.cfg.ring_lock_mw * 1e-3;

        let digital = (active_cgw + set.memory_gateways as f64) * self.cfg.gateway_static_mw * 1e-3;
        laser + tuning + digital
    }

    /// Re-plans the active set from per-chiplet demand (bits/s each
    /// compute chiplet needs to move this epoch/layer). Returns the stall
    /// the caller must absorb before issuing transfers (PCM write
    /// latency; zero when nothing changed).
    pub fn reconfigure(&mut self, at: SimTime, demand_bps: &[f64]) -> SimTime {
        let gateway_gbps = self.cfg.gateway_rate_gbps();
        let (set, cost) = self.controller.plan_epoch(demand_bps, gateway_gbps);
        self.apply_set(at, &set, &cost)
    }

    /// The stall a switch from active set `from` to `to` costs: what
    /// [`PhotonicInterposer::reconfigure`] returns when it moves the
    /// interposer from `from` to `to`, computed without moving it. A
    /// pure function of the two sets
    /// ([`EpochController::switch_cost`]), zero when no PCM coupler is
    /// rewritten.
    pub fn switch_stall(&self, from: &ActiveSet, to: &ActiveSet) -> SimTime {
        stall_of(&self.controller.switch_cost(from, to))
    }

    fn apply_set(&mut self, at: SimTime, set: &ActiveSet, cost: &ReconfigCost) -> SimTime {
        let lambda_rate = set.wavelengths as f64 * self.cfg.rate_gbps;
        self.mem_tx.set_active(set.memory_gateways);
        self.mem_tx.set_rate_gbps(lambda_rate);
        for (pool, &g) in self.chiplet_tx.iter_mut().zip(&set.gateways_per_chiplet) {
            pool.set_active(g);
            pool.set_rate_gbps(lambda_rate);
        }
        self.reconfig_energy_j += cost.energy_j;
        let stall = stall_of(cost);
        let when = at + stall;
        let p = self.static_power_of(set);
        self.idle_power.set(when, p);
        stall
    }

    /// Per-transfer latency overhead: E-O + O-E conversion and photon
    /// flight.
    fn overhead(&self) -> SimTime {
        self.conversion + self.flight
    }

    /// Streams `bits` from memory to **one** chiplet, striped across the
    /// active broadcast lanes (each chiplet has a reader on every lane).
    pub fn read_unicast(&mut self, at: SimTime, chiplet: usize, bits: u64) -> PhTransfer {
        assert!(chiplet < self.cfg.compute_chiplets, "chiplet out of range");
        if bits == 0 {
            return PhTransfer {
                start: at,
                finish: at,
            };
        }
        let grant = self.mem_tx.serve_striped(at, bits);
        self.account_unicast(bits);
        PhTransfer {
            start: grant.start,
            finish: grant.finish + self.overhead(),
        }
    }

    /// Broadcasts `bits` from memory to every compute chiplet at once
    /// (SWMR): one serialization on one lane serves all readers — the
    /// photonic advantage over electrical replication.
    pub fn read_broadcast(&mut self, at: SimTime, bits: u64) -> PhTransfer {
        if bits == 0 {
            return PhTransfer {
                start: at,
                finish: at,
            };
        }
        let grant = self.mem_tx.serve(at, bits);
        self.account_broadcast(bits);
        PhTransfer {
            start: grant.start,
            finish: grant.finish + self.overhead(),
        }
    }

    /// Streams `bits` from a compute chiplet back to memory (SWSR),
    /// striped over the chiplet's active writer gateways.
    ///
    /// # Panics
    ///
    /// Panics if `chiplet` is out of range.
    pub fn write(&mut self, at: SimTime, chiplet: usize, bits: u64) -> PhTransfer {
        assert!(chiplet < self.cfg.compute_chiplets, "chiplet out of range");
        if bits == 0 {
            return PhTransfer {
                start: at,
                finish: at,
            };
        }
        let grant = self.chiplet_tx[chiplet].serve_striped(at, bits);
        self.account_write(bits);
        PhTransfer {
            start: grant.start,
            finish: grant.finish + self.overhead(),
        }
    }

    /// Permanently caps the usable gateways of `chiplet` (failure
    /// injection: ReSiPI reroutes around a dead gateway by never
    /// activating it again).
    ///
    /// # Panics
    ///
    /// Panics if `chiplet` is out of range.
    pub fn fail_gateways(&mut self, chiplet: usize, surviving: usize) {
        assert!(chiplet < self.cfg.compute_chiplets, "chiplet out of range");
        self.chiplet_tx[chiplet].set_active(surviving.max(1));
    }

    /// Charges a unicast read of `bits` (its EO/OE energy) without
    /// occupying a lane: the accounting half of
    /// [`PhotonicInterposer::read_unicast`], which calls it once per
    /// transfer. A caller that already knows a transfer's timing
    /// replays it with this alone; lane occupancy is left as it was. A
    /// zero-bit transfer charges nothing, here and in
    /// [`PhotonicInterposer::account_broadcast`] and
    /// [`PhotonicInterposer::account_write`].
    pub fn account_unicast(&mut self, bits: u64) {
        self.account_eo_oe(bits, 1);
    }

    /// The accounting half of [`PhotonicInterposer::read_broadcast`]:
    /// every chiplet's receiver burns O-E energy on the same stream.
    pub fn account_broadcast(&mut self, bits: u64) {
        self.account_eo_oe(bits, self.cfg.compute_chiplets as u64);
    }

    /// The accounting half of [`PhotonicInterposer::write`].
    pub fn account_write(&mut self, bits: u64) {
        self.account_eo_oe(bits, 1);
    }

    fn account_eo_oe(&mut self, bits: u64, receivers: u64) {
        if bits == 0 {
            return;
        }
        // Modulation happens once; reception on `receivers` gateways.
        let tx = self.eo_oe_j_per_bit * bits as f64;
        let rx_extra = (receivers.saturating_sub(1)) as f64
            * Photodetector::typical().receiver_energy.as_joules()
            * bits as f64;
        self.eo_oe_accum += tx + rx_extra;
    }

    /// Closes the books at `end` and returns the run report.
    pub fn finalize(&mut self, end: SimTime) -> PhnetReport {
        let idle_j = self.idle_power.integral_value_seconds(end);
        let energy = idle_j + self.eo_oe_accum + self.reconfig_energy_j;
        let secs = end.as_secs_f64();
        PhnetReport {
            energy_j: energy,
            avg_power_w: if secs > 0.0 { energy / secs } else { 0.0 },
        }
    }
}

/// A reconfiguration's stall on the picosecond clock.
fn stall_of(cost: &ReconfigCost) -> SimTime {
    SimTime::from_ps((cost.latency_ns * 1e3).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ReconfigPolicy;

    fn net() -> PhotonicInterposer {
        PhotonicInterposer::new(PhnetConfig::paper_table1()).expect("Table 1 point is feasible")
    }

    #[test]
    fn table1_design_is_feasible() {
        let n = net();
        assert!(n.swmr_design().laser_electrical_w > 0.0);
        assert!(n.swsr_design().laser_electrical_w < n.swmr_design().laser_electrical_w);
    }

    #[test]
    fn broadcast_is_single_serialization() {
        let mut n = net();
        let bits = 768_000_000; // 1 ms at one 768 Gb/s lane
        let b = n.read_broadcast(SimTime::ZERO, bits);
        let serial = b.finish.saturating_sub(b.start).as_ms_f64();
        assert!(
            (serial - 1.0).abs() < 0.01,
            "broadcast serialized {serial} ms"
        );
    }

    #[test]
    fn unicast_stripes_across_lanes() {
        let mut n = net();
        let bits = 768_000_000;
        let t = n.read_unicast(SimTime::ZERO, 0, bits);
        // 4 lanes active: ~0.25 ms.
        let ms = t.finish.saturating_sub(t.start).as_ms_f64();
        assert!(ms < 0.3, "unicast should stripe: {ms} ms");
    }

    #[test]
    fn writes_use_chiplet_gateways() {
        let mut n = net();
        let bits = 768_000_000;
        let a = n.write(SimTime::ZERO, 0, bits);
        let b = n.write(SimTime::ZERO, 1, bits);
        // Different chiplets write in parallel on their own waveguides.
        assert_eq!(a.start, b.start);
        let c = n.write(SimTime::ZERO, 0, bits);
        assert!(c.start > a.start, "same chiplet must queue");
    }

    #[test]
    fn reconfigure_scales_power_down_when_idle() {
        let mut n = net();
        let full = n.static_power_of(n.active_set());
        let demand = vec![0.0; 8];
        let stall = n.reconfigure(SimTime::from_us(10), &demand);
        assert!(stall > SimTime::ZERO, "scaling down rewrites PCMCs");
        let low = n.static_power_of(n.active_set());
        assert!(
            low < full / 2.0,
            "idle power should collapse: {low} vs {full}"
        );
    }

    #[test]
    fn switch_stall_is_the_reconfiguration_stall() {
        for policy in [
            ReconfigPolicy::ResipiGateways,
            ReconfigPolicy::ProwavesWavelengths,
            ReconfigPolicy::StaticFull,
            ReconfigPolicy::StaticMin,
        ] {
            let mut cfg = PhnetConfig::paper_table1();
            cfg.policy = policy;
            let mut n = PhotonicInterposer::new(cfg).expect("Table 1 point is feasible");
            let demands = [[0.0; 8], [1e9; 8], [1e13; 8], [1e13; 8], [0.0; 8]];
            for (i, demand) in demands.iter().enumerate() {
                let before = n.active_set().clone();
                let stall = n.reconfigure(SimTime::from_us(i as u64), demand);
                assert_eq!(
                    stall,
                    n.switch_stall(&before, n.active_set()),
                    "{policy:?} #{i}"
                );
                assert_eq!(n.switch_stall(&before, &before), SimTime::ZERO);
            }
        }
    }

    #[test]
    fn reduced_gateways_reduce_write_throughput() {
        let mut n = net();
        let _ = n.reconfigure(SimTime::ZERO, &[0.0; 8]);
        let bits = 768_000_000;
        let t = n.write(SimTime::from_us(1), 0, bits);
        // One gateway instead of four: ~1 ms.
        let ms = t.finish.saturating_sub(t.start).as_ms_f64();
        assert!(ms > 0.9, "throughput should drop: {ms} ms");
    }

    #[test]
    fn static_full_never_scales() {
        let mut cfg = PhnetConfig::paper_table1();
        cfg.policy = ReconfigPolicy::StaticFull;
        let mut n =
            PhotonicInterposer::new(cfg).expect("Table 1 interposer closes its link budget");
        let before = n.static_power_of(n.active_set());
        let _ = n.reconfigure(SimTime::from_us(1), &[0.0; 8]);
        let after = n.static_power_of(n.active_set());
        assert_eq!(before, after);
    }

    #[test]
    fn prowaves_scales_wavelengths_and_rate() {
        let mut cfg = PhnetConfig::paper_table1();
        cfg.policy = ReconfigPolicy::ProwavesWavelengths;
        let mut n =
            PhotonicInterposer::new(cfg).expect("Table 1 interposer closes its link budget");
        let stall = n.reconfigure(SimTime::from_us(1), &[1e9; 8]); // tiny demand
        assert_eq!(stall, SimTime::ZERO, "wavelength gating has no PCM writes");
        assert!(n.active_set().wavelengths < 64);
        let bits = 768_000_000;
        let t = n.read_broadcast(SimTime::from_us(2), bits);
        let ms = t.finish.saturating_sub(t.start).as_ms_f64();
        assert!(ms > 2.0, "reduced wavelengths must reduce rate: {ms}");
    }

    #[test]
    fn energy_report_accumulates() {
        let mut n = net();
        let t = n.read_broadcast(SimTime::ZERO, 1 << 24);
        let report = n.finalize(t.finish + SimTime::from_us(10));
        assert!(report.energy_j > 0.0);
        assert!(report.avg_power_w > 0.0);
    }

    #[test]
    fn failed_gateways_cap_throughput() {
        let mut n = net();
        n.fail_gateways(2, 1);
        let bits = 768_000_000;
        let t = n.write(SimTime::ZERO, 2, bits);
        let ms = t.finish.saturating_sub(t.start).as_ms_f64();
        assert!(ms > 0.9, "failed gateways must throttle: {ms}");
    }

    #[test]
    fn infeasible_config_is_an_error() {
        let mut cfg = PhnetConfig::paper_table1();
        cfg.max_laser_dbm = -20.0; // absurd ceiling
        assert!(PhotonicInterposer::new(cfg).is_err());
    }

    #[test]
    fn zero_bit_transfers_are_noops() {
        let mut n = net();
        let t = n.read_broadcast(SimTime::from_ns(5), 0);
        assert_eq!(t.finish, SimTime::from_ns(5));
        let t = n.write(SimTime::from_ns(5), 0, 0);
        assert_eq!(t.finish, SimTime::from_ns(5));
    }
}
