//! Photonic interposer configuration.

use lumos_photonics::modulator::ModulationFormat;

use crate::controller::ReconfigPolicy;

/// Static configuration of the silicon-photonic interposer network
/// (paper §V, Figs. 3/5/6 and Table 1).
///
/// # Examples
///
/// ```
/// use lumos_phnet::config::PhnetConfig;
///
/// let cfg = PhnetConfig::paper_table1();
/// assert_eq!(cfg.wavelengths, 64);
/// assert_eq!(cfg.rate_gbps, 12.0);
/// assert_eq!(cfg.gateway_rate_gbps(), 64.0 * 12.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhnetConfig {
    /// Number of compute chiplets on the interposer.
    pub compute_chiplets: usize,
    /// Writer/reader gateway pairs per compute chiplet (Table 1 implies 4:
    /// MACs-per-chiplet / MACs-per-gateway = 4 for every chiplet class).
    pub gateways_per_chiplet: usize,
    /// Broadcast (SWMR) modulator rows on the memory chiplet's MRG. The
    /// paper's Fig. 6 example shows one row for a five-chiplet system; we
    /// scale it so each gateway *lane* has its own broadcast tree.
    pub memory_tx_gateways: usize,
    /// WDM wavelengths per gateway (Table 1: 64).
    pub wavelengths: usize,
    /// Optical data rate per wavelength in Gb/s (Table 1: 12).
    pub rate_gbps: f64,
    /// Gateway digital frequency in GHz (Table 1: 2).
    pub gateway_freq_ghz: f64,
    /// One-way electronic↔photonic conversion + buffering latency per
    /// gateway crossing, nanoseconds.
    pub conversion_latency_ns: u64,
    /// Reconfiguration policy of the controller.
    pub policy: ReconfigPolicy,
    /// Traffic-monitoring epoch length in microseconds (ReSiPI monitors
    /// inter-chiplet traffic "in time epochs").
    pub epoch_us: u64,
    /// Centre-to-centre chiplet pitch on the interposer, millimetres.
    pub chiplet_pitch_mm: f64,
    /// Line modulation format (the paper's interposer uses OOK).
    pub modulation: ModulationFormat,
    /// Loaded Q of the MRG filter rings.
    pub ring_q: u32,
    /// Per-wavelength laser facet power ceiling, dBm (nonlinearity limit).
    pub max_laser_dbm: f64,
    /// SerDes + gateway digital datapath energy per bit, femtojoules.
    pub serdes_fj_per_bit: f64,
    /// Static digital power per active gateway, milliwatts.
    pub gateway_static_mw: f64,
    /// Per-ring thermal locking power, milliwatts (fabrication-variation
    /// compensation, averaged).
    pub ring_lock_mw: f64,
}

impl PhnetConfig {
    /// The paper's Table 1 design point.
    pub fn paper_table1() -> Self {
        PhnetConfig {
            compute_chiplets: 8,
            gateways_per_chiplet: 4,
            memory_tx_gateways: 4,
            wavelengths: 64,
            rate_gbps: 12.0,
            gateway_freq_ghz: 2.0,
            conversion_latency_ns: 8,
            policy: ReconfigPolicy::ResipiGateways,
            epoch_us: 5,
            chiplet_pitch_mm: 8.0,
            modulation: ModulationFormat::Ook,
            ring_q: 12_000,
            max_laser_dbm: 20.0,
            serdes_fj_per_bit: 600.0,
            gateway_static_mw: 200.0,
            ring_lock_mw: 2.0,
        }
    }

    /// Aggregate data rate of one gateway in Gb/s.
    pub fn gateway_rate_gbps(&self) -> f64 {
        self.wavelengths as f64 * self.rate_gbps
    }

    /// Total writer gateways across all compute chiplets.
    pub fn total_compute_gateways(&self) -> usize {
        self.compute_chiplets * self.gateways_per_chiplet
    }

    /// Total microring count across all MRGs (modulators + filters), used
    /// for tuning-power accounting:
    ///
    /// * memory MRG: `memory_tx_gateways` modulator rows + one filter row
    ///   per compute writer gateway (Fig. 6),
    /// * each compute gateway: one modulator row + one filter row.
    pub fn total_rings(&self) -> usize {
        let mem = (self.memory_tx_gateways + self.total_compute_gateways()) * self.wavelengths;
        let compute = self.total_compute_gateways() * 2 * self.wavelengths;
        mem + compute
    }

    /// Checks internal consistency and names the first field no
    /// hardware could implement (`wavelengths = 0: need at least one
    /// wavelength`).
    ///
    /// # Errors
    ///
    /// The reason, naming the field and its value.
    pub fn check(&self) -> Result<(), String> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        require(
            self.compute_chiplets > 0,
            "compute_chiplets",
            self.compute_chiplets,
            "need at least one compute chiplet",
        )?;
        require(
            self.gateways_per_chiplet > 0,
            "gateways_per_chiplet",
            self.gateways_per_chiplet,
            "need at least one gateway",
        )?;
        require(
            self.memory_tx_gateways > 0,
            "memory_tx_gateways",
            self.memory_tx_gateways,
            "need at least one memory gateway",
        )?;
        require(
            self.wavelengths > 0,
            "wavelengths",
            self.wavelengths,
            "need at least one wavelength",
        )?;
        require(
            positive(self.rate_gbps),
            "rate_gbps",
            self.rate_gbps,
            "rate not positive and finite",
        )?;
        require(
            self.epoch_us > 0,
            "epoch_us",
            self.epoch_us,
            "epoch not positive",
        )?;
        require(
            positive(self.chiplet_pitch_mm),
            "chiplet_pitch_mm",
            self.chiplet_pitch_mm,
            "pitch not positive and finite",
        )
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a configuration no hardware could implement (zero
    /// counts, non-positive rates), with the reason
    /// [`PhnetConfig::check`] gives.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

/// `Ok` when `ok`, else the reason `field = value: what`.
fn require(ok: bool, field: &str, value: impl std::fmt::Display, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{field} = {value}: {what}"))
    }
}

impl Default for PhnetConfig {
    fn default() -> Self {
        PhnetConfig::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_point() {
        let c = PhnetConfig::paper_table1();
        c.validate();
        assert_eq!(c.compute_chiplets, 8);
        assert_eq!(c.total_compute_gateways(), 32);
        assert_eq!(c.gateway_rate_gbps(), 768.0);
    }

    #[test]
    fn ring_census() {
        let c = PhnetConfig::paper_table1();
        // memory: (4 + 32) rows × 64 rings; compute: 32 gateways × 2 × 64.
        assert_eq!(c.total_rings(), 36 * 64 + 64 * 64);
    }

    #[test]
    #[should_panic(expected = "at least one wavelength")]
    fn zero_wavelengths_rejected() {
        let mut c = PhnetConfig::paper_table1();
        c.wavelengths = 0;
        c.validate();
    }
}
