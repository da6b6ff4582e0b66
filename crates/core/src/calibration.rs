//! Physical calibration constants.
//!
//! The paper states it "employ\[s\] the power model and power parameters
//! used in \[11\] and \[37\]" without publishing the constants. This module
//! collects every tunable of our bottom-up reconstruction in one place,
//! each with its literature provenance, so the Table 3 / Fig. 7
//! calibration is auditable. The `tables` binary of `lumos-bench` prints
//! the resulting Table 3 rows next to the paper's, and
//! `tests/goldens/tables.txt` pins them.

/// All device/system constants that are not part of the architectural
/// Table 1 configuration. None of them is a schedule: every layer
/// issues its weight and activation streams when it starts (paper §V),
/// as [`crate::runner`] documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Photonic MAC pass rate in GHz — how often a vector unit can load
    /// new operands and integrate a dot product. Bounded by DAC settling;
    /// CrossLight-class designs report 3–10 GS/s.
    pub mac_rate_ghz: f64,
    /// Per-lane DAC power, milliwatts (two DACs per lane: weight bank +
    /// input bank).
    pub dac_mw: f64,
    /// Per-unit ADC power, milliwatts (one output ADC per MAC unit).
    pub adc_mw_per_unit: f64,
    /// Per-lane laser share inside a MAC unit, milliwatts.
    pub mac_lane_laser_mw: f64,
    /// Per-ring thermal lock power inside MAC weight/input banks,
    /// milliwatts (two rings per lane).
    pub mac_ring_lock_mw: f64,
    /// Fraction of active MAC power an idle (but locked) unit still
    /// draws.
    pub unit_idle_frac: f64,
    /// Fixed per-layer overhead: scheduling, DAC bank loading, partial-sum
    /// setup, nanoseconds.
    pub layer_overhead_ns: u64,
    /// Request/response packet size of the electrical interposer
    /// protocol, bits (one 128-bit word per blocking request, cf. the
    /// active-interposer protocols of \[40\]).
    pub elec_packet_bits: u64,
    /// Aggregate static power of the electrical interposer's SerDes/PHY
    /// ports (36 chiplet ports at a few hundred mW each), watts.
    pub elec_phy_static_w: f64,
    /// Mesh hop pitch on the 2.5D electrical interposer, millimetres.
    pub hop_mm_2p5d: f64,
    /// Fraction of the 2.5D platform's MAC units the reticle-limited
    /// monolithic chip can host (the paper's motivation: monolithic
    /// scaling is yield/area bound).
    pub mono_unit_scale: f64,
    /// Monolithic chip's aggregate memory-distribution bandwidth, Gb/s
    /// (global on-chip buffer buses fed by the local HBM PHY).
    pub mono_mem_gbps: f64,
    /// Monolithic CrossLight's on-chip photonic network power floor
    /// (broadcast laser + ring tuning + SRAM banks), watts — the
    /// dominant terms of \[21\]'s power breakdown.
    pub mono_static_w: f64,
    /// Miscellaneous always-on digital power per platform (controllers,
    /// global buffers, partial-sum accumulators), watts.
    pub digital_static_w: f64,
    /// Communication/compute overlap margin: the ReSiPI demand estimate
    /// asks for enough bandwidth to deliver a layer's traffic in this
    /// fraction of its compute time (< 1 ⇒ headroom so streams never
    /// throttle compute).
    pub comm_overlap_margin: f64,
}

impl Calibration {
    /// The default calibration used for all paper-reproduction runs.
    pub fn paper() -> Self {
        Calibration {
            mac_rate_ghz: 5.0,
            dac_mw: 8.0,
            adc_mw_per_unit: 40.0,
            mac_lane_laser_mw: 0.8,
            mac_ring_lock_mw: 0.3,
            unit_idle_frac: 0.3,
            layer_overhead_ns: 400,
            elec_packet_bits: 128,
            elec_phy_static_w: 14.0,
            hop_mm_2p5d: 8.0,
            mono_unit_scale: 0.12,
            mono_mem_gbps: 1024.0,
            mono_static_w: 36.0,
            digital_static_w: 8.0,
            comm_overlap_margin: 0.5,
        }
    }

    /// The monolithic platform's effective unit count for `n` 2.5D
    /// units: scaled by [`mono_unit_scale`](Self::mono_unit_scale),
    /// rounded, at least one. The single definition shared by the
    /// runner's compute path and `lumos_serve`'s utilization
    /// denominators.
    pub fn mono_units(&self, n: usize) -> usize {
        ((n as f64 * self.mono_unit_scale).round() as usize).max(1)
    }

    /// Checks every constant against its physical range and names the
    /// first one outside it (`mac_rate_ghz = 0: MAC rate not positive
    /// and finite`).
    /// [`PlatformConfig::validate`](crate::config::PlatformConfig::validate)
    /// returns the reason as a
    /// [`CoreError::BadConfig`](crate::error::CoreError::BadConfig).
    ///
    /// # Errors
    ///
    /// The reason, naming the field and its value.
    pub(crate) fn check(&self) -> Result<(), String> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let fraction = |v: f64| (0.0..=1.0).contains(&v);
        require(
            positive(self.mac_rate_ghz),
            "mac_rate_ghz",
            self.mac_rate_ghz,
            "MAC rate not positive and finite",
        )?;
        require(
            self.dac_mw >= 0.0,
            "dac_mw",
            self.dac_mw,
            "DAC power negative or NaN",
        )?;
        require(
            fraction(self.unit_idle_frac),
            "unit_idle_frac",
            self.unit_idle_frac,
            "idle fraction not in [0, 1]",
        )?;
        require(
            fraction(self.mono_unit_scale) && self.mono_unit_scale > 0.0,
            "mono_unit_scale",
            self.mono_unit_scale,
            "mono scale not in (0, 1]",
        )?;
        require(
            self.elec_packet_bits > 0,
            "elec_packet_bits",
            self.elec_packet_bits,
            "packet size not positive",
        )?;
        require(
            positive(self.hop_mm_2p5d),
            "hop_mm_2p5d",
            self.hop_mm_2p5d,
            "hop pitch not positive and finite",
        )?;
        require(
            positive(self.mono_mem_gbps),
            "mono_mem_gbps",
            self.mono_mem_gbps,
            "mono memory bandwidth not positive and finite",
        )?;
        require(
            self.mono_static_w >= 0.0,
            "mono_static_w",
            self.mono_static_w,
            "mono static power negative or NaN",
        )?;
        require(
            self.comm_overlap_margin > 0.0 && self.comm_overlap_margin <= 1.0,
            "comm_overlap_margin",
            self.comm_overlap_margin,
            "overlap margin not in (0, 1]",
        )
    }

    /// Validates the calibration.
    ///
    /// # Panics
    ///
    /// Panics when a constant is outside its physical range, naming
    /// it; [`PlatformConfig::validate`](crate::config::PlatformConfig::validate)
    /// returns the same reason as an error.
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

impl Default for Calibration {
    fn default() -> Self {
        Calibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        Calibration::paper().validate();
    }

    #[test]
    #[should_panic(expected = "mono scale")]
    fn bad_mono_scale_rejected() {
        let mut c = Calibration::paper();
        c.mono_unit_scale = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "MAC rate")]
    fn bad_rate_rejected() {
        let mut c = Calibration::paper();
        c.mac_rate_ghz = 0.0;
        c.validate();
    }
}
