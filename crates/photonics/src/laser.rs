//! Laser source models.
//!
//! Paper §II: off-chip lasers emit efficiently but pay a coupling loss
//! into the chip; on-chip lasers (VCSELs, microring lasers) integrate
//! densely but convert electrical power poorly. Either way, the laser is
//! usually the largest single consumer in a photonic network's power
//! budget, and ReSiPI/PROWAVES save energy by dimming or disabling
//! per-wavelength outputs that no active gateway needs.

use crate::units::{Decibels, OpticalPower};

/// Where the light source lives relative to the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaserPlacement {
    /// External comb/DFB bank: efficient emission, pays coupling loss.
    OffChip,
    /// Integrated VCSEL / microring laser: no coupling loss, poor
    /// wall-plug efficiency.
    OnChip,
}

/// A multi-wavelength laser bank with per-wavelength enable bits.
///
/// # Examples
///
/// ```
/// use lumos_photonics::laser::{Laser, LaserPlacement};
/// use lumos_photonics::units::OpticalPower;
///
/// let mut bank = Laser::new(LaserPlacement::OffChip, 64);
/// bank.set_output_per_wavelength(OpticalPower::from_dbm(3.0));
/// let all_on = bank.electrical_power_w();
/// bank.enable_only(16);
/// assert!(bank.electrical_power_w() < all_on / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Laser {
    wavelength_count: usize,
    enabled: usize,
    output_per_wavelength: OpticalPower,
    /// Electrical→optical wall-plug efficiency (0, 1].
    pub wall_plug_efficiency: f64,
    /// Fibre/grating coupling loss paid by off-chip lasers.
    pub coupling_loss: Decibels,
}

impl Laser {
    /// Creates a bank of `wavelength_count` sources, all enabled, emitting
    /// 0 dBm each, with placement-typical efficiency (10% off-chip, 5%
    /// on-chip) and coupling loss (1.5 dB off-chip, 0 dB on-chip).
    ///
    /// # Panics
    ///
    /// Panics if `wavelength_count == 0`.
    pub fn new(placement: LaserPlacement, wavelength_count: usize) -> Self {
        assert!(wavelength_count > 0, "laser bank needs >= 1 wavelength");
        let (eff, coupling) = match placement {
            LaserPlacement::OffChip => (0.10, Decibels::new(1.5)),
            LaserPlacement::OnChip => (0.05, Decibels::ZERO),
        };
        Laser {
            wavelength_count,
            enabled: wavelength_count,
            output_per_wavelength: OpticalPower::from_dbm(0.0),
            wall_plug_efficiency: eff,
            coupling_loss: coupling,
        }
    }

    /// Number of currently enabled wavelengths.
    pub fn enabled(&self) -> usize {
        self.enabled
    }

    /// Enables exactly the first `n` wavelengths (clamped to the bank
    /// size). PROWAVES-style wavelength scaling.
    pub fn enable_only(&mut self, n: usize) {
        self.enabled = n.min(self.wavelength_count);
    }

    /// Sets the emitted optical power per enabled wavelength (at the
    /// laser facet, before coupling loss).
    pub fn set_output_per_wavelength(&mut self, p: OpticalPower) {
        self.output_per_wavelength = p;
    }

    /// Electrical power drawn by the bank in watts
    /// (`optical / wall-plug efficiency`, enabled wavelengths only).
    pub fn electrical_power_w(&self) -> f64 {
        self.output_per_wavelength.as_watts() * self.enabled as f64 / self.wall_plug_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_chip_pays_coupling_loss() {
        let l = Laser::new(LaserPlacement::OffChip, 4);
        assert_eq!(l.coupling_loss, Decibels::new(1.5));
        let on_chip = Laser::new(LaserPlacement::OnChip, 4);
        assert_eq!(on_chip.coupling_loss, Decibels::ZERO);
    }

    #[test]
    fn electrical_power_scales_with_enabled() {
        let mut l = Laser::new(LaserPlacement::OffChip, 64);
        l.set_output_per_wavelength(OpticalPower::from_mw(1.0));
        let full = l.electrical_power_w();
        assert!((full - 64e-3 / 0.10).abs() < 1e-9);
        l.enable_only(16);
        assert!((l.electrical_power_w() - full / 4.0).abs() < 1e-9);
        l.enable_only(1000); // clamps
        assert_eq!(l.enabled(), 64);
    }

    #[test]
    fn on_chip_less_efficient() {
        let mut off = Laser::new(LaserPlacement::OffChip, 1);
        let mut on = Laser::new(LaserPlacement::OnChip, 1);
        off.set_output_per_wavelength(OpticalPower::from_mw(1.0));
        on.set_output_per_wavelength(OpticalPower::from_mw(1.0));
        assert!(on.electrical_power_w() > off.electrical_power_w());
    }

    #[test]
    #[should_panic(expected = ">= 1 wavelength")]
    fn empty_bank_rejected() {
        let _ = Laser::new(LaserPlacement::OffChip, 0);
    }
}
