//! Photodetector (PD) model.
//!
//! PDs convert optical signals back to electrical ones (paper §II). The
//! role modelled here is the *receiver* PD at a reader gateway: its
//! sensitivity and bandwidth bound the link budget, and its receiver
//! energy is charged per bit.

use crate::units::{EnergyPerBit, OpticalPower};

/// A PIN/APD photodetector with rate-dependent sensitivity.
///
/// The paper notes the bandwidth/efficiency trade-off: detecting faster
/// bit streams needs more optical power. We model sensitivity as a base
/// value at a reference rate plus a penalty of ~3 dB per rate doubling
/// (shot-noise limited scaling).
///
/// # Examples
///
/// ```
/// use lumos_photonics::photodetector::Photodetector;
///
/// let pd = Photodetector::typical();
/// let s10 = pd.sensitivity(10.0);
/// let s40 = pd.sensitivity(40.0);
/// assert!(s40.as_dbm() > s10.as_dbm()); // faster needs more power
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodetector {
    /// Sensitivity at the reference data rate, dBm.
    pub base_sensitivity_dbm: f64,
    /// Reference data rate for the base sensitivity, Gb/s.
    pub reference_rate_gbps: f64,
    /// Receiver energy (TIA + comparator) per bit.
    pub receiver_energy: EnergyPerBit,
    /// 3 dB bandwidth in GHz.
    pub bandwidth_ghz: f64,
}

impl Photodetector {
    /// A typical germanium-on-silicon PD: −20 dBm @ 10 Gb/s, 180 fJ/bit
    /// receiver, 40 GHz bandwidth.
    pub fn typical() -> Self {
        Photodetector {
            base_sensitivity_dbm: -20.0,
            reference_rate_gbps: 10.0,
            receiver_energy: EnergyPerBit::from_fj(180.0),
            bandwidth_ghz: 40.0,
        }
    }

    /// Minimum optical power needed to detect a stream at `rate_gbps`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_gbps` is not strictly positive and finite.
    pub fn sensitivity(&self, rate_gbps: f64) -> OpticalPower {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "data rate must be positive, got {rate_gbps}"
        );
        let penalty_db = 3.0 * (rate_gbps / self.reference_rate_gbps).log2().max(0.0);
        OpticalPower::from_dbm(self.base_sensitivity_dbm + penalty_db)
    }
}

impl Default for Photodetector {
    fn default() -> Self {
        Photodetector::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_penalty_per_doubling() {
        let pd = Photodetector::typical();
        let base = pd.sensitivity(10.0).as_dbm();
        let double = pd.sensitivity(20.0).as_dbm();
        assert!((double - base - 3.0).abs() < 1e-9);
        // No bonus below the reference rate.
        assert!((pd.sensitivity(5.0).as_dbm() - base).abs() < 1e-9);
    }
}
