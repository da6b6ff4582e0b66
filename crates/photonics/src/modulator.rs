//! Microring modulator and modulation formats.
//!
//! Paper §II and §V: the interposer transmits OOK for robustness, while
//! MAC units use amplitude levels (and PAM-4 is cited as the multilevel
//! option for boosting bandwidth at the cost of SNR margin).

use crate::units::{Decibels, EnergyPerBit};

/// Line modulation format of an optical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModulationFormat {
    /// On-off keying: one bit per symbol, the paper's interposer default.
    Ook,
    /// 4-level pulse-amplitude modulation: two bits per symbol, pays an
    /// SNR penalty (~4.8 dB ideal) at the receiver.
    Pam4,
}

impl ModulationFormat {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            ModulationFormat::Ook => 1,
            ModulationFormat::Pam4 => 2,
        }
    }

    /// Receiver power penalty relative to OOK at equal symbol rate.
    ///
    /// PAM-4 squeezes three eye openings into the amplitude range of one,
    /// costing `10·log10(3) ≈ 4.77 dB`.
    fn snr_penalty(self) -> Decibels {
        match self {
            ModulationFormat::Ook => Decibels::ZERO,
            ModulationFormat::Pam4 => Decibels::new(10.0 * 3f64.log10()),
        }
    }
}

/// A microring modulator: imprints data on one wavelength.
///
/// # Examples
///
/// ```
/// use lumos_photonics::modulator::{Modulator, ModulationFormat};
///
/// let m = Modulator::typical(ModulationFormat::Ook);
/// let p4 = Modulator::typical(ModulationFormat::Pam4);
/// assert_eq!(p4.format.bits_per_symbol(), 2);
/// assert!(p4.required_margin().value() > m.required_margin().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modulator {
    /// Modulation format.
    pub format: ModulationFormat,
    /// Insertion loss while modulating.
    pub insertion_loss: Decibels,
    /// Driver + device energy per bit.
    pub energy: EnergyPerBit,
    /// Extinction ratio of the modulated eye.
    pub extinction_ratio: Decibels,
}

impl Modulator {
    /// Typical depletion-mode MR modulator: 0.7 dB IL, 150 fJ/bit,
    /// 6 dB ER.
    pub fn typical(format: ModulationFormat) -> Self {
        Modulator {
            format,
            insertion_loss: Decibels::new(0.7),
            energy: EnergyPerBit::from_fj(150.0),
            extinction_ratio: Decibels::new(6.0),
        }
    }

    /// Extra receiver margin this format requires beyond the PD
    /// sensitivity (SNR penalty + finite-extinction penalty).
    ///
    /// Finite extinction ratio `ER` costs `10·log10((ER+1)/(ER−1))` dB in
    /// average-power terms.
    pub fn required_margin(&self) -> Decibels {
        let er = self.extinction_ratio.to_linear().recip(); // ER as ratio >1
        let er_penalty = 10.0 * ((er + 1.0) / (er - 1.0)).log10();
        self.format.snr_penalty() + Decibels::new(er_penalty)
    }

    /// Average electrical power in watts when transmitting at
    /// `data_rate_gbps`.
    pub fn power_w(&self, data_rate_gbps: f64) -> f64 {
        self.energy.power_watts(data_rate_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_symbol() {
        assert_eq!(ModulationFormat::Ook.bits_per_symbol(), 1);
        assert_eq!(ModulationFormat::Pam4.bits_per_symbol(), 2);
    }

    #[test]
    fn pam4_costs_snr_margin() {
        let ook = Modulator::typical(ModulationFormat::Ook);
        let pam = Modulator::typical(ModulationFormat::Pam4);
        let delta = pam.required_margin().value() - ook.required_margin().value();
        assert!((delta - 4.771).abs() < 1e-2, "penalty {delta}");
    }

    #[test]
    fn finite_er_costs_margin() {
        let mut m = Modulator::typical(ModulationFormat::Ook);
        let low_er = m.required_margin();
        m.extinction_ratio = Decibels::new(12.0);
        let high_er = m.required_margin();
        assert!(high_er.value() < low_er.value());
        assert!(high_er.value() > 0.0);
    }

    #[test]
    fn power_scales_with_rate() {
        let m = Modulator::typical(ModulationFormat::Ook);
        let p12 = m.power_w(12.0);
        let p24 = m.power_w(24.0);
        assert!((p24 - 2.0 * p12).abs() < 1e-15);
        // 150 fJ/bit at 12 Gb/s = 1.8 mW
        assert!((p12 - 1.8e-3).abs() < 1e-9);
    }
}
