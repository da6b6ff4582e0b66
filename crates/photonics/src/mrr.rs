//! Microring resonator (MR) model — Fig. 1 of the paper.
//!
//! MRs are the workhorse device of noncoherent photonic accelerators and
//! interposer networks: as *filters* they drop one WDM channel to a
//! photodetector, as *modulators* they imprint data onto a wavelength, and
//! in MAC units consecutive amplitude modulation by MRs performs the
//! multiply of broadcast-and-weight. This module models their spectral
//! response (Lorentzian) and free spectral range; the filter-bank
//! crosstalk analysis ([`crate::crosstalk`]) reads the drop port.

use crate::units::{Decibels, Wavelength};

/// Geometry and quality parameters of a microring resonator.
///
/// # Examples
///
/// ```
/// use lumos_photonics::mrr::Microring;
/// use lumos_photonics::units::Wavelength;
///
/// let mr = Microring::new(Wavelength::from_nm(1550.0), 8_000, 5.0);
/// // On resonance nearly everything drops…
/// assert!(mr.drop_transmission(Wavelength::from_nm(1550.0)) > 0.8);
/// // …one FWHM (λ / Q ≈ 0.19 nm) away, a quarter of the peak drops.
/// let off = Wavelength::from_nm(1550.0 + 1550.0 / 8_000.0);
/// assert!(mr.drop_transmission(off) < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microring {
    resonance: Wavelength,
    /// Loaded quality factor.
    q_factor: f64,
    /// Ring radius in micrometres (sets the free spectral range).
    radius_um: f64,
    /// Group index of the ring waveguide.
    group_index: f64,
    /// Peak drop-port transmission (linear, ≤ 1); the remainder is the
    /// drop-port insertion loss.
    drop_peak: f64,
    /// Off-resonance through-port transmission (linear, ≤ 1); models the
    /// per-ring through loss every bypassing wavelength pays.
    through_peak: f64,
    /// Fraction of on-resonance power removed from the through port
    /// (sets the extinction ratio; 0.99 ⇒ 20 dB ER).
    extinction_depth: f64,
}

impl Microring {
    /// Creates a ring resonant at `resonance` with loaded Q `q_factor` and
    /// radius `radius_um` µm, using typical insertion losses
    /// (0.5 dB drop, 0.01 dB through) and group index 4.2.
    ///
    /// # Panics
    ///
    /// Panics if `q_factor < 100` (unphysically low for a resonator) or
    /// `radius_um` is not strictly positive.
    pub fn new(resonance: Wavelength, q_factor: u32, radius_um: f64) -> Self {
        assert!(q_factor >= 100, "Q factor too low: {q_factor}");
        assert!(
            radius_um.is_finite() && radius_um > 0.0,
            "radius must be positive, got {radius_um}"
        );
        Microring {
            resonance,
            q_factor: q_factor as f64,
            radius_um,
            group_index: 4.2,
            drop_peak: Decibels::new(0.5).to_linear(),
            through_peak: Decibels::new(0.01).to_linear(),
            extinction_depth: 0.99,
        }
    }

    /// The resonant wavelength.
    pub fn resonance(&self) -> Wavelength {
        self.resonance
    }

    /// Loaded quality factor.
    pub fn q_factor(&self) -> f64 {
        self.q_factor
    }

    /// Full width at half maximum of the resonance, in nanometres
    /// (`λ / Q`).
    fn fwhm_nm(&self) -> f64 {
        self.resonance.as_nm() / self.q_factor
    }

    /// Free spectral range in nanometres: `FSR = λ² / (n_g · 2πR)`.
    ///
    /// The FSR caps how many WDM channels one ring design can address
    /// without aliasing; a 5 µm ring at 1550 nm gives ~18 nm.
    pub fn fsr_nm(&self) -> f64 {
        let lambda_nm = self.resonance.as_nm();
        let circumference_nm = 2.0 * std::f64::consts::PI * self.radius_um * 1e3;
        lambda_nm * lambda_nm / (self.group_index * circumference_nm)
    }

    /// Lorentzian lineshape value in `[0, 1]` at spectral detuning
    /// `delta_nm` from resonance.
    fn lineshape(&self, delta_nm: f64) -> f64 {
        let half_width = self.fwhm_nm() / 2.0;
        1.0 / (1.0 + (delta_nm / half_width).powi(2))
    }

    /// Linear power transmission from input to **drop** port at `probe`.
    pub fn drop_transmission(&self, probe: Wavelength) -> f64 {
        self.drop_peak * self.lineshape(self.resonance.distance_nm(probe))
    }

    /// Linear power transmission from input to **through** port at `probe`.
    ///
    /// On resonance the through port is nearly extinguished (set by the
    /// extinction depth); far from resonance only the small bypass loss
    /// remains.
    pub fn through_transmission(&self, probe: Wavelength) -> f64 {
        let dropped = self.lineshape(self.resonance.distance_nm(probe));
        self.through_peak * (1.0 - self.extinction_depth * dropped)
    }

    /// Extinction ratio between on- and off-resonance through transmission.
    pub fn extinction_ratio(&self) -> Decibels {
        let on = self.through_transmission(self.resonance);
        let off = self.through_peak;
        Decibels::from_linear(on / off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Microring {
        Microring::new(Wavelength::from_nm(1550.0), 8_000, 5.0)
    }

    #[test]
    fn drop_peaks_on_resonance() {
        let mr = ring();
        let on = mr.drop_transmission(Wavelength::from_nm(1550.0));
        let off = mr.drop_transmission(Wavelength::from_nm(1551.0));
        assert!(on > 10.0 * off);
        assert!(on <= 1.0);
    }

    #[test]
    fn through_dips_on_resonance() {
        let mr = ring();
        let on = mr.through_transmission(Wavelength::from_nm(1550.0));
        let off = mr.through_transmission(Wavelength::from_nm(1545.0));
        assert!(on < off);
        assert!(off <= 1.0);
    }

    #[test]
    fn fwhm_matches_q() {
        let mr = ring();
        assert!((mr.fwhm_nm() - 1550.0 / 8000.0).abs() < 1e-12);
        // Half the peak drops exactly one half-width away.
        let half = Wavelength::from_nm(1550.0 + mr.fwhm_nm() / 2.0);
        let ratio = mr.drop_transmission(half) / mr.drop_transmission(mr.resonance());
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fsr_scales_inversely_with_radius() {
        let small = Microring::new(Wavelength::from_nm(1550.0), 8000, 5.0);
        let large = Microring::new(Wavelength::from_nm(1550.0), 8000, 10.0);
        assert!(small.fsr_nm() > large.fsr_nm());
        // 5 µm, n_g = 4.2: FSR = 1550² / (4.2 · 2π·5000) ≈ 18.2 nm
        assert!(
            (small.fsr_nm() - 18.2).abs() < 0.5,
            "got {}",
            small.fsr_nm()
        );
    }

    #[test]
    fn extinction_ratio_positive() {
        let er = ring().extinction_ratio();
        assert!(er.value() > 10.0, "ER too small: {er}");
    }

    #[test]
    #[should_panic(expected = "Q factor too low")]
    fn rejects_tiny_q() {
        let _ = Microring::new(Wavelength::from_nm(1550.0), 10, 5.0);
    }
}
