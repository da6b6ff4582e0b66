//! Optical power, loss, and wavelength units with typed dB arithmetic.
//!
//! Photonic link budgets mix logarithmic (dB, dBm) and linear (mW)
//! quantities; newtypes keep the two domains from being confused and make
//! loss composition explicit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A relative power ratio in decibels. Positive values are *losses*
/// throughout LUMOS (a 3 dB splitter "costs" `Decibels(3.0)`).
///
/// # Examples
///
/// ```
/// use lumos_photonics::units::Decibels;
///
/// let total = Decibels::new(1.5) + Decibels::new(2.5);
/// assert_eq!(total.value(), 4.0);
/// assert!((Decibels::from_linear(0.5).value() - 3.0103).abs() < 1e-3);
/// assert!((total.to_linear() - 0.398).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Decibels(f64);

impl Decibels {
    /// Zero loss / unity gain.
    pub const ZERO: Decibels = Decibels(0.0);

    /// Creates a dB value.
    ///
    /// # Panics
    ///
    /// Panics if `db` is not finite.
    pub fn new(db: f64) -> Self {
        assert!(db.is_finite(), "dB value must be finite, got {db}");
        Decibels(db)
    }

    /// Converts a linear power *transmission* ratio (0, 1] into a loss in
    /// dB: `from_linear(0.5) ≈ 3.01 dB`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `(0, ∞)`.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "linear ratio must be positive, got {ratio}"
        );
        Decibels(-10.0 * ratio.log10())
    }

    /// The raw dB value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts this loss back into a linear transmission ratio.
    pub fn to_linear(self) -> f64 {
        10f64.powf(-self.0 / 10.0)
    }

    /// The larger of two losses.
    pub fn max(self, other: Decibels) -> Decibels {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Decibels {
    type Output = Decibels;
    fn add(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 + rhs.0)
    }
}

impl AddAssign for Decibels {
    fn add_assign(&mut self, rhs: Decibels) {
        self.0 += rhs.0;
    }
}

impl Sub for Decibels {
    type Output = Decibels;
    fn sub(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 - rhs.0)
    }
}

impl Neg for Decibels {
    type Output = Decibels;
    fn neg(self) -> Decibels {
        Decibels(-self.0)
    }
}

impl Mul<f64> for Decibels {
    type Output = Decibels;
    fn mul(self, rhs: f64) -> Decibels {
        assert!(rhs.is_finite(), "dB scale factor must be finite");
        Decibels(self.0 * rhs)
    }
}

impl Sum for Decibels {
    fn sum<I: Iterator<Item = Decibels>>(iter: I) -> Decibels {
        iter.fold(Decibels::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// An absolute optical power.
///
/// Stored linearly in milliwatts; dBm accessors convert on demand.
///
/// # Examples
///
/// ```
/// use lumos_photonics::units::{Decibels, OpticalPower};
///
/// let laser = OpticalPower::from_dbm(10.0); // 10 mW
/// let after = laser.attenuate(Decibels::new(3.0103));
/// assert!((after.as_mw() - 5.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct OpticalPower(f64);

impl OpticalPower {
    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or not finite.
    pub fn from_mw(mw: f64) -> Self {
        assert!(
            mw.is_finite() && mw >= 0.0,
            "optical power must be non-negative, got {mw}"
        );
        OpticalPower(mw)
    }

    /// Creates a power from dBm (`0 dBm = 1 mW`).
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is not finite.
    pub fn from_dbm(dbm: f64) -> Self {
        assert!(dbm.is_finite(), "dBm value must be finite, got {dbm}");
        OpticalPower(10f64.powf(dbm / 10.0))
    }

    /// Power in milliwatts.
    pub fn as_mw(self) -> f64 {
        self.0
    }

    /// Power in watts.
    pub fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// Power in dBm. Returns `-inf` for zero power.
    pub fn as_dbm(self) -> f64 {
        10.0 * self.0.log10()
    }

    /// Applies a loss, returning the attenuated power.
    pub fn attenuate(self, loss: Decibels) -> OpticalPower {
        OpticalPower(self.0 * loss.to_linear())
    }
}

impl fmt::Display for OpticalPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} mW", self.0)
        } else {
            write!(f, "{:.1} dBm", self.as_dbm())
        }
    }
}

/// An optical wavelength in nanometres (C-band WDM channels in practice).
///
/// # Examples
///
/// ```
/// use lumos_photonics::units::Wavelength;
///
/// let ch0 = Wavelength::from_nm(1550.0);
/// let ch1 = ch0.offset_nm(0.8);
/// assert!((ch1.as_nm() - 1550.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Wavelength(f64);

impl Wavelength {
    /// Centre of the C band, the usual WDM anchor.
    pub const C_BAND_CENTER: Wavelength = Wavelength(1550.0);

    /// Creates a wavelength from nanometres.
    ///
    /// # Panics
    ///
    /// Panics if `nm` is not strictly positive and finite.
    pub fn from_nm(nm: f64) -> Self {
        assert!(
            nm.is_finite() && nm > 0.0,
            "wavelength must be positive, got {nm}"
        );
        Wavelength(nm)
    }

    /// Wavelength in nanometres.
    pub fn as_nm(self) -> f64 {
        self.0
    }

    /// A new wavelength shifted by `delta` nanometres.
    ///
    /// # Panics
    ///
    /// Panics if the result would be non-positive.
    pub fn offset_nm(self, delta: f64) -> Wavelength {
        Wavelength::from_nm(self.0 + delta)
    }

    /// Absolute spectral distance to another wavelength in nanometres.
    pub fn distance_nm(self, other: Wavelength) -> f64 {
        (self.0 - other.0).abs()
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} nm", self.0)
    }
}

/// Electrical energy per bit, the unit in which modulator/receiver/SerDes
/// costs are quoted.
///
/// # Examples
///
/// ```
/// use lumos_photonics::units::EnergyPerBit;
///
/// let modulator = EnergyPerBit::from_fj(180.0);
/// // 180 fJ/bit at 12 Gb/s is 2.16 mW.
/// assert!((modulator.power_watts(12e9) - 2.16e-3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyPerBit(f64); // joules per bit

impl EnergyPerBit {
    /// Creates an energy-per-bit from femtojoules.
    ///
    /// # Panics
    ///
    /// Panics if `fj` is negative or not finite.
    pub fn from_fj(fj: f64) -> Self {
        assert!(
            fj.is_finite() && fj >= 0.0,
            "energy/bit must be non-negative, got {fj}"
        );
        EnergyPerBit(fj * 1e-15)
    }

    /// Energy per bit in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// Energy per bit in femtojoules.
    fn as_fj(self) -> f64 {
        self.0 * 1e15
    }

    /// Average power in watts when toggling at `bit_rate` bits/s.
    pub fn power_watts(self, bit_rate: f64) -> f64 {
        self.0 * bit_rate
    }

    /// Total energy in joules for `bits` bits.
    pub fn energy_joules(self, bits: u64) -> f64 {
        self.0 * bits as f64
    }
}

impl Add for EnergyPerBit {
    type Output = EnergyPerBit;
    fn add(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 + rhs.0)
    }
}

impl Sum for EnergyPerBit {
    fn sum<I: Iterator<Item = EnergyPerBit>>(iter: I) -> EnergyPerBit {
        iter.fold(EnergyPerBit::default(), |a, b| a + b)
    }
}

impl fmt::Display for EnergyPerBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} fJ/bit", self.as_fj())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for &db in &[0.0, 0.5, 3.0, 10.0, 30.0] {
            let d = Decibels::new(db);
            let back = Decibels::from_linear(d.to_linear());
            assert!((back.value() - db).abs() < 1e-9, "roundtrip failed at {db}");
        }
    }

    #[test]
    fn db_composition_is_multiplicative() {
        let a = Decibels::new(3.0);
        let b = Decibels::new(7.0);
        let combined = (a + b).to_linear();
        assert!((combined - a.to_linear() * b.to_linear()).abs() < 1e-12);
    }

    #[test]
    fn dbm_anchors() {
        assert!((OpticalPower::from_dbm(0.0).as_mw() - 1.0).abs() < 1e-12);
        assert!((OpticalPower::from_dbm(10.0).as_mw() - 10.0).abs() < 1e-9);
        assert!((OpticalPower::from_dbm(-20.0).as_mw() - 0.01).abs() < 1e-9);
        assert!((OpticalPower::from_mw(2.0).as_dbm() - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn attenuation_chains() {
        let p = OpticalPower::from_dbm(5.0)
            .attenuate(Decibels::new(2.0))
            .attenuate(Decibels::new(3.0));
        assert!((p.as_dbm() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn wavelength_distance_symmetric() {
        let a = Wavelength::from_nm(1550.0);
        let b = Wavelength::from_nm(1551.6);
        assert!((a.distance_nm(b) - 1.6).abs() < 1e-12);
        assert_eq!(a.distance_nm(b), b.distance_nm(a));
    }

    #[test]
    fn energy_per_bit_power() {
        let e = EnergyPerBit::from_fj(1_000.0);
        assert!((e.as_fj() - 1000.0).abs() < 1e-9);
        assert!((e.power_watts(1e9) - 1e-3).abs() < 1e-12);
        assert!((e.energy_joules(1_000) - 1e-9).abs() < 1e-20);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Decibels::new(1.234).to_string(), "1.23 dB");
        assert_eq!(OpticalPower::from_mw(2.0).to_string(), "2.000 mW");
        assert_eq!(Wavelength::from_nm(1550.0).to_string(), "1550.00 nm");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_wavelength_rejected() {
        let _ = Wavelength::from_nm(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = OpticalPower::from_mw(-1.0);
    }
}
