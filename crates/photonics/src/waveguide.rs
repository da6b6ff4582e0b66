//! Silicon-on-insulator waveguide loss model.
//!
//! Waveguides are the "wires" of a photonic interposer (paper §II). Their
//! contribution to a link budget is propagation loss per unit length plus
//! discrete losses for bends and waveguide crossings.

use crate::units::Decibels;

/// Loss parameters of an SOI strip waveguide.
///
/// Defaults follow the values commonly used in photonic NoC studies
/// (e.g. 1 dB/cm propagation, 0.005 dB per bend, 0.05 dB per crossing).
///
/// # Examples
///
/// ```
/// use lumos_photonics::waveguide::Waveguide;
///
/// let wg = Waveguide::soi_strip();
/// let loss = wg.path_loss(20.0, 4, 2); // 20 mm, 4 bends, 2 crossings
/// assert!((loss.value() - (2.0 + 0.02 + 0.1)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    /// Propagation loss per centimetre.
    pub propagation_db_per_cm: f64,
    /// Loss per 90° bend.
    pub bend_db: f64,
    /// Loss per waveguide crossing.
    pub crossing_db: f64,
    /// Group index (used for time-of-flight).
    pub group_index: f64,
}

impl Waveguide {
    /// A typical C-band SOI strip waveguide.
    pub fn soi_strip() -> Self {
        Waveguide {
            propagation_db_per_cm: 1.0,
            bend_db: 0.005,
            crossing_db: 0.05,
            group_index: 4.2,
        }
    }

    /// Total loss over a path of `length_mm` with the given bend and
    /// crossing counts.
    ///
    /// # Panics
    ///
    /// Panics if `length_mm` is negative or not finite.
    pub fn path_loss(&self, length_mm: f64, bends: u32, crossings: u32) -> Decibels {
        assert!(
            length_mm.is_finite() && length_mm >= 0.0,
            "path length must be non-negative, got {length_mm}"
        );
        Decibels::new(
            self.propagation_db_per_cm * (length_mm / 10.0)
                + self.bend_db * bends as f64
                + self.crossing_db * crossings as f64,
        )
    }

    /// Photon time of flight over `length_mm`, in picoseconds.
    ///
    /// Light travels at `c / n_g`; a 10 mm interposer hop at `n_g = 4.2`
    /// takes ~140 ps — one of the paper's "single-hop data propagation"
    /// advantages over multi-hop electrical meshes.
    pub fn flight_time_ps(&self, length_mm: f64) -> f64 {
        assert!(
            length_mm.is_finite() && length_mm >= 0.0,
            "path length must be non-negative, got {length_mm}"
        );
        let c_mm_per_ps = 0.299_792_458; // mm per ps in vacuum
        length_mm * self.group_index / c_mm_per_ps
    }
}

impl Default for Waveguide {
    fn default() -> Self {
        Waveguide::soi_strip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_dominates_long_paths() {
        let wg = Waveguide::soi_strip();
        let short = wg.path_loss(1.0, 0, 0);
        let long = wg.path_loss(50.0, 0, 0);
        assert!(long.value() > short.value());
        assert!((long.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn discrete_losses_add() {
        let wg = Waveguide::soi_strip();
        let l = wg.path_loss(0.0, 10, 10);
        assert!((l.value() - (0.05 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn zero_path_zero_loss() {
        let wg = Waveguide::default();
        assert_eq!(wg.path_loss(0.0, 0, 0).value(), 0.0);
        assert_eq!(wg.flight_time_ps(0.0), 0.0);
    }

    #[test]
    fn flight_time_ballpark() {
        let wg = Waveguide::soi_strip();
        // 10 mm at n_g=4.2: t = 10*4.2/0.2998 ≈ 140.1 ps
        let t = wg.flight_time_ps(10.0);
        assert!((t - 140.1).abs() < 0.5, "got {t}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected() {
        let _ = Waveguide::default().path_loss(-1.0, 0, 0);
    }
}
