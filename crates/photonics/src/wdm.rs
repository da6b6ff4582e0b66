//! Wavelength-division multiplexing channel plans.
//!
//! A channel plan fixes how many wavelengths share a waveguide and at what
//! spectral spacing — the paper's Table 1 uses 64 wavelengths per gateway.

use crate::link::LinkError;
use crate::units::Wavelength;

/// A uniform WDM channel grid.
///
/// # Examples
///
/// ```
/// use lumos_photonics::wdm::ChannelPlan;
///
/// let plan = ChannelPlan::dense(64)?;
/// assert_eq!(plan.count(), 64);
/// let ch = plan.wavelength(0);
/// assert!(ch.as_nm() > 1520.0 && ch.as_nm() < 1580.0);
/// # Ok::<(), lumos_photonics::link::LinkError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPlan {
    first: Wavelength,
    spacing_nm: f64,
    count: usize,
}

impl ChannelPlan {
    /// A DWDM grid with 0.8 nm (~100 GHz) spacing centred on the C band.
    ///
    /// # Errors
    ///
    /// As [`ChannelPlan::new`].
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn dense(count: usize) -> Result<Self, LinkError> {
        ChannelPlan::new(count, 0.8)
    }

    /// A grid with custom spacing, centred on the C band.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::OutOfBand`] when the grid is so wide that
    /// its lowest channel would sit at or below 0 nm.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `spacing_nm` is not strictly positive.
    pub fn new(count: usize, spacing_nm: f64) -> Result<Self, LinkError> {
        assert!(count > 0, "channel plan needs at least one channel");
        assert!(
            spacing_nm.is_finite() && spacing_nm > 0.0,
            "spacing must be positive, got {spacing_nm}"
        );
        let span = spacing_nm * (count - 1) as f64;
        if span / 2.0 >= Wavelength::C_BAND_CENTER.as_nm() {
            return Err(LinkError::OutOfBand {
                channels: count,
                spacing_nm,
            });
        }
        let first = Wavelength::C_BAND_CENTER.offset_nm(-span / 2.0);
        Ok(ChannelPlan {
            first,
            spacing_nm,
            count,
        })
    }

    /// Number of channels.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Channel spacing in nanometres.
    pub fn spacing_nm(&self) -> f64 {
        self.spacing_nm
    }

    /// The `i`-th channel wavelength.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    pub fn wavelength(&self, i: usize) -> Wavelength {
        assert!(i < self.count, "channel {i} out of range ({})", self.count);
        self.first.offset_nm(self.spacing_nm * i as f64)
    }

    /// Iterates over all channel wavelengths in grid order.
    pub fn iter(&self) -> impl Iterator<Item = Wavelength> + '_ {
        (0..self.count).map(move |i| self.wavelength(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_uniform_and_centred() {
        let p = ChannelPlan::dense(8).unwrap();
        let w: Vec<f64> = p.iter().map(|x| x.as_nm()).collect();
        for pair in w.windows(2) {
            assert!((pair[1] - pair[0] - 0.8).abs() < 1e-9);
        }
        let mid = (w[3] + w[4]) / 2.0;
        assert!((mid - 1550.0).abs() < 1e-9);
    }

    #[test]
    fn single_channel_plan() {
        let p = ChannelPlan::dense(1).unwrap();
        assert_eq!(p.count(), 1);
        assert!((p.wavelength(0).as_nm() - 1550.0).abs() < 1e-9);
    }

    #[test]
    fn grid_below_zero_nm_is_an_error() {
        // 3,875 channels at 0.8 nm put the first at 0.4 nm; one more
        // would reach 0 nm.
        assert!((ChannelPlan::dense(3_875).unwrap().wavelength(0).as_nm() - 0.4).abs() < 1e-9);
        assert_eq!(
            ChannelPlan::dense(3_876),
            Err(LinkError::OutOfBand {
                channels: 3_876,
                spacing_nm: 0.8
            })
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_index_bounds() {
        let p = ChannelPlan::dense(4).unwrap();
        let _ = p.wavelength(4);
    }
}
