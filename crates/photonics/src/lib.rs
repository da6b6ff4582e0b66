//! # lumos-photonics — silicon-photonic device library
//!
//! Device-level models for every photonic component the paper's 2.5D
//! platform relies on (paper §II), composed into link-budget analysis:
//!
//! * [`units`] — typed dB / dBm / wavelength / energy-per-bit arithmetic
//! * [`waveguide`] — SOI waveguide propagation, bend, and crossing loss
//! * [`mrr`] — microring resonators: Lorentzian filters and FSR
//! * [`pcmc`] — phase-change-material couplers (ReSiPI's splitter): the
//!   write energy and latency of a state change
//! * [`photodetector`] — receiver sensitivity, bandwidth and energy
//! * [`laser`] — on/off-chip laser banks with per-wavelength enables
//! * [`modulator`] — MR modulators, OOK and PAM-4 formats
//! * [`coupler`] — grating/edge couplers and passive splitter trees
//! * [`wdm`] — channel plans
//! * [`crosstalk`] — filter-bank crosstalk and channel-count limits
//! * [`link`] — end-to-end link budget solver
//!
//! # Examples
//!
//! Size the laser for a 64-wavelength interposer broadcast:
//!
//! ```
//! use lumos_photonics::prelude::*;
//!
//! let budget = LinkBudget::new()
//!     .stage("coupler", CouplerKind::Grating.insertion_loss())
//!     .stage("splitter 1:8", SplitterTree::new(8).per_output_loss())
//!     .stage("waveguide 30mm", Waveguide::soi_strip().path_loss(30.0, 8, 4))
//!     .stage("modulator", Decibels::new(0.7))
//!     .stage("filter drop", Decibels::new(0.5));
//!
//! let design = solve_link(
//!     &budget,
//!     &ChannelPlan::dense(64)?,
//!     12.0,
//!     &Modulator::typical(ModulationFormat::Ook),
//!     &Photodetector::typical(),
//!     &Laser::new(LaserPlacement::OffChip, 64),
//!     8_000,
//!     25.0,
//! )?;
//! println!("laser draws {:.2} W", design.laser_electrical_w);
//! # Ok::<(), lumos_photonics::link::LinkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coupler;
pub mod crosstalk;
pub mod laser;
pub mod link;
pub mod modulator;
pub mod mrr;
pub mod pcmc;
pub mod photodetector;
pub mod units;
pub mod waveguide;
pub mod wdm;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::coupler::{CouplerKind, SplitterTree};
    pub use crate::crosstalk::{filter_bank_crosstalk, max_channels_for_sxr};
    pub use crate::laser::{Laser, LaserPlacement};
    pub use crate::link::{max_feasible_wavelengths, solve_link, LinkBudget, LinkDesign};
    pub use crate::modulator::{ModulationFormat, Modulator};
    pub use crate::mrr::Microring;
    pub use crate::pcmc::PcmCoupler;
    pub use crate::photodetector::Photodetector;
    pub use crate::units::{Decibels, EnergyPerBit, OpticalPower, Wavelength};
    pub use crate::waveguide::Waveguide;
    pub use crate::wdm::ChannelPlan;
}
