//! End-to-end photonic link budget solver.
//!
//! Composes the device models into the question every photonic network
//! design must answer: *how much laser power does each wavelength need so
//! the farthest photodetector still fires?* — and, dually, *how many
//! wavelengths can this link support?* The answers drive both the
//! feasibility checks and the laser-power term of the interposer's energy
//! model.

use std::fmt;

use crate::crosstalk::{crosstalk_power_penalty, filter_bank_crosstalk};
use crate::laser::Laser;
use crate::modulator::Modulator;
use crate::photodetector::Photodetector;
use crate::units::{Decibels, OpticalPower};
use crate::wdm::ChannelPlan;

/// Errors produced by link-budget analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The worst-case crosstalk exceeds what any laser power can overcome.
    CrosstalkSwamped {
        /// Signal-to-crosstalk ratio found, dB.
        sxr_db: f64,
    },
    /// The required laser power exceeds the stated per-wavelength limit
    /// (nonlinear threshold or eye-safety budget).
    LaserLimited {
        /// Power required at the laser facet, dBm.
        required_dbm: f64,
        /// Configured maximum, dBm.
        limit_dbm: f64,
    },
    /// The data rate exceeds the photodetector bandwidth.
    DetectorBandwidth {
        /// Requested rate, Gb/s.
        rate_gbps: f64,
        /// Detector 3 dB bandwidth, GHz.
        bandwidth_ghz: f64,
    },
    /// The channel grid is so wide that its lowest channel would sit at
    /// or below 0 nm.
    OutOfBand {
        /// Channels requested.
        channels: usize,
        /// Channel spacing, nm.
        spacing_nm: f64,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::CrosstalkSwamped { sxr_db } => {
                write!(f, "crosstalk swamps the eye (SXR {sxr_db:.1} dB)")
            }
            LinkError::LaserLimited {
                required_dbm,
                limit_dbm,
            } => write!(
                f,
                "required laser power {required_dbm:.1} dBm exceeds limit {limit_dbm:.1} dBm"
            ),
            LinkError::DetectorBandwidth {
                rate_gbps,
                bandwidth_ghz,
            } => write!(
                f,
                "data rate {rate_gbps:.1} Gb/s exceeds detector bandwidth {bandwidth_ghz:.1} GHz"
            ),
            LinkError::OutOfBand {
                channels,
                spacing_nm,
            } => write!(
                f,
                "{channels} channels at {spacing_nm} nm spacing around 1550 nm reach below 0 nm"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// A named loss stage along an optical path.
#[derive(Debug, Clone, PartialEq)]
pub struct LossStage {
    /// Human-readable stage name (shows up in budget breakdowns).
    pub name: String,
    /// Loss contributed by this stage.
    pub loss: Decibels,
}

/// Builder for a wavelength's end-to-end optical path.
///
/// # Examples
///
/// ```
/// use lumos_photonics::link::LinkBudget;
/// use lumos_photonics::units::Decibels;
///
/// let budget = LinkBudget::new()
///     .stage("coupler", Decibels::new(1.5))
///     .stage("waveguide", Decibels::new(2.0))
///     .stage("filter drop", Decibels::new(0.5));
/// assert!((budget.total_loss().value() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkBudget {
    stages: Vec<LossStage>,
    margin: Decibels,
}

impl LinkBudget {
    /// Creates an empty budget with the default 3 dB system margin.
    pub fn new() -> Self {
        LinkBudget {
            stages: Vec::new(),
            margin: Decibels::new(3.0),
        }
    }

    /// Adds a named loss stage.
    pub fn stage(mut self, name: &str, loss: Decibels) -> Self {
        self.stages.push(LossStage {
            name: name.to_owned(),
            loss,
        });
        self
    }

    /// The loss stages in insertion order.
    pub fn stages(&self) -> &[LossStage] {
        &self.stages
    }

    /// Sum of all stage losses (excluding margin).
    pub fn total_loss(&self) -> Decibels {
        self.stages.iter().map(|s| s.loss).sum()
    }

    /// System margin.
    pub fn margin(&self) -> Decibels {
        self.margin
    }

    /// Renders a table of stages for reports.
    pub fn breakdown(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!("  {:<28} {}\n", s.name, s.loss));
        }
        out.push_str(&format!("  {:<28} {}\n", "margin", self.margin));
        out.push_str(&format!(
            "  {:<28} {}\n",
            "TOTAL",
            self.total_loss() + self.margin
        ));
        out
    }
}

/// A fully solved link design: the power and feasibility answer for one
/// waveguide carrying `plan.count()` wavelengths.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDesign {
    /// Required received power per wavelength at the PD.
    pub required_at_pd: OpticalPower,
    /// Required power per wavelength at the laser facet.
    pub required_at_laser: OpticalPower,
    /// Electrical laser power for the whole link (all wavelengths), watts.
    pub laser_electrical_w: f64,
    /// Aggregate data rate of the link, Gb/s.
    pub aggregate_rate_gbps: f64,
    /// Crosstalk power penalty included in the budget, dB.
    pub crosstalk_penalty_db: f64,
    /// Total optical path loss including margin, dB.
    pub total_loss_db: f64,
}

impl LinkDesign {
    /// Laser energy cost per transported bit, joules/bit.
    pub fn laser_energy_per_bit(&self) -> f64 {
        self.laser_electrical_w / (self.aggregate_rate_gbps * 1e9)
    }
}

/// Solves the link budget for a WDM link.
///
/// Combines: PD sensitivity at the line rate, modulator margin (format +
/// extinction), crosstalk penalty for the filter bank, path losses, and
/// the system margin; then sizes the laser so the worst-case wavelength
/// still meets sensitivity.
///
/// # Errors
///
/// * [`LinkError::DetectorBandwidth`] if the symbol rate exceeds the PD.
/// * [`LinkError::CrosstalkSwamped`] if the filter bank's crosstalk cannot
///   be compensated by power.
/// * [`LinkError::LaserLimited`] if the laser would need more than
///   `max_laser_dbm` per wavelength, or a power beyond `f64` range.
///
/// # Examples
///
/// ```
/// use lumos_photonics::link::{solve_link, LinkBudget};
/// use lumos_photonics::laser::{Laser, LaserPlacement};
/// use lumos_photonics::modulator::{ModulationFormat, Modulator};
/// use lumos_photonics::photodetector::Photodetector;
/// use lumos_photonics::units::Decibels;
/// use lumos_photonics::wdm::ChannelPlan;
///
/// let design = solve_link(
///     &LinkBudget::new().stage("path", Decibels::new(8.0)),
///     &ChannelPlan::dense(64)?,
///     12.0,
///     &Modulator::typical(ModulationFormat::Ook),
///     &Photodetector::typical(),
///     &Laser::new(LaserPlacement::OffChip, 64),
///     8_000,
///     20.0,
/// )?;
/// assert!(design.laser_electrical_w > 0.0);
/// assert_eq!(design.aggregate_rate_gbps, 64.0 * 12.0);
/// # Ok::<(), lumos_photonics::link::LinkError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn solve_link(
    budget: &LinkBudget,
    plan: &ChannelPlan,
    rate_gbps_per_wavelength: f64,
    modulator: &Modulator,
    detector: &Photodetector,
    laser: &Laser,
    ring_q: u32,
    max_laser_dbm: f64,
) -> Result<LinkDesign, LinkError> {
    let symbol_rate = rate_gbps_per_wavelength / modulator.format.bits_per_symbol() as f64;
    if symbol_rate > detector.bandwidth_ghz {
        return Err(LinkError::DetectorBandwidth {
            rate_gbps: rate_gbps_per_wavelength,
            bandwidth_ghz: detector.bandwidth_ghz,
        });
    }

    let xt = filter_bank_crosstalk(plan, ring_q);
    let Some(xt_penalty) = crosstalk_power_penalty(&xt) else {
        return Err(LinkError::CrosstalkSwamped {
            sxr_db: xt.sxr.value(),
        });
    };

    let sensitivity = detector.sensitivity(symbol_rate.max(1.0));
    let required_at_pd_dbm =
        sensitivity.as_dbm() + modulator.required_margin().value() + xt_penalty.value();
    let required_at_pd = OpticalPower::from_dbm(required_at_pd_dbm);

    let path = budget.total_loss() + budget.margin();
    let required_on_chip = OpticalPower::from_dbm(required_at_pd_dbm + path.value());
    // Laser coupling loss sits between the facet and the chip.
    let required_dbm = required_on_chip.as_dbm() + laser.coupling_loss.value();
    // A path so lossy that the requirement overflows is over any limit.
    if !required_dbm.is_finite() {
        return Err(LinkError::LaserLimited {
            required_dbm,
            limit_dbm: max_laser_dbm,
        });
    }
    let required_at_laser = OpticalPower::from_dbm(required_dbm);

    if required_at_laser.as_dbm() > max_laser_dbm {
        return Err(LinkError::LaserLimited {
            required_dbm: required_at_laser.as_dbm(),
            limit_dbm: max_laser_dbm,
        });
    }

    let mut sized = laser.clone();
    sized.enable_only(plan.count());
    let laser_electrical_w = {
        sized.set_output_per_wavelength(required_at_laser);
        sized.electrical_power_w()
    };

    Ok(LinkDesign {
        required_at_pd,
        required_at_laser,
        laser_electrical_w,
        aggregate_rate_gbps: rate_gbps_per_wavelength * plan.count() as f64,
        crosstalk_penalty_db: xt_penalty.value(),
        total_loss_db: path.value(),
    })
}

/// Finds the largest wavelength count `n ≤ cap` for which the link solves,
/// together with its design. Returns `None` when even one wavelength is
/// infeasible.
#[allow(clippy::too_many_arguments)]
pub fn max_feasible_wavelengths(
    budget: &LinkBudget,
    spacing_nm: f64,
    rate_gbps_per_wavelength: f64,
    modulator: &Modulator,
    detector: &Photodetector,
    laser: &Laser,
    ring_q: u32,
    max_laser_dbm: f64,
    cap: usize,
) -> Option<(usize, LinkDesign)> {
    let mut best = None;
    for n in 1..=cap {
        let Ok(plan) = ChannelPlan::new(n, spacing_nm) else {
            break;
        };
        match solve_link(
            budget,
            &plan,
            rate_gbps_per_wavelength,
            modulator,
            detector,
            laser,
            ring_q,
            max_laser_dbm,
        ) {
            Ok(d) => best = Some((n, d)),
            Err(_) => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::LaserPlacement;
    use crate::modulator::ModulationFormat;

    fn defaults() -> (Modulator, Photodetector, Laser) {
        (
            Modulator::typical(ModulationFormat::Ook),
            Photodetector::typical(),
            Laser::new(LaserPlacement::OffChip, 64),
        )
    }

    #[test]
    fn lossier_path_needs_more_laser() {
        let (m, d, l) = defaults();
        let plan = ChannelPlan::dense(16).unwrap();
        let lo = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(5.0)),
            &plan,
            12.0,
            &m,
            &d,
            &l,
            8000,
            30.0,
        )
        .expect("low-margin budget solves");
        let hi = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(15.0)),
            &plan,
            12.0,
            &m,
            &d,
            &l,
            8000,
            30.0,
        )
        .expect("high-margin budget solves");
        assert!(hi.required_at_laser.as_dbm() > lo.required_at_laser.as_dbm());
        assert!(
            (hi.required_at_laser.as_dbm() - lo.required_at_laser.as_dbm() - 10.0).abs() < 1e-9
        );
        assert!(hi.laser_electrical_w > lo.laser_electrical_w);
    }

    #[test]
    fn laser_limit_enforced() {
        let (m, d, l) = defaults();
        let err = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(40.0)),
            &ChannelPlan::dense(16).unwrap(),
            12.0,
            &m,
            &d,
            &l,
            8000,
            10.0,
        )
        .unwrap_err();
        assert!(matches!(err, LinkError::LaserLimited { .. }));
        assert!(err.to_string().contains("exceeds limit"));
    }

    #[test]
    fn detector_bandwidth_enforced() {
        let (m, d, l) = defaults();
        // 50 GBaud OOK is past the 40 GHz PD.
        let err = solve_link(
            &LinkBudget::new(),
            &ChannelPlan::dense(4).unwrap(),
            50.0,
            &m,
            &d,
            &l,
            8000,
            30.0,
        )
        .unwrap_err();
        assert!(matches!(err, LinkError::DetectorBandwidth { .. }));
    }

    #[test]
    fn crosstalk_swamped_detected() {
        let (m, d, l) = defaults();
        // Absurdly tight grid with low-Q rings.
        let err = solve_link(
            &LinkBudget::new(),
            &ChannelPlan::new(64, 0.05).unwrap(),
            12.0,
            &m,
            &d,
            &l,
            500,
            30.0,
        )
        .unwrap_err();
        assert!(matches!(err, LinkError::CrosstalkSwamped { .. }));
    }

    #[test]
    fn pam4_doubles_aggregate_rate() {
        let (_, d, l) = defaults();
        let pam = Modulator::typical(ModulationFormat::Pam4);
        let design = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(5.0)),
            &ChannelPlan::dense(8).unwrap(),
            24.0, // 12 GBaud × 2 bits
            &pam,
            &d,
            &l,
            8000,
            30.0,
        )
        .expect("PAM4 design solves");
        assert_eq!(design.aggregate_rate_gbps, 8.0 * 24.0);
    }

    #[test]
    fn max_wavelengths_monotone_in_budget() {
        let (m, d, l) = defaults();
        let tight = max_feasible_wavelengths(
            &LinkBudget::new().stage("p", Decibels::new(25.0)),
            0.8,
            12.0,
            &m,
            &d,
            &l,
            8000,
            15.0,
            96,
        );
        let loose = max_feasible_wavelengths(
            &LinkBudget::new().stage("p", Decibels::new(5.0)),
            0.8,
            12.0,
            &m,
            &d,
            &l,
            8000,
            15.0,
            96,
        );
        let loose_n = loose.map(|(n, _)| n).unwrap_or(0);
        let tight_n = tight.map(|(n, _)| n).unwrap_or(0);
        assert!(loose_n >= tight_n);
        assert!(loose_n > 0);
    }

    #[test]
    fn energy_per_bit_sane() {
        let (m, d, l) = defaults();
        let design = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(10.0)),
            &ChannelPlan::dense(64).unwrap(),
            12.0,
            &m,
            &d,
            &l,
            8000,
            25.0,
        )
        .expect("healthy link solves");
        let epb = design.laser_energy_per_bit();
        // Laser EPB for a healthy link should land in fJ..pJ territory.
        assert!(epb > 1e-16 && epb < 1e-10, "laser EPB {epb} out of range");
    }

    #[test]
    fn breakdown_lists_all_stages() {
        let b = LinkBudget::new()
            .stage("coupler", Decibels::new(1.5))
            .stage("waveguide", Decibels::new(2.5));
        let text = b.breakdown();
        assert!(text.contains("coupler"));
        assert!(text.contains("waveguide"));
        assert!(text.contains("margin"));
        assert!(text.contains("TOTAL"));
    }
}
