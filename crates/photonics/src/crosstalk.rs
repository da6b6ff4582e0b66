//! Inter-channel crosstalk analysis for MR filter banks.
//!
//! When a reader gateway's MR filter drops its channel, the Lorentzian
//! tails of neighbouring channels leak into the same photodetector. This
//! bounds how many wavelengths a waveguide can carry for a given ring Q
//! and required signal-to-crosstalk ratio — one of the design-space axes
//! the paper's conclusion calls out.

use crate::mrr::Microring;
use crate::units::Decibels;
use crate::wdm::ChannelPlan;

/// Crosstalk analysis of one victim channel inside a WDM filter bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkReport {
    /// Index of the victim channel analysed.
    pub victim: usize,
    /// Linear ratio of aggregate leaked power to signal power.
    pub crosstalk_ratio: f64,
    /// Signal-to-crosstalk ratio.
    pub sxr: Decibels,
}

/// Computes the worst-case (centre-channel) crosstalk for a filter bank
/// where one ring of quality `q_factor` drops each channel of `plan`,
/// assuming equal per-channel power.
///
/// # Examples
///
/// ```
/// use lumos_photonics::crosstalk::filter_bank_crosstalk;
/// use lumos_photonics::wdm::ChannelPlan;
///
/// let tight = filter_bank_crosstalk(&ChannelPlan::new(16, 0.4)?, 8_000);
/// let loose = filter_bank_crosstalk(&ChannelPlan::new(16, 1.6)?, 8_000);
/// assert!(loose.sxr.value() > tight.sxr.value());
/// # Ok::<(), lumos_photonics::link::LinkError>(())
/// ```
pub fn filter_bank_crosstalk(plan: &ChannelPlan, q_factor: u32) -> CrosstalkReport {
    let victim = plan.count() / 2; // centre channel sees the most neighbours
    let ring = Microring::new(plan.wavelength(victim), q_factor, 5.0);
    let signal = ring.drop_transmission(plan.wavelength(victim));
    let mut leaked = 0.0;
    for i in 0..plan.count() {
        if i != victim {
            leaked += ring.drop_transmission(plan.wavelength(i));
        }
    }
    let ratio = if signal > 0.0 {
        leaked / signal
    } else {
        f64::INFINITY
    };
    CrosstalkReport {
        victim,
        crosstalk_ratio: ratio,
        sxr: if ratio > 0.0 {
            Decibels::from_linear(ratio)
        } else {
            Decibels::new(200.0)
        },
    }
}

/// Crosstalk expressed as an equivalent receiver power penalty: the extra
/// signal power needed to keep the eye open against coherent-ish leakage,
/// `penalty = -10·log10(1 - 2·XT)` (standard first-order model).
///
/// Returns `None` when the crosstalk is too severe for any penalty to
/// compensate (XT ≥ 0.5).
pub fn crosstalk_power_penalty(report: &CrosstalkReport) -> Option<Decibels> {
    let xt = report.crosstalk_ratio;
    if xt >= 0.5 {
        return None;
    }
    Some(Decibels::new(-10.0 * (1.0 - 2.0 * xt).log10()))
}

/// The largest channel count (on `spacing_nm`) whose worst-case
/// signal-to-crosstalk ratio stays at or above `min_sxr`.
///
/// Returns 0 when even two channels violate the requirement.
///
/// # Examples
///
/// ```
/// use lumos_photonics::crosstalk::max_channels_for_sxr;
/// use lumos_photonics::units::Decibels;
///
/// let n_hi_q = max_channels_for_sxr(0.8, 10_000, Decibels::new(20.0), 128);
/// let n_lo_q = max_channels_for_sxr(0.8, 2_000, Decibels::new(20.0), 128);
/// assert!(n_hi_q >= n_lo_q);
/// ```
pub fn max_channels_for_sxr(
    spacing_nm: f64,
    q_factor: u32,
    min_sxr: Decibels,
    cap: usize,
) -> usize {
    let mut best = 0;
    for n in 2..=cap {
        let Ok(plan) = ChannelPlan::new(n, spacing_nm) else {
            break;
        };
        let rep = filter_bank_crosstalk(&plan, q_factor);
        if rep.sxr.value() >= min_sxr.value() {
            best = n;
        } else {
            break; // crosstalk only worsens with more channels
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denser_spacing_more_crosstalk() {
        let a = filter_bank_crosstalk(&ChannelPlan::new(32, 0.4).unwrap(), 8000);
        let b = filter_bank_crosstalk(&ChannelPlan::new(32, 0.8).unwrap(), 8000);
        assert!(a.crosstalk_ratio > b.crosstalk_ratio);
    }

    #[test]
    fn higher_q_less_crosstalk() {
        let lo = filter_bank_crosstalk(&ChannelPlan::dense(32).unwrap(), 2000);
        let hi = filter_bank_crosstalk(&ChannelPlan::dense(32).unwrap(), 16_000);
        assert!(hi.sxr.value() > lo.sxr.value());
    }

    #[test]
    fn more_channels_more_crosstalk() {
        let few = filter_bank_crosstalk(&ChannelPlan::dense(4).unwrap(), 8000);
        let many = filter_bank_crosstalk(&ChannelPlan::dense(64).unwrap(), 8000);
        assert!(many.crosstalk_ratio > few.crosstalk_ratio);
    }

    #[test]
    fn penalty_small_for_clean_links() {
        let rep = filter_bank_crosstalk(&ChannelPlan::dense(64).unwrap(), 8000);
        let p = crosstalk_power_penalty(&rep).expect("64ch @ Q=8000 is feasible");
        assert!(p.value() < 1.0, "penalty too high: {p}");
    }

    #[test]
    fn penalty_none_when_swamped() {
        let rep = CrosstalkReport {
            victim: 0,
            crosstalk_ratio: 0.6,
            sxr: Decibels::new(2.2),
        };
        assert!(crosstalk_power_penalty(&rep).is_none());
    }

    #[test]
    fn max_channels_monotone_in_requirement() {
        let strict = max_channels_for_sxr(0.8, 8000, Decibels::new(30.0), 128);
        let relaxed = max_channels_for_sxr(0.8, 8000, Decibels::new(15.0), 128);
        assert!(relaxed >= strict);
    }

    #[test]
    fn table1_point_is_feasible() {
        // 64 channels at 0.8 nm with a high-Q ring (Q=12k, as interposer
        // filter banks use) should clear 15 dB SXR: the paper's Table 1
        // design point must be physically sensible.
        let rep = filter_bank_crosstalk(&ChannelPlan::dense(64).unwrap(), 12_000);
        assert!(rep.sxr.value() > 15.0, "Table 1 infeasible: {:?}", rep);
    }
}
