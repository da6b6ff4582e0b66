//! Phase-change-material coupler (PCMC) — Fig. 2 of the paper.
//!
//! ReSiPI replaces passive splitters with PCM-based directional couplers so
//! the interposer can *re-route laser power* to exactly the set of active
//! writer gateways. The crystallinity of the PCM cell steers the input
//! light to the Bar port (crystalline), the Cross port (amorphous), or
//! splits it between them (partially crystalline).
//!
//! PCM states are *nonvolatile*: holding a state costs zero power (the
//! ReSiPI energy advantage), but switching states requires a heat pulse
//! with microsecond-scale latency — which is why reconfiguration happens
//! at epoch granularity, not per transfer. Those switching costs are
//! what the simulation reads: the ReSiPI controller charges each coupler
//! toggle one write energy and stalls one write latency.

/// The switching costs of a PCM-based 1×2 power coupler.
///
/// # Examples
///
/// ```
/// use lumos_photonics::pcmc::PcmCoupler;
///
/// let c = PcmCoupler::typical();
/// // Toggling four couplers costs 80 nJ and one ~1 µs stall.
/// assert_eq!(4.0 * c.write_energy_nj, 80.0);
/// assert_eq!(c.write_latency_ns, 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmCoupler {
    /// Energy of one SET/RESET transition, in nanojoules.
    pub write_energy_nj: f64,
    /// Latency of one state transition, in nanoseconds.
    pub write_latency_ns: f64,
}

impl PcmCoupler {
    /// Parameters following the GST-on-silicon directional couplers
    /// surveyed by Teo et al. (cited as \[38\] in the paper).
    pub fn typical() -> Self {
        PcmCoupler {
            write_energy_nj: 20.0,
            write_latency_ns: 1000.0,
        }
    }
}
