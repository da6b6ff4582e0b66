//! Fibre-to-chip couplers and passive power splitters.
//!
//! Paper §II: off-chip laser light enters through surface grating couplers
//! or edge couplers; passive Y-junction / MMI splitter trees distribute it
//! to writer gateways (the structure ReSiPI replaces with PCM couplers to
//! regain runtime control).

use crate::units::Decibels;

/// Fibre-to-chip coupling structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplerKind {
    /// Surface grating coupler: easy placement, higher loss.
    Grating,
    /// Edge coupler: lower loss, needs facet access.
    Edge,
}

impl CouplerKind {
    /// Typical insertion loss of the coupler.
    pub fn insertion_loss(self) -> Decibels {
        match self {
            CouplerKind::Grating => Decibels::new(1.5),
            CouplerKind::Edge => Decibels::new(0.8),
        }
    }
}

/// A passive 1×N power splitter tree built from Y-junctions.
///
/// # Examples
///
/// ```
/// use lumos_photonics::coupler::SplitterTree;
///
/// let tree = SplitterTree::new(8);
/// // 1:8 split = 9.03 dB intrinsic + 3 stages of excess loss.
/// assert!(tree.per_output_loss().value() > 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterTree {
    outputs: usize,
}

impl SplitterTree {
    /// Excess loss per binary splitting stage.
    const EXCESS_PER_STAGE_DB: f64 = 0.2;

    /// Creates a 1×`outputs` splitter tree.
    ///
    /// # Panics
    ///
    /// Panics if `outputs == 0`.
    pub fn new(outputs: usize) -> Self {
        assert!(outputs > 0, "splitter needs at least one output");
        SplitterTree { outputs }
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Number of binary stages (`ceil(log2(outputs))`).
    pub fn stages(&self) -> u32 {
        (self.outputs as f64).log2().ceil() as u32
    }

    /// Loss seen by each output: the intrinsic `10·log10(N)` split plus
    /// per-stage excess loss.
    pub fn per_output_loss(&self) -> Decibels {
        let intrinsic = 10.0 * (self.outputs as f64).log10();
        Decibels::new(intrinsic + Self::EXCESS_PER_STAGE_DB * self.stages() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_beats_grating_on_loss() {
        assert!(
            CouplerKind::Edge.insertion_loss().value()
                < CouplerKind::Grating.insertion_loss().value()
        );
    }

    #[test]
    fn splitter_loss_grows_with_fanout() {
        let l2 = SplitterTree::new(2).per_output_loss();
        let l8 = SplitterTree::new(8).per_output_loss();
        let l32 = SplitterTree::new(32).per_output_loss();
        assert!(l2 < l8 && l8 < l32);
        // 1:2 = 3.01 dB + 0.2 excess
        assert!((l2.value() - 3.2103).abs() < 1e-3);
        // 1:32 = 15.05 dB + 1.0 excess
        assert!((l32.value() - 16.051).abs() < 1e-2);
    }

    #[test]
    fn single_output_is_free() {
        let t = SplitterTree::new(1);
        assert_eq!(t.stages(), 0);
        assert!(t.per_output_loss().value().abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_rounds_stages_up() {
        let t = SplitterTree::new(5);
        assert_eq!(t.stages(), 3);
        assert_eq!(t.outputs(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn zero_outputs_rejected() {
        let _ = SplitterTree::new(0);
    }
}
