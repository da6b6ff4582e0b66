//! Platform configuration — the paper's Table 1.

use lumos_dnn::workload::Precision;
use lumos_hbm::HbmConfig;
use lumos_phnet::config::PhnetConfig;

use crate::calibration::Calibration;
use crate::error::CoreError;

/// The MAC-unit classes of the heterogeneous platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MacClass {
    /// 100-lane dense/FC units.
    Dense100,
    /// 7×7 convolution units (49 lanes).
    Conv7,
    /// 5×5 convolution units (25 lanes).
    Conv5,
    /// 3×3 convolution units (9 lanes).
    Conv3,
}

impl MacClass {
    /// Vector lanes of one unit of this class.
    pub fn lanes(self) -> u32 {
        match self {
            MacClass::Dense100 => 100,
            MacClass::Conv7 => 49,
            MacClass::Conv5 => 25,
            MacClass::Conv3 => 9,
        }
    }

    /// All classes, in Table 1 order.
    pub fn all() -> [MacClass; 4] {
        [
            MacClass::Dense100,
            MacClass::Conv7,
            MacClass::Conv5,
            MacClass::Conv3,
        ]
    }

    /// Index of this class in [`MacClass::all`] order — the layout of
    /// every per-class array (contention shares, serving utilization).
    pub fn index(self) -> usize {
        match self {
            MacClass::Dense100 => 0,
            MacClass::Conv7 => 1,
            MacClass::Conv5 => 2,
            MacClass::Conv3 => 3,
        }
    }
}

/// Table 1 row for one MAC class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacClassConfig {
    /// Number of chiplets of this class.
    pub chiplets: usize,
    /// MAC units per chiplet.
    pub macs_per_chiplet: usize,
    /// MAC units sharing one gateway.
    pub macs_per_gateway: usize,
}

impl MacClassConfig {
    /// Total units of this class across the platform.
    pub fn total_units(&self) -> usize {
        self.chiplets * self.macs_per_chiplet
    }

    /// Gateways per chiplet implied by the MAC grouping.
    pub fn gateways_per_chiplet(&self) -> usize {
        self.macs_per_chiplet / self.macs_per_gateway
    }
}

/// One compute chiplet instance of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipletInfo {
    /// Index in the global chiplet list (and interposer port order).
    pub id: usize,
    /// MAC class hosted by this chiplet.
    pub class: MacClass,
    /// MAC units on this chiplet.
    pub units: usize,
}

/// Full platform configuration (Table 1 + substrates + calibration).
///
/// # Examples
///
/// ```
/// use lumos_core::config::{MacClass, PlatformConfig};
///
/// let cfg = PlatformConfig::paper_table1();
/// assert_eq!(cfg.chiplets().len(), 8);
/// assert_eq!(cfg.class(MacClass::Conv3).total_units(), 132);
/// cfg.validate().expect("Table 1 is consistent");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Dense-layer MAC class (Table 1: 2 chiplets × 4 MACs, 1/gateway).
    pub dense: MacClassConfig,
    /// 7×7 class (1 chiplet × 8 MACs, 2/gateway).
    pub conv7: MacClassConfig,
    /// 5×5 class (2 chiplets × 16 MACs, 4/gateway).
    pub conv5: MacClassConfig,
    /// 3×3 class (3 chiplets × 44 MACs, 11/gateway).
    pub conv3: MacClassConfig,
    /// Memory chiplets (Table 1: 1).
    pub memory_chiplets: usize,
    /// Data precision of weights/activations.
    pub precision: Precision,
    /// Photonic interposer configuration.
    pub phnet: PhnetConfig,
    /// HBM stack configuration.
    pub hbm: HbmConfig,
    /// Device calibration constants.
    pub calibration: Calibration,
}

impl PlatformConfig {
    /// The paper's Table 1 design point.
    pub fn paper_table1() -> Self {
        PlatformConfig {
            dense: MacClassConfig {
                chiplets: 2,
                macs_per_chiplet: 4,
                macs_per_gateway: 1,
            },
            conv7: MacClassConfig {
                chiplets: 1,
                macs_per_chiplet: 8,
                macs_per_gateway: 2,
            },
            conv5: MacClassConfig {
                chiplets: 2,
                macs_per_chiplet: 16,
                macs_per_gateway: 4,
            },
            conv3: MacClassConfig {
                chiplets: 3,
                macs_per_chiplet: 44,
                macs_per_gateway: 11,
            },
            memory_chiplets: 1,
            precision: Precision::int8(),
            phnet: PhnetConfig::paper_table1(),
            hbm: HbmConfig::hbm2(),
            calibration: Calibration::paper(),
        }
    }

    /// The Table 1 row of `class`.
    pub fn class(&self, class: MacClass) -> &MacClassConfig {
        match class {
            MacClass::Dense100 => &self.dense,
            MacClass::Conv7 => &self.conv7,
            MacClass::Conv5 => &self.conv5,
            MacClass::Conv3 => &self.conv3,
        }
    }

    /// Total compute chiplets.
    pub fn compute_chiplets(&self) -> usize {
        MacClass::all()
            .iter()
            .map(|&c| self.class(c).chiplets)
            .sum()
    }

    /// The chiplet list in interposer port order (dense, 7×7, 5×5, 3×3 —
    /// matching Table 1's row order).
    pub fn chiplets(&self) -> Vec<ChipletInfo> {
        let mut out = Vec::new();
        for &class in &MacClass::all() {
            let cfg = self.class(class);
            for _ in 0..cfg.chiplets {
                out.push(ChipletInfo {
                    id: out.len(),
                    class,
                    units: cfg.macs_per_chiplet,
                });
            }
        }
        out
    }

    /// Chiplet ids hosting `class`: the contiguous run of ids
    /// [`chiplets`](Self::chiplets) assigns it, computed without
    /// building that list. Every placement share holds one of these, so
    /// it is allocated at its exact length.
    pub fn chiplet_ids_of(&self, class: MacClass) -> Vec<usize> {
        let first: usize = MacClass::all()
            .iter()
            .take_while(|&&c| c != class)
            .map(|&c| self.class(c).chiplets)
            .sum();
        (first..first + self.class(class).chiplets).collect()
    }

    /// Checks internal consistency (gateway divisibility, chiplet counts
    /// matching the photonic network) and the ranges of the HBM,
    /// photonic-network and calibration values, so that no run of a
    /// validated configuration panics on one of them. A range error
    /// names its field (`hbm.channels = 0: need at least one channel`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut lanes = Some(0u64);
        for &class in &MacClass::all() {
            let c = self.class(class);
            if c.chiplets == 0 || c.macs_per_chiplet == 0 || c.macs_per_gateway == 0 {
                return Err(CoreError::BadConfig {
                    reason: format!("{class:?} has a zero count"),
                });
            }
            // Unit and lane totals are counted in integers: a class too
            // large to count is rejected, not wrapped.
            lanes = lanes.and_then(|sum| {
                let units = c.chiplets.checked_mul(c.macs_per_chiplet)?;
                sum.checked_add((units as u64).checked_mul(class.lanes().into())?)
            });
            if lanes.is_none() {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "{class:?}: {} chiplets of {} MACs overflow the MAC lane count",
                        c.chiplets, c.macs_per_chiplet
                    ),
                });
            }
            if !c.macs_per_chiplet.is_multiple_of(c.macs_per_gateway) {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "{class:?}: {} MACs not divisible by {} per gateway",
                        c.macs_per_chiplet, c.macs_per_gateway
                    ),
                });
            }
        }
        if self.memory_chiplets == 0 {
            return Err(CoreError::BadConfig {
                reason: "need at least one memory chiplet".into(),
            });
        }
        if self.phnet.compute_chiplets != self.compute_chiplets() {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "photonic network expects {} compute chiplets, platform has {}",
                    self.phnet.compute_chiplets,
                    self.compute_chiplets()
                ),
            });
        }
        // The sub-configurations name their own fields; the prefix
        // names the sub-configuration.
        for (part, check) in [
            ("hbm", self.hbm.check()),
            ("phnet", self.phnet.check()),
            ("calibration", self.calibration.check()),
        ] {
            check.map_err(|reason| CoreError::BadConfig {
                reason: format!("{part}.{reason}"),
            })?;
        }
        Ok(())
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals() {
        let cfg = PlatformConfig::paper_table1();
        assert_eq!(cfg.compute_chiplets(), 8);
        assert_eq!(cfg.dense.total_units(), 8);
        assert_eq!(cfg.conv7.total_units(), 8);
        assert_eq!(cfg.conv5.total_units(), 32);
        assert_eq!(cfg.conv3.total_units(), 132);
        cfg.validate().expect("Table 1 configuration validates");
    }

    #[test]
    fn class_index_matches_all_order() {
        for (i, class) in MacClass::all().into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn every_class_has_four_gateways_per_chiplet() {
        // Table 1's MACs-per-gateway figures all imply 4 gateways.
        let cfg = PlatformConfig::paper_table1();
        for &class in &MacClass::all() {
            assert_eq!(cfg.class(class).gateways_per_chiplet(), 4, "{class:?}");
        }
    }

    #[test]
    fn chiplet_order_matches_table1() {
        let cfg = PlatformConfig::paper_table1();
        let classes: Vec<MacClass> = cfg.chiplets().iter().map(|c| c.class).collect();
        assert_eq!(
            classes,
            vec![
                MacClass::Dense100,
                MacClass::Dense100,
                MacClass::Conv7,
                MacClass::Conv5,
                MacClass::Conv5,
                MacClass::Conv3,
                MacClass::Conv3,
                MacClass::Conv3,
            ]
        );
        assert_eq!(cfg.chiplet_ids_of(MacClass::Conv3), vec![5, 6, 7]);
    }

    #[test]
    fn chiplet_ids_are_the_chiplet_list_filtered_by_class() {
        let mut other = PlatformConfig::paper_table1();
        other.dense.chiplets = 3;
        other.conv7.chiplets = 0;
        for cfg in [PlatformConfig::paper_table1(), other] {
            for class in MacClass::all() {
                let ids = cfg.chiplet_ids_of(class);
                let listed: Vec<usize> = cfg
                    .chiplets()
                    .iter()
                    .filter(|c| c.class == class)
                    .map(|c| c.id)
                    .collect();
                assert_eq!(ids, listed, "{class:?}");
                assert_eq!(ids.capacity(), ids.len(), "{class:?}: exact allocation");
            }
        }
    }

    #[test]
    fn mismatched_phnet_rejected() {
        let mut cfg = PlatformConfig::paper_table1();
        cfg.phnet.compute_chiplets = 5;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("compute chiplets"));
    }

    #[test]
    fn gateway_divisibility_enforced() {
        let mut cfg = PlatformConfig::paper_table1();
        cfg.conv3.macs_per_gateway = 7; // 44 % 7 != 0
        assert!(cfg.validate().is_err());
    }
}
