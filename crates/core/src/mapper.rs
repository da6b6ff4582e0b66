//! Layer-to-chiplet mapping.
//!
//! The paper's platform is heterogeneous (Table 1): dense/FC layers and
//! 1×1 convolutions go to the 100-lane dense units, K×K convolutions to
//! the matching (or smallest covering) convolution units, depthwise
//! convolutions to the units matching their window. Larger-than-7×7
//! kernels are decomposed into multiple passes by the chunking rule of
//! [`LayerWorkload::passes_on`].
//!
//! Batched GEMMs (transformer attention/MLP blocks,
//! [`KernelClass::Gemm`]) have no class affinity: any vector unit can
//! chunk a long reduction. The mapper therefore spreads a GEMM's dot
//! products across **every** MAC class in proportion to each class's
//! dot-product throughput at that reduction length, so the whole
//! platform — not just the two dense chiplets — works the workload and
//! its activation-heavy streams fan out over the full interposer.
//! Softmax and layer-norm passes ride on the dense chiplets, whose
//! digital periphery hosts the row reductions.

use lumos_dnn::workload::{KernelClass, LayerWorkload};

use crate::config::{MacClass, PlatformConfig};
use crate::error::CoreError;

/// One class's share of a placement: which chiplets, how many units,
/// and how many MAC passes they execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementShare {
    /// MAC class of this share.
    pub class: MacClass,
    /// Chiplets participating (all chiplets of the class).
    pub chiplets: Vec<usize>,
    /// Total units across those chiplets.
    pub units: usize,
    /// Dot products assigned to this class.
    pub dots: u64,
    /// MAC passes those dots need at this class's lane width.
    pub passes: u64,
}

/// Where one layer executes.
///
/// CNN layers occupy a single share (their Table 1 affinity class);
/// batched GEMMs are split across every class, one share each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Primary MAC class (the share executing the most dot products) —
    /// what per-layer reports display.
    pub class: MacClass,
    /// Chiplets participating, across all shares.
    pub chiplets: Vec<usize>,
    /// Total units across those chiplets.
    pub units: usize,
    /// Total MAC passes across all shares.
    pub passes: u64,
    /// The per-class split.
    pub shares: Vec<PlacementShare>,
}

/// Restricts which chiplets a placement may use, per MAC class.
///
/// The default ([`PlacementPolicy::unrestricted`]) places every class
/// on all of its chiplets — [`place`] semantics, bit for bit. Pinning
/// a class to a chiplet subset ([`PlacementPolicy::pin`]) shrinks that
/// class's unit pool proportionally, which is what lets the flow-level
/// contention model ask placement questions ("both streams on one
/// conv5 chiplet" vs "spread across the interposer") the uniform
/// derate provably cannot distinguish.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementPolicy {
    /// Per-class chiplet pins; classes absent here are unrestricted.
    pins: Vec<(MacClass, Vec<usize>)>,
}

impl PlacementPolicy {
    /// No restrictions: every class uses all of its chiplets.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Pins `class` to exactly `chiplets` (global chiplet ids, sorted
    /// and deduplicated). Re-pinning a class replaces the earlier pin.
    pub fn pin(mut self, class: MacClass, chiplets: Vec<usize>) -> Self {
        let mut chiplets = chiplets;
        chiplets.sort_unstable();
        chiplets.dedup();
        self.pins.retain(|(c, _)| *c != class);
        self.pins.push((class, chiplets));
        self
    }

    /// The chiplets `class` may use under this policy.
    fn chiplets_for(&self, cfg: &PlatformConfig, class: MacClass) -> Vec<usize> {
        match self.pins.iter().find(|(c, _)| *c == class) {
            Some((_, pinned)) => pinned.clone(),
            None => cfg.chiplet_ids_of(class),
        }
    }

    /// The unit pool `class` may use: its per-chiplet unit count times
    /// the allowed chiplet count.
    fn units_for(&self, cfg: &PlatformConfig, class: MacClass) -> usize {
        self.chiplets_for(cfg, class).len() * cfg.class(class).macs_per_chiplet
    }

    /// Checks every pin names at least one chiplet and only chiplets
    /// of the pinned class.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] naming the first bad pin.
    pub fn validate(&self, cfg: &PlatformConfig) -> Result<(), CoreError> {
        let chiplets = cfg.chiplets();
        for (class, pinned) in &self.pins {
            if pinned.is_empty() {
                return Err(CoreError::BadConfig {
                    reason: format!("{class:?} pinned to zero chiplets"),
                });
            }
            for &id in pinned {
                match chiplets.iter().find(|c| c.id == id) {
                    None => {
                        return Err(CoreError::BadConfig {
                            reason: format!("{class:?} pinned to unknown chiplet {id}"),
                        })
                    }
                    Some(info) if info.class != *class => {
                        return Err(CoreError::BadConfig {
                            reason: format!(
                                "{class:?} pinned to chiplet {id}, which hosts {:?}",
                                info.class
                            ),
                        })
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Chooses the affinity MAC class for a workload.
///
/// Batched GEMMs and the elementwise softmax/norm passes report
/// [`MacClass::Dense100`] (long-vector reductions); [`place`] spreads
/// GEMMs across all classes regardless.
///
/// # Errors
///
/// Returns [`CoreError::UnmappableLayer`] for kernels no class can
/// chunk (zero-sized windows — impossible from a valid graph).
fn class_for(workload: &LayerWorkload) -> Result<MacClass, CoreError> {
    let class = match workload.class {
        KernelClass::Dense | KernelClass::Gemm { .. } => MacClass::Dense100,
        KernelClass::Softmax | KernelClass::Norm => MacClass::Dense100,
        KernelClass::Conv { k } | KernelClass::Depthwise { k } => match k {
            0 => {
                return Err(CoreError::UnmappableLayer {
                    layer: workload.name.clone(),
                    reason: "zero-sized kernel".into(),
                })
            }
            1..=3 => MacClass::Conv3,
            4..=5 => MacClass::Conv5,
            _ => MacClass::Conv7,
        },
    };
    Ok(class)
}

/// MAC passes one dot product of `workload` needs on `class`: chunks of
/// `window` scheduled `ceil(window / lanes)` passes each. Degenerate
/// zero-length reductions cost one pass, so per-class rates stay
/// finite.
fn passes_per_dot(workload: &LayerWorkload, class: MacClass) -> u64 {
    let chunks = workload.dot_length.max(1).div_ceil(workload.window.max(1));
    chunks * workload.window.max(1).div_ceil(class.lanes() as u64)
}

/// Splits a batched GEMM's dot products across every MAC class in
/// proportion to each class's dot throughput (units per pass-per-dot)
/// at the GEMM's reduction length, so all shares finish together.
/// Rounding leftovers go to the highest-throughput classes; classes
/// rounding to zero dots are dropped from the placement.
fn gemm_shares(
    cfg: &PlatformConfig,
    workload: &LayerWorkload,
    policy: &PlacementPolicy,
) -> Vec<PlacementShare> {
    let dots = workload.dot_products;
    let all = MacClass::all();
    if dots == 0 {
        // A degenerate GEMM still needs a non-empty placement (the
        // runner shards weight streams over the placement's chiplets).
        return vec![PlacementShare {
            class: MacClass::Dense100,
            chiplets: policy.chiplets_for(cfg, MacClass::Dense100),
            units: policy.units_for(cfg, MacClass::Dense100),
            dots: 0,
            passes: 0,
        }];
    }
    let rates: Vec<f64> = all
        .iter()
        .map(|&c| policy.units_for(cfg, c) as f64 / passes_per_dot(workload, c) as f64)
        .collect();
    let total_rate: f64 = rates.iter().sum();

    // Floor the proportional quotas, then deal the remainder out in
    // descending fractional-part order (ties broken by class order) so
    // the split is deterministic and sums exactly to `dots`.
    let quotas: Vec<f64> = rates.iter().map(|r| dots as f64 * r / total_rate).collect();
    let mut assigned: Vec<u64> = quotas.iter().map(|q| q.floor() as u64).collect();
    let mut remainder = dots - assigned.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = quotas[a] - quotas[a].floor();
        let fb = quotas[b] - quotas[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut next = 0usize;
    while remainder > 0 {
        assigned[order[next % order.len()]] += 1;
        remainder -= 1;
        next += 1;
    }

    all.iter()
        .zip(assigned)
        .filter(|&(_, dots)| dots > 0)
        .map(|(&class, dots)| PlacementShare {
            class,
            chiplets: policy.chiplets_for(cfg, class),
            units: policy.units_for(cfg, class),
            dots,
            passes: dots * passes_per_dot(workload, class),
        })
        .collect()
}

/// Maps a workload onto the platform.
///
/// CNN kernels get their affinity class's chiplets and pass count at
/// that class's lane width; batched GEMMs are split across every class
/// (see [the module docs](self)).
///
/// # Errors
///
/// Returns [`CoreError::UnmappableLayer`] for a kernel no class can
/// chunk (a zero-sized window).
///
/// # Examples
///
/// ```
/// use lumos_core::config::PlatformConfig;
/// use lumos_core::mapper::place;
/// use lumos_dnn::workload::{extract_workloads, Precision};
///
/// let cfg = PlatformConfig::paper_table1();
/// let work = extract_workloads(&lumos_dnn::zoo::lenet5(), Precision::int8());
/// let p = place(&cfg, &work[0])?; // 5×5 conv → Conv5 class
/// assert_eq!(p.units, 32);
/// assert_eq!(p.chiplets.len(), 2);
/// # Ok::<(), lumos_core::error::CoreError>(())
/// ```
pub fn place(cfg: &PlatformConfig, workload: &LayerWorkload) -> Result<Placement, CoreError> {
    place_with(cfg, workload, &PlacementPolicy::unrestricted())
}

/// Maps a workload onto the platform under a [`PlacementPolicy`].
///
/// With an unrestricted policy this is [`place`], bit for bit. Pinned
/// classes keep the same chunking rules but draw on the pinned
/// chiplets' (proportionally smaller) unit pool.
///
/// # Errors
///
/// Returns [`CoreError::UnmappableLayer`] for a kernel no class can
/// chunk (a zero-sized window), and rejects invalid pins via
/// [`PlacementPolicy::validate`].
pub fn place_with(
    cfg: &PlatformConfig,
    workload: &LayerWorkload,
    policy: &PlacementPolicy,
) -> Result<Placement, CoreError> {
    policy.validate(cfg)?;
    let affinity = class_for(workload)?;
    let shares = if matches!(workload.class, KernelClass::Gemm { .. }) {
        gemm_shares(cfg, workload, policy)
    } else {
        let dots = workload.dot_products;
        vec![PlacementShare {
            class: affinity,
            chiplets: policy.chiplets_for(cfg, affinity),
            units: policy.units_for(cfg, affinity),
            dots,
            passes: workload.passes_on(affinity.lanes() as u64),
        }]
    };
    let primary = shares
        .iter()
        .max_by_key(|s| (s.dots, std::cmp::Reverse(s.class)))
        .map(|s| s.class)
        .unwrap_or(affinity);
    Ok(Placement {
        class: primary,
        chiplets: shares.iter().flat_map(|s| s.chiplets.clone()).collect(),
        units: shares.iter().map(|s| s.units).sum(),
        passes: shares.iter().map(|s| s.passes).sum(),
        shares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_dnn::workload::{extract_workloads, Precision};
    use lumos_dnn::zoo;

    fn workloads_of(model: lumos_dnn::Model) -> Vec<LayerWorkload> {
        extract_workloads(&model, Precision::int8())
    }

    fn gemm_workload(m: u32, n: u32, k: u32, batch: u32) -> LayerWorkload {
        let dots = batch as u64 * m as u64 * n as u64;
        LayerWorkload {
            name: format!("gemm{m}x{n}x{k}b{batch}"),
            class: KernelClass::Gemm { m, n, k, batch },
            dot_products: dots,
            dot_length: k as u64,
            window: k as u64,
            macs: dots * k as u64,
            weight_bits: 0,
            input_bits: 0,
            output_bits: 0,
        }
    }

    #[test]
    fn vgg_convs_go_to_conv3() {
        let cfg = PlatformConfig::paper_table1();
        let work = workloads_of(zoo::vgg16());
        for w in work.iter().take(13) {
            let p = place(&cfg, w).expect("every resnet50 workload places");
            assert_eq!(p.class, MacClass::Conv3, "{}", w.name);
            assert_eq!(p.units, 132);
            assert_eq!(p.shares.len(), 1);
        }
    }

    #[test]
    fn fc_and_pointwise_go_to_dense() {
        let cfg = PlatformConfig::paper_table1();
        let work = workloads_of(zoo::resnet50());
        let stem = place(&cfg, &work[0]).expect("stem conv places");
        assert_eq!(stem.class, MacClass::Conv7); // 7×7 stem
        let pointwise = work
            .iter()
            .find(|w| w.name == "conv2_1_1_conv")
            .expect("resnet50 lowers a conv2_1_1_conv workload");
        assert_eq!(
            place(&cfg, pointwise).expect("pointwise conv places").class,
            MacClass::Dense100
        );
        let fc = work
            .iter()
            .find(|w| w.name == "predictions")
            .expect("resnet50 lowers a predictions workload");
        assert_eq!(
            place(&cfg, fc).expect("classifier places").class,
            MacClass::Dense100
        );
    }

    #[test]
    fn softmax_rides_the_dense_chiplets() {
        let cfg = PlatformConfig::paper_table1();
        let work = workloads_of(zoo::resnet50());
        let sm = work.last().expect("lowered stream is non-empty");
        assert_eq!(sm.class, KernelClass::Softmax);
        let p = place(&cfg, sm).expect("softmax workload places");
        assert_eq!(p.class, MacClass::Dense100);
        assert_eq!(p.shares.len(), 1);
    }

    #[test]
    fn depthwise_goes_to_conv3() {
        let cfg = PlatformConfig::paper_table1();
        let work = workloads_of(zoo::mobilenet_v2());
        let dw = work
            .iter()
            .find(|w| w.name == "block_1_depthwise")
            .expect("mobilenet lowers a block_1_depthwise workload");
        let p = place(&cfg, dw).expect("depthwise conv places");
        assert_eq!(p.class, MacClass::Conv3);
        // Depthwise 3×3 fits one pass per output.
        assert_eq!(p.passes, dw.dot_products);
    }

    #[test]
    fn lenet_5x5_goes_to_conv5() {
        let cfg = PlatformConfig::paper_table1();
        let work = workloads_of(zoo::lenet5());
        let p = place(&cfg, &work[1]).expect("second workload places");
        assert_eq!(p.class, MacClass::Conv5);
        // 16 output maps of 10×10, reduced over 6 input channels: one
        // 25-lane pass per (output, channel) pair.
        assert_eq!(p.passes, 16 * 10 * 10 * 6);
    }

    #[test]
    fn oversized_kernel_decomposes_on_conv7() {
        let cfg = PlatformConfig::paper_table1();
        let w = LayerWorkload {
            name: "conv11".into(),
            class: KernelClass::Conv { k: 11 },
            dot_products: 100,
            dot_length: 121 * 3,
            window: 121,
            macs: 100 * 121 * 3,
            weight_bits: 0,
            input_bits: 0,
            output_bits: 0,
        };
        let p = place(&cfg, &w).expect("workload places");
        assert_eq!(p.class, MacClass::Conv7);
        // Each 121-wide chunk needs ceil(121/49)=3 passes, 3 chunks/dot.
        assert_eq!(p.passes, 100 * 3 * 3);
    }

    #[test]
    fn gemm_spreads_over_every_class() {
        let cfg = PlatformConfig::paper_table1();
        let w = gemm_workload(512, 768, 768, 4);
        let p = place(&cfg, &w).expect("workload places");
        assert_eq!(p.shares.len(), 4, "large GEMM engages all classes");
        assert_eq!(p.chiplets.len(), cfg.compute_chiplets());
        let dots: u64 = p.shares.iter().map(|s| s.dots).sum();
        assert_eq!(dots, w.dot_products, "dot products conserved");
        for s in &p.shares {
            assert_eq!(s.passes, s.dots * passes_per_dot(&w, s.class));
        }
    }

    #[test]
    fn gemm_split_is_throughput_balanced() {
        let cfg = PlatformConfig::paper_table1();
        let w = gemm_workload(512, 512, 64, 96); // attention scores shape
        let p = place(&cfg, &w).expect("workload places");
        // Per-share completion time (passes/units) must be within one
        // pass-per-dot granule of the slowest share.
        let time = |s: &PlacementShare| s.passes as f64 / s.units as f64;
        let slowest = p.shares.iter().map(time).fold(0.0, f64::max);
        for s in &p.shares {
            let granule = passes_per_dot(&w, s.class) as f64 / s.units as f64;
            assert!(
                slowest - time(s) <= granule + 1e-9,
                "{:?} underloaded: {} vs slowest {}",
                s.class,
                time(s),
                slowest
            );
        }
    }

    #[test]
    fn tiny_gemm_drops_empty_shares() {
        let cfg = PlatformConfig::paper_table1();
        let w = gemm_workload(1, 2, 64, 1); // 2 dot products
        let p = place(&cfg, &w).expect("workload places");
        let dots: u64 = p.shares.iter().map(|s| s.dots).sum();
        assert_eq!(dots, 2);
        assert!(p.shares.iter().all(|s| s.dots > 0));
        assert!(p.shares.len() <= 2);
    }

    #[test]
    fn degenerate_gemms_stay_placeable() {
        let cfg = PlatformConfig::paper_table1();
        // Zero dot products: still a non-empty placement.
        let mut w = gemm_workload(1, 1, 64, 1);
        w.dot_products = 0;
        w.macs = 0;
        let p = place(&cfg, &w).expect("workload places");
        assert!(!p.chiplets.is_empty());
        assert_eq!(p.passes, 0);
        // Zero-length reduction: rates stay finite, dots conserved.
        let mut w = gemm_workload(4, 4, 1, 1);
        w.dot_length = 0;
        w.window = 0;
        w.macs = 0;
        let p = place(&cfg, &w).expect("workload places");
        assert_eq!(p.shares.iter().map(|s| s.dots).sum::<u64>(), 16);
    }

    #[test]
    fn unrestricted_policy_is_place_exactly() {
        let cfg = PlatformConfig::paper_table1();
        let policy = PlacementPolicy::unrestricted();
        for model in [zoo::lenet5(), zoo::resnet50()] {
            for w in workloads_of(model) {
                let a = place(&cfg, &w).expect("places");
                let b = place_with(&cfg, &w, &policy).expect("places with policy");
                assert_eq!(a, b, "{}", w.name);
            }
        }
        let w = gemm_workload(128, 3072, 768, 8);
        assert_eq!(
            place(&cfg, &w).expect("places"),
            place_with(&cfg, &w, &policy).expect("places with policy")
        );
    }

    #[test]
    fn pinned_class_shrinks_its_unit_pool() {
        let cfg = PlatformConfig::paper_table1();
        // Conv5 chiplets are global ids 3 and 4 (port order).
        let policy = PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![3]);
        let work = workloads_of(zoo::lenet5());
        let full = place(&cfg, &work[1]).expect("places");
        let pinned = place_with(&cfg, &work[1], &policy).expect("places pinned");
        assert_eq!(pinned.class, MacClass::Conv5);
        assert_eq!(pinned.chiplets, vec![3]);
        assert_eq!(
            pinned.units * 2,
            full.units,
            "half the chiplets, half the pool"
        );
        assert_eq!(
            pinned.passes, full.passes,
            "chunking is placement-independent"
        );
    }

    #[test]
    fn bad_pins_rejected() {
        let cfg = PlatformConfig::paper_table1();
        let empty = PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![]);
        assert!(empty.validate(&cfg).is_err());
        let unknown = PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![42]);
        assert!(unknown.validate(&cfg).is_err());
        // Chiplet 0 hosts Dense100, not Conv5.
        let wrong = PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![0]);
        assert!(wrong.validate(&cfg).is_err());
        let w = workloads_of(zoo::lenet5()).remove(1);
        assert!(place_with(&cfg, &w, &wrong).is_err());
    }

    #[test]
    fn gemm_split_deterministic() {
        let cfg = PlatformConfig::paper_table1();
        let w = gemm_workload(128, 3072, 768, 8);
        let a = place(&cfg, &w).expect("workload places");
        let b = place(&cfg, &w).expect("workload places again");
        assert_eq!(a, b);
    }
}
