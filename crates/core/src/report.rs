//! Run reports: per-layer breakdowns and platform summaries.

use lumos_sim::SimTime;

use crate::config::MacClass;
use crate::platform::Platform;

/// Timing/energy breakdown of one executed layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name from the model graph.
    pub name: String,
    /// MAC class it ran on.
    pub class: MacClass,
    /// When the layer started (including reconfiguration stall).
    pub start: SimTime,
    /// When its outputs were committed to memory.
    pub finish: SimTime,
    /// Pure compute time on the MAC units, seconds.
    pub compute_s: f64,
    /// Inbound communication time (weights + activations), seconds.
    pub comm_in_s: f64,
    /// Outbound (write-back) time, seconds.
    pub comm_out_s: f64,
    /// Bits this layer moved across the memory interface.
    pub bits: u64,
}

impl LayerReport {
    /// Wall-clock span of the layer, seconds.
    pub fn span_s(&self) -> f64 {
        self.finish.saturating_sub(self.start).as_secs_f64()
    }

    /// `true` when communication (in or out) dominated compute.
    pub fn comm_bound(&self) -> bool {
        self.comm_in_s.max(self.comm_out_s) > self.compute_s
    }
}

/// Energy breakdown of a full run, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC array (active + idle) energy.
    pub mac_j: f64,
    /// Interposer / on-chip network energy (laser, tuning, EO/OE,
    /// routers, reconfiguration).
    pub network_j: f64,
    /// Memory (HBM dynamic + background) energy.
    pub memory_j: f64,
    /// Miscellaneous always-on digital energy.
    pub digital_j: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.mac_j + self.network_j + self.memory_j + self.digital_j
    }
}

/// The result of running one model on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Platform simulated.
    pub platform: Platform,
    /// End-to-end inference latency.
    pub total_latency: SimTime,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Bits moved across the memory/interposer interface.
    pub bits_moved: u64,
    /// Per-layer breakdowns, in execution order.
    pub layers: Vec<LayerReport>,
}

impl RunReport {
    /// Time-averaged power over the run, watts.
    pub fn avg_power_w(&self) -> f64 {
        let t = self.total_latency.as_secs_f64();
        if t > 0.0 {
            self.energy.total_j() / t
        } else {
            0.0
        }
    }

    /// Energy per transported bit, joules/bit (the paper's EPB metric;
    /// we state the denominator explicitly: interposer/memory traffic).
    fn energy_per_bit(&self) -> f64 {
        if self.bits_moved > 0 {
            self.energy.total_j() / self.bits_moved as f64
        } else {
            0.0
        }
    }

    /// Energy per bit in nanojoules (Table 3's unit).
    pub fn epb_nj(&self) -> f64 {
        self.energy_per_bit() * 1e9
    }

    /// Latency in milliseconds (Table 3's unit).
    pub fn latency_ms(&self) -> f64 {
        self.total_latency.as_ms_f64()
    }

    /// Fraction of layers that were communication-bound.
    pub fn comm_bound_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().filter(|l| l.comm_bound()).count() as f64 / self.layers.len() as f64
    }
}

/// Averages a set of per-model reports into a Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSummary {
    /// Platform summarized.
    pub platform: Platform,
    /// Mean of per-model average powers, watts.
    pub avg_power_w: f64,
    /// Mean of per-model latencies, milliseconds.
    pub avg_latency_ms: f64,
    /// Mean of per-model EPBs, nanojoules/bit.
    pub avg_epb_nj: f64,
}

/// Builds the Table 3 row for `platform` from its per-model reports.
///
/// # Panics
///
/// Panics when `reports` is empty or contains a different platform.
pub fn summarize(platform: Platform, reports: &[RunReport]) -> PlatformSummary {
    assert!(!reports.is_empty(), "cannot summarize zero reports");
    assert!(
        reports.iter().all(|r| r.platform == platform),
        "mixed platforms in summary"
    );
    let n = reports.len() as f64;
    PlatformSummary {
        platform,
        avg_power_w: reports.iter().map(RunReport::avg_power_w).sum::<f64>() / n,
        avg_latency_ms: reports.iter().map(RunReport::latency_ms).sum::<f64>() / n,
        avg_epb_nj: reports.iter().map(RunReport::epb_nj).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(platform: Platform, ms: f64, energy_j: f64, bits: u64) -> RunReport {
        RunReport {
            model: "m".into(),
            platform,
            total_latency: SimTime::from_secs_f64(ms * 1e-3),
            energy: EnergyBreakdown {
                mac_j: energy_j,
                ..Default::default()
            },
            bits_moved: bits,
            layers: Vec::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(Platform::Siph2p5D, 2.0, 0.1, 100_000_000);
        assert!((r.avg_power_w() - 50.0).abs() < 1e-9);
        assert!((r.epb_nj() - 1.0).abs() < 1e-9);
        assert!((r.latency_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_averages() {
        let rs = vec![
            report(Platform::Monolithic, 1.0, 0.05, 1_000_000),
            report(Platform::Monolithic, 3.0, 0.15, 1_000_000),
        ];
        let s = summarize(Platform::Monolithic, &rs);
        assert!((s.avg_latency_ms - 2.0).abs() < 1e-9);
        assert!((s.avg_power_w - 50.0).abs() < 1e-9);
    }

    #[test]
    fn layer_report_helpers() {
        let l = LayerReport {
            name: "c".into(),
            class: MacClass::Conv3,
            start: SimTime::from_us(1),
            finish: SimTime::from_us(3),
            compute_s: 1e-6,
            comm_in_s: 2e-6,
            comm_out_s: 0.0,
            bits: 10,
        };
        assert!((l.span_s() - 2e-6).abs() < 1e-15);
        assert!(l.comm_bound());
    }

    #[test]
    #[should_panic(expected = "mixed platforms")]
    fn summary_rejects_mixed() {
        let rs = vec![
            report(Platform::Monolithic, 1.0, 0.05, 1),
            report(Platform::Siph2p5D, 1.0, 0.05, 1),
        ];
        let _ = summarize(Platform::Monolithic, &rs);
    }

    #[test]
    fn zero_latency_power_is_zero() {
        let r = report(Platform::Elec2p5D, 0.0, 1.0, 0);
        assert_eq!(r.avg_power_w(), 0.0);
        assert_eq!(r.energy_per_bit(), 0.0);
    }
}
