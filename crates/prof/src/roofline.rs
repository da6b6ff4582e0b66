//! Roofline attribution: arithmetic intensity against platform
//! ceilings, and bound classification for ops.
//!
//! The roofline model asks one question per op: at this op's
//! arithmetic intensity (MACs per byte of interposer traffic,
//! [`lumos_dnn::LayerWorkload::macs_per_byte`]), does the platform's
//! compute ceiling or one of its bandwidth ceilings bind? The **ridge
//! point** of a MAC class is `compute_ceiling / bandwidth_ceiling`
//! (MACs per byte); ops above it are compute-bound, ops below it are
//! bound by whichever link family is slower.
//!
//! Two classifiers cross-check each other:
//!
//! * **analytic** ([`Ceilings::analytic_bound`]) — from the workload's
//!   intensity and the configured ceilings alone, no simulation, and
//! * **observed** ([`Roofline::from_runner_trace`]) — from the traced
//!   per-op compute/HBM/network span durations of an actual run.
//!
//! On a zero-contention run the two must agree wherever the ratio is
//! decisive — the self-consistency property the test suite pins.

use std::collections::BTreeMap;

use lumos_core::config::{MacClass, PlatformConfig};
use lumos_core::mac::MacUnit;
use lumos_core::platform::Platform;
use lumos_noc::LinkModel;
use lumos_trace::{ArgValue, EventKind, TraceEvent};

/// What binds an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// The MAC-class compute ceiling binds.
    Compute,
    /// The memory interface (HBM stack / monolithic memory bus) binds.
    Hbm,
    /// The interposer fabric (phnet, mesh, or on-die bus) binds.
    Network,
}

impl Bound {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Hbm => "hbm",
            Bound::Network => "network",
        }
    }
}

/// The platform's compute and bandwidth ceilings — the roofline's two
/// line families.
#[derive(Debug, Clone, PartialEq)]
pub struct Ceilings {
    /// Peak MACs per second of each class ([`MacClass::all`] order):
    /// units × lanes × MAC rate.
    pub class_macs_per_s: [f64; 4],
    /// Peak memory-interface bytes per second (HBM aggregate for the
    /// 2.5D platforms, the monolithic memory bus otherwise).
    pub mem_bytes_per_s: f64,
    /// Peak interposer-fabric bytes per second at the memory side
    /// (photonic memory gateways, the mesh's memory-node links, or the
    /// monolithic bus).
    pub net_bytes_per_s: f64,
}

impl Ceilings {
    /// First-order ceilings of `cfg` on `platform`.
    ///
    /// Compute is exact (the same units × lanes × rate product the
    /// simulator executes); the bandwidth ceilings are the memory-side
    /// aggregates — HBM channel sum, photonic memory-gateway sum, or
    /// the mesh memory node's link sum — which is where every weight
    /// and activation stream funnels.
    pub fn of(cfg: &PlatformConfig, platform: Platform) -> Self {
        let calib = &cfg.calibration;
        let scale = |n: usize| -> usize {
            if matches!(platform, Platform::Monolithic) {
                calib.mono_units(n)
            } else {
                n
            }
        };
        let mut class_macs_per_s = [0.0; 4];
        for &c in &MacClass::all() {
            class_macs_per_s[c.index()] =
                MacUnit::new(c, calib).macs_per_second() * scale(cfg.class(c).total_units()) as f64;
        }
        let gb = 1e9 / 8.0;
        let (mem_bytes_per_s, net_bytes_per_s) = match platform {
            Platform::Monolithic => (calib.mono_mem_gbps * gb, calib.mono_mem_gbps * gb),
            Platform::Elec2p5D => (
                cfg.hbm.aggregate_gbps() * gb,
                // The memory chiplet sits at the mesh centre with four
                // outgoing links.
                4.0 * LinkModel::paper_table1(calib.hop_mm_2p5d).bandwidth_gbps() * gb,
            ),
            Platform::Siph2p5D => (
                cfg.hbm.aggregate_gbps() * gb,
                cfg.phnet.gateway_rate_gbps() * cfg.phnet.memory_tx_gateways as f64 * gb,
            ),
        };
        Ceilings {
            class_macs_per_s,
            mem_bytes_per_s,
            net_bytes_per_s,
        }
    }

    /// The ridge point of `class` in MACs per byte: intensities above
    /// it are compute-bound, below it bandwidth-bound (against the
    /// slower of the two link families).
    pub fn ridge_macs_per_byte(&self, class: MacClass) -> f64 {
        self.class_macs_per_s[class.index()] / self.mem_bytes_per_s.min(self.net_bytes_per_s)
    }

    /// Analytic classification of an op with arithmetic intensity
    /// `macs_per_byte` running on `class`.
    pub fn analytic_bound(&self, class: MacClass, macs_per_byte: f64) -> Bound {
        if macs_per_byte >= self.ridge_macs_per_byte(class) {
            Bound::Compute
        } else if self.mem_bytes_per_s <= self.net_bytes_per_s {
            Bound::Hbm
        } else {
            Bound::Network
        }
    }
}

/// One op of a traced run, with its observed resource split.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Layer/op name.
    pub name: String,
    /// MAC class the mapper placed it on (primary share).
    pub class: MacClass,
    /// Kernel-shape label (`conv3x3`, `gemv`, …).
    pub kernel: String,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Interposer traffic, bits.
    pub bits: u64,
    /// Whole-op span (comm and compute overlapped), picoseconds.
    pub span_ps: u64,
    /// Compute span time, picoseconds.
    pub compute_ps: u64,
    /// HBM stream time (in + out), picoseconds.
    pub hbm_ps: u64,
    /// Interposer-fabric stream time (in + out), picoseconds.
    pub net_ps: u64,
    /// Observed bound: the resource holding the op the longest.
    pub bound: Bound,
}

impl OpProfile {
    /// Arithmetic intensity in MACs per byte of interposer traffic.
    pub fn macs_per_byte(&self) -> f64 {
        self.macs as f64 / ((self.bits / 8).max(1)) as f64
    }
}

/// Roofline attribution of one traced runner pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// The ceilings classification ran against.
    pub ceilings: Ceilings,
    /// Per-op profiles, in execution order.
    pub ops: Vec<OpProfile>,
}

fn arg_u64(e: &TraceEvent, key: &str) -> Option<u64> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn arg_str<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

fn parse_class(s: &str) -> Option<MacClass> {
    match s {
        "Dense100" => Some(MacClass::Dense100),
        "Conv7" => Some(MacClass::Conv7),
        "Conv5" => Some(MacClass::Conv5),
        "Conv3" => Some(MacClass::Conv3),
        _ => None,
    }
}

impl Roofline {
    /// Builds per-op profiles from a traced runner pass: `"op"` rollup
    /// spans carry name/class/kernel/bits/macs, and the same-named
    /// spans on the compute and link lanes supply the observed
    /// resource split. The observed bound is the resource that held
    /// the op longest (compute wins ties — it subsumes overlapped
    /// streams).
    pub fn from_runner_trace(events: &[TraceEvent], ceilings: Ceilings) -> Roofline {
        // name -> (compute, hbm, net) span totals.
        let mut splits: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for e in events {
            if let EventKind::Span { dur_ps } = e.kind {
                let slot = splits.entry(e.name.as_str()).or_default();
                if e.cat.starts_with("kernel:") {
                    slot.0 += dur_ps;
                } else if e.cat == "link:hbm" {
                    slot.1 += dur_ps;
                } else if e.cat.starts_with("link:") {
                    slot.2 += dur_ps;
                }
            }
        }
        let mut ops = Vec::new();
        for e in events {
            let EventKind::Span { dur_ps } = e.kind else {
                continue;
            };
            if e.cat != "op" {
                continue;
            }
            let Some(class) = arg_str(e, "class").and_then(parse_class) else {
                continue;
            };
            let (compute_ps, hbm_ps, net_ps) =
                splits.get(e.name.as_str()).copied().unwrap_or((0, 0, 0));
            let bound = if compute_ps >= hbm_ps && compute_ps >= net_ps {
                Bound::Compute
            } else if hbm_ps >= net_ps {
                Bound::Hbm
            } else {
                Bound::Network
            };
            ops.push(OpProfile {
                name: e.name.clone(),
                class,
                kernel: arg_str(e, "kernel").unwrap_or("").to_owned(),
                macs: arg_u64(e, "macs").unwrap_or(0),
                bits: arg_u64(e, "bits").unwrap_or(0),
                span_ps: dur_ps,
                compute_ps,
                hbm_ps,
                net_ps,
                bound,
            });
        }
        Roofline { ceilings, ops }
    }

    /// Ops per observed bound, sorted by bound.
    pub fn bound_histogram(&self) -> Vec<(Bound, usize)> {
        let mut by_bound: BTreeMap<Bound, usize> = BTreeMap::new();
        for op in &self.ops {
            *by_bound.entry(op.bound).or_insert(0) += 1;
        }
        by_bound.into_iter().collect()
    }

    /// Renders the per-op roofline table as deterministic text.
    pub fn export(&self) -> String {
        let mut out = format!(
            "roofline: mem {} GB/s, net {} GB/s\n",
            fmt(self.ceilings.mem_bytes_per_s / 1e9),
            fmt(self.ceilings.net_bytes_per_s / 1e9),
        );
        out.push_str(
            "  op                            class    kernel         ai(mac/B)  ridge      bound\n",
        );
        for op in &self.ops {
            out.push_str(&format!(
                "  {:<29} {:<8} {:<14} {:<10} {:<10} {}\n",
                op.name,
                format!("{:?}", op.class),
                op.kernel,
                fmt(op.macs_per_byte()),
                fmt(self.ceilings.ridge_macs_per_byte(op.class)),
                op.bound.label()
            ));
        }
        for (bound, n) in self.bound_histogram() {
            out.push_str(&format!("  {:<10} x{}\n", bound.label(), n));
        }
        out
    }
}

/// Deterministic fixed-point rendering for export tables (3 fractional
/// digits via integer math — no shortest-roundtrip float surprises).
fn fmt(x: f64) -> String {
    let milli = (x * 1e3).round() as i64;
    format!("{}.{:03}", milli / 1000, (milli % 1000).unsigned_abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceilings_match_hand_arithmetic() {
        let cfg = PlatformConfig::paper_table1();
        let c = Ceilings::of(&cfg, Platform::Siph2p5D);
        // Dense100: 8 units × 100 lanes × 5 GHz.
        assert_eq!(c.class_macs_per_s[0], 8.0 * 100.0 * 5e9);
        // Conv3: 132 units × 9 lanes × 5 GHz.
        assert_eq!(c.class_macs_per_s[3], 132.0 * 9.0 * 5e9);
        // HBM2: 8 × 256 Gb/s = 256 GB/s.
        assert_eq!(c.mem_bytes_per_s, 2048.0 * 1e9 / 8.0);
        assert!(c.net_bytes_per_s > 0.0);
    }

    #[test]
    fn analytic_bound_flips_at_the_ridge() {
        let c = Ceilings {
            class_macs_per_s: [4e12, 1e12, 1e12, 1e12],
            mem_bytes_per_s: 2e11,
            net_bytes_per_s: 4e11,
        };
        let ridge = c.ridge_macs_per_byte(MacClass::Dense100);
        assert_eq!(ridge, 20.0);
        assert_eq!(c.analytic_bound(MacClass::Dense100, 25.0), Bound::Compute);
        assert_eq!(c.analytic_bound(MacClass::Dense100, 5.0), Bound::Hbm);
        let slower_net = Ceilings {
            net_bytes_per_s: 1e11,
            ..c
        };
        assert_eq!(
            slower_net.analytic_bound(MacClass::Dense100, 5.0),
            Bound::Network
        );
    }

    #[test]
    fn fixed_point_formatting_is_stable() {
        assert_eq!(fmt(1.0), "1.000");
        assert_eq!(fmt(0.1255), "0.126");
        assert_eq!(fmt(256.0), "256.000");
    }
}
