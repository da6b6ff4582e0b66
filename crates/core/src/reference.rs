//! Literature reference platforms for Table 3.
//!
//! The paper's Table 3 compares its three simulated platforms against
//! seven published accelerators/processors. Those rows are *cited
//! measurements*, not simulations — the paper takes them from the
//! respective publications and datasheets, and so do we. They are kept
//! here as labeled constants so the Table 3 harness can print the full
//! table.

/// One cited Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePlatform {
    /// Platform name as printed in Table 3.
    pub name: &'static str,
    /// Average power, watts.
    pub power_w: f64,
    /// Average total latency across the evaluated models, milliseconds.
    pub latency_ms: f64,
    /// Energy per bit, nanojoules.
    pub epb_nj: f64,
    /// Where the numbers come from.
    pub source: &'static str,
}

/// The paper's own values for its three simulated platforms (Table 3),
/// printed next to LUMOS's rows by the `tables` binary of `lumos-bench`
/// (pinned by `tests/goldens/tables.txt`).
pub const PAPER_SIMULATED: [ReferencePlatform; 3] = [
    ReferencePlatform {
        name: "CrossLight [21]",
        power_w: 50.8,
        latency_ms: 8.0,
        epb_nj: 3.6,
        source: "paper Table 3 (simulated by the authors)",
    },
    ReferencePlatform {
        name: "2.5D-CrossLight-Elec",
        power_w: 45.3,
        latency_ms: 41.4,
        epb_nj: 20.5,
        source: "paper Table 3 (simulated by the authors)",
    },
    ReferencePlatform {
        name: "2.5D-CrossLight-SiPh",
        power_w: 89.7,
        latency_ms: 1.21,
        epb_nj: 1.3,
        source: "paper Table 3 (simulated by the authors)",
    },
];

/// The seven cited hardware rows of Table 3.
pub const LITERATURE: [ReferencePlatform; 7] = [
    ReferencePlatform {
        name: "Nvidia P100 GPU",
        power_w: 250.0,
        latency_ms: 13.1,
        epb_nj: 12.3,
        source: "vendor datasheet / paper Table 3",
    },
    ReferencePlatform {
        name: "Intel 9282 CPU",
        power_w: 400.0,
        latency_ms: 86.5,
        epb_nj: 64.4,
        source: "vendor datasheet / paper Table 3",
    },
    ReferencePlatform {
        name: "AMD 3970 CPU",
        power_w: 280.0,
        latency_ms: 141.3,
        epb_nj: 73.7,
        source: "vendor datasheet / paper Table 3",
    },
    ReferencePlatform {
        name: "Edge TPU",
        power_w: 2.0,
        latency_ms: 2366.4,
        epb_nj: 17.6,
        source: "vendor datasheet / paper Table 3",
    },
    ReferencePlatform {
        name: "Null Hop [42]",
        power_w: 2.3,
        latency_ms: 8049.3,
        epb_nj: 68.9,
        source: "Capra et al. survey / paper Table 3",
    },
    ReferencePlatform {
        name: "Deap_CNN [43]",
        power_w: 122.0,
        latency_ms: 619.01,
        epb_nj: 1959.4,
        source: "Bangari et al. / paper Table 3",
    },
    ReferencePlatform {
        name: "HolyLight [23]",
        power_w: 66.5,
        latency_ms: 86.4,
        epb_nj: 40.3,
        source: "Liu et al. / paper Table 3",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_ratios_hold_in_the_cited_rows() {
        // §VI: SiPh is 6.6× lower latency / 2.8× lower EPB than mono,
        // 34× / 15.8× vs electrical. Verify Table 3 is self-consistent.
        let [mono, elec, siph] = PAPER_SIMULATED;
        assert!((mono.latency_ms / siph.latency_ms - 6.6).abs() < 0.2);
        assert!((elec.latency_ms / siph.latency_ms - 34.0).abs() < 0.5);
        assert!((mono.epb_nj / siph.epb_nj - 2.8).abs() < 0.1);
        assert!((elec.epb_nj / siph.epb_nj - 15.8).abs() < 0.1);
    }

    #[test]
    fn siph_beats_all_cited_hardware_on_latency_and_epb() {
        let siph = PAPER_SIMULATED[2];
        for r in LITERATURE {
            assert!(siph.latency_ms < r.latency_ms, "{}", r.name);
            assert!(siph.epb_nj < r.epb_nj, "{}", r.name);
        }
    }

    #[test]
    fn all_rows_have_sources() {
        for r in PAPER_SIMULATED.iter().chain(LITERATURE.iter()) {
            assert!(!r.source.is_empty());
            assert!(r.power_w > 0.0 && r.latency_ms > 0.0 && r.epb_nj > 0.0);
        }
    }
}
