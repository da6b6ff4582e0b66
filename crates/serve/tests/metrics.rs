//! The serve metering contract:
//!
//! * metering never perturbs the simulation — the metered report is
//!   **bitwise-identical** to the unmetered baseline, in both decode
//!   disciplines;
//! * the exports are deterministic — same-seed reruns produce
//!   byte-identical Prometheus text and JSON lines, pinned against
//!   committed goldens;
//! * a disabled `MetricsConfig` (the default) yields an empty snapshot;
//! * and the counters account exactly for the report: token and
//!   request totals match the per-model stats, SLO-ok totals match the
//!   attainment fractions, and the batch-occupancy histogram counts
//!   one observation per scheduler tick.

use std::hash::Hasher;

use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::Precision;
use lumos_dse::StableHasher;
use lumos_metrics::{export_jsonl, export_prometheus, MetricsConfig, MetricsSnapshot};
use lumos_serve::{simulate, simulate_metered, BatchPolicy, ServeConfig, ServedModel, SharePolicy};

/// 1 ms metric windows: 50 per run at the 0.05 s horizon.
const WINDOW_PS: u64 = 1_000_000_000;

/// `(batching, digest of the Prometheus export, digest of the JSONL
/// export)` of the metered scenario, recorded while per-stream decode
/// and continuous batching still ran in two separate event loops. No
/// tick of this scenario coalesces, so `continuous(3)` exports exactly
/// what `continuous(1)` does.
const EXPORT_GOLDENS: [(BatchPolicy, u64, u64); 3] = [
    (
        BatchPolicy::PerStream,
        0x186d024749a4e43c,
        0xb89370a25ceb3bc9,
    ),
    (
        BatchPolicy::Continuous { max_batch: 1 },
        0x797a38c6ebef1511,
        0xa328bbb37b1ee6a7,
    ),
    (
        BatchPolicy::Continuous { max_batch: 3 },
        0x797a38c6ebef1511,
        0xa328bbb37b1ee6a7,
    ),
];

fn mix() -> Vec<ServedModel> {
    vec![
        ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 600.0, 5.0),
        ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            4,
            1,
            Precision::int8(),
            120.0,
            1_000.0,
        ),
    ]
}

fn cfg(batching: BatchPolicy) -> ServeConfig {
    ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, mix())
        .with_duration_s(0.05)
        .with_seed(7)
        .with_max_concurrency(4)
        .with_batching(batching)
        .with_sharing(SharePolicy::SloPressure)
}

fn metered(batching: BatchPolicy) -> ServeConfig {
    cfg(batching).with_metrics(MetricsConfig::windowed(WINDOW_PS, 256))
}

fn total(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.series_named(name)
        .unwrap_or_else(|| panic!("series {name} registered"))
        .total_sum
}

#[test]
fn metered_report_is_bitwise_identical_to_unmetered() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let (report, snap) = simulate_metered(&metered(batching)).expect("metered simulate");
        let baseline = simulate(&cfg(batching)).expect("unmetered simulate");
        assert_eq!(
            report, baseline,
            "{batching:?}: metering perturbed the report"
        );
        assert!(
            !snap.series.is_empty(),
            "{batching:?}: enabled metrics recorded nothing"
        );
    }
}

#[test]
fn exports_are_byte_identical_across_same_seed_reruns() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let (r1, s1) = simulate_metered(&metered(batching)).expect("first run");
        let (r2, s2) = simulate_metered(&metered(batching)).expect("second run");
        assert_eq!(r1, r2);
        assert_eq!(
            export_prometheus(&s1),
            export_prometheus(&s2),
            "{batching:?}: prometheus exports diverged"
        );
        assert_eq!(
            export_jsonl(&s1),
            export_jsonl(&s2),
            "{batching:?}: jsonl exports diverged"
        );
    }
}

#[test]
fn exports_match_goldens() {
    let digest = |text: String| {
        let mut h = StableHasher::new();
        h.write_str(&text);
        h.finish()
    };
    let mut drifted = Vec::new();
    for (batching, prom_golden, jsonl_golden) in EXPORT_GOLDENS {
        let (_, snap) = simulate_metered(&metered(batching)).expect("metered simulate");
        let (prom, jsonl) = (
            digest(export_prometheus(&snap)),
            digest(export_jsonl(&snap)),
        );
        if (prom, jsonl) != (prom_golden, jsonl_golden) {
            drifted.push(format!("({batching:?}, {prom:#018x}, {jsonl:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "metric exports drifted from their goldens: {}",
        drifted.join(", ")
    );
}

#[test]
fn disabled_metrics_config_yields_empty_snapshot() {
    // `ServeConfig::new` defaults to `MetricsConfig::off`.
    let (report, snap) = simulate_metered(&cfg(BatchPolicy::PerStream)).expect("simulate");
    assert!(snap.series.is_empty(), "off registry must record nothing");
    assert_eq!(
        report,
        simulate(&cfg(BatchPolicy::PerStream)).expect("baseline")
    );
}

#[test]
fn counters_account_for_the_report() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let (report, snap) = simulate_metered(&metered(batching)).expect("metered simulate");
        for m in &report.models {
            let tokens = total(
                &snap,
                &format!("serve_tokens_total{{model=\"{}\"}}", m.name),
            );
            assert_eq!(
                tokens, m.tokens as f64,
                "{batching:?}/{}: token counter vs report",
                m.name
            );
            let served = total(
                &snap,
                &format!("serve_requests_total{{model=\"{}\"}}", m.name),
            );
            assert_eq!(
                served, m.served as f64,
                "{batching:?}/{}: request counter vs report",
                m.name
            );
            // `slo_attainment` is within/served, so the SLO-ok counter
            // recovers the within count exactly.
            let slo_ok = total(
                &snap,
                &format!("serve_slo_ok_total{{model=\"{}\"}}", m.name),
            );
            let within = m.slo_attainment * m.served as f64;
            assert!(
                (slo_ok - within).abs() < 1e-6,
                "{batching:?}/{}: slo_ok {slo_ok} vs attainment-implied {within}",
                m.name
            );
        }
        let served_sum: u64 = report.models.iter().map(|m| m.served).sum();
        assert_eq!(served_sum, report.total_served);
    }
}

#[test]
fn batch_histogram_counts_one_observation_per_tick() {
    let (report, snap) =
        simulate_metered(&metered(BatchPolicy::continuous(3))).expect("metered simulate");
    let hist = snap
        .series_named("serve_batch_occupancy")
        .expect("batch histogram registered");
    assert_eq!(
        hist.total_count, report.batch.ticks,
        "one occupancy observation per scheduler tick"
    );
    assert!(report.batch.ticks > 0, "scenario must exercise batching");
    // Per-stream decode has no scheduler ticks: the histogram stays
    // registered but empty.
    let (_, per_stream) =
        simulate_metered(&metered(BatchPolicy::PerStream)).expect("per-stream simulate");
    let hist = per_stream
        .series_named("serve_batch_occupancy")
        .expect("batch histogram registered");
    assert_eq!(hist.total_count, 0);
}
