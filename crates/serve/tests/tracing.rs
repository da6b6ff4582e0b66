//! The serve tracing contract:
//!
//! * tracing never perturbs the simulation — the traced report is
//!   **bitwise-identical** to the untraced baseline, in both decode
//!   disciplines;
//! * the event stream is deterministic — same-seed reruns export
//!   byte-identical Chrome trace JSON, pinned against committed
//!   goldens;
//! * per-stream decode traces one `decode` segment per request and
//!   step, continuous batching one `decode-tick` span per tick;
//! * the ring sink bounds retention under overload (most recent events
//!   win, older ones are dropped);
//! * a disabled `TraceConfig` yields no events at all;
//! * and the lifecycle instants account exactly for the report: one
//!   `arrive` per arrival, one `complete` per served request.

use std::hash::Hasher;

use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::Precision;
use lumos_dse::StableHasher;
use lumos_serve::{simulate, simulate_traced, BatchPolicy, ServeConfig, ServedModel, SharePolicy};
use lumos_trace::{export_chrome_trace, EventKind, TraceConfig, TraceEvent};

/// `(batching, digest of the scenario's Chrome export)`, recorded while
/// per-stream decode and continuous batching still ran in two separate
/// event loops. No tick of this scenario coalesces, so `continuous(3)`
/// exports exactly what `continuous(1)` does.
const CHROME_GOLDENS: [(BatchPolicy, u64); 3] = [
    (BatchPolicy::PerStream, 0xc982e13b7b5a6ad6),
    (BatchPolicy::Continuous { max_batch: 1 }, 0x8868ed63f7244d53),
    (BatchPolicy::Continuous { max_batch: 3 }, 0x8868ed63f7244d53),
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

fn instants_named<'a>(events: &'a [TraceEvent], name: &'a str) -> Vec<&'a TraceEvent> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == name)
        .collect()
}

#[test]
fn traced_report_is_bitwise_identical_to_untraced() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let traced_cfg = cfg(batching).with_trace(TraceConfig::enabled());
        let (report, events) = simulate_traced(&traced_cfg).expect("traced simulate");
        let baseline = simulate(&cfg(batching)).expect("untraced simulate");
        assert_eq!(
            report, baseline,
            "{batching:?}: tracing perturbed the report"
        );
        assert!(
            !events.is_empty(),
            "{batching:?}: enabled trace emitted nothing"
        );
    }
}

#[test]
fn export_is_byte_identical_across_same_seed_reruns() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let traced_cfg = cfg(batching).with_trace(TraceConfig::enabled());
        let (r1, e1) = simulate_traced(&traced_cfg).expect("first run");
        let (r2, e2) = simulate_traced(&traced_cfg).expect("second run");
        assert_eq!(r1, r2);
        assert_eq!(e1, e2, "{batching:?}: event streams diverged");
        assert_eq!(
            export_chrome_trace(&e1),
            export_chrome_trace(&e2),
            "{batching:?}: exports diverged"
        );
    }
}

#[test]
fn ring_sink_bounds_retention_under_overload() {
    let unbounded = cfg(BatchPolicy::continuous(3)).with_trace(TraceConfig::ring(1 << 20));
    let (_, all) = simulate_traced(&unbounded).expect("unbounded run");
    assert!(
        all.len() > 128,
        "scenario too quiet to overflow a 128-event ring ({} events)",
        all.len()
    );

    let bounded = cfg(BatchPolicy::continuous(3)).with_trace(TraceConfig::ring(128));
    let (_, kept) = simulate_traced(&bounded).expect("bounded run");
    assert_eq!(kept.len(), 128, "ring must cap retention at its capacity");
    // Drop-oldest: the retained suffix is exactly the tail of the full
    // stream.
    assert_eq!(kept.as_slice(), &all[all.len() - 128..]);
}

#[test]
fn disabled_trace_config_emits_no_events() {
    let off = cfg(BatchPolicy::PerStream).with_trace(TraceConfig::off());
    let (report, events) = simulate_traced(&off).expect("simulate");
    assert!(events.is_empty());
    assert_eq!(
        report,
        simulate(&cfg(BatchPolicy::PerStream)).expect("baseline")
    );
}

#[test]
fn lifecycle_instants_account_for_the_report() {
    for batching in [BatchPolicy::PerStream, BatchPolicy::continuous(3)] {
        let traced_cfg = cfg(batching).with_trace(TraceConfig::enabled());
        let (report, events) = simulate_traced(&traced_cfg).expect("traced simulate");
        assert_eq!(
            instants_named(&events, "arrive").len() as u64,
            report.total_arrived,
            "{batching:?}: one arrive instant per arrival"
        );
        assert_eq!(
            instants_named(&events, "complete").len() as u64,
            report.total_served,
            "{batching:?}: one complete instant per served request"
        );
        // Every admitted request occupies a residency lane in
        // `1..=max_concurrency`; queue lanes sit above them.
        let queue_tid_base = 1 + 4u32;
        for e in instants_named(&events, "admit") {
            assert!((1..queue_tid_base).contains(&e.tid), "admit on lane tid");
        }
        for e in instants_named(&events, "arrive") {
            assert!(e.tid >= queue_tid_base, "arrive on queue tid");
        }
    }
}

#[test]
fn chrome_exports_match_goldens() {
    let mut drifted = Vec::new();
    for (batching, golden) in CHROME_GOLDENS {
        let traced_cfg = cfg(batching).with_trace(TraceConfig::enabled());
        let (_, events) = simulate_traced(&traced_cfg).expect("traced simulate");
        let mut h = StableHasher::new();
        h.write_str(&export_chrome_trace(&events));
        let got = h.finish();
        if got != golden {
            drifted.push(format!("({batching:?}, {got:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "Chrome exports drifted from their goldens: {}",
        drifted.join(", ")
    );
}

#[test]
fn decode_spans_follow_the_batching_policy() {
    let spans = |batching, cat: &str| {
        let traced_cfg = cfg(batching).with_trace(TraceConfig::enabled());
        let (_, events) = simulate_traced(&traced_cfg).expect("traced simulate");
        events
            .iter()
            .filter(|e| e.dur_ps().is_some() && e.cat == cat)
            .count()
    };
    // Per-stream decode closes one `decode` segment per request and
    // step (what waterfalls read); continuous batching closes one
    // `decode-tick` span per tick instead.
    assert!(spans(BatchPolicy::PerStream, "decode") > 0);
    assert_eq!(spans(BatchPolicy::PerStream, "decode-tick"), 0);
    for batching in [BatchPolicy::continuous(1), BatchPolicy::continuous(3)] {
        assert!(spans(batching, "decode-tick") > 0, "{batching:?}");
        assert_eq!(spans(batching, "decode"), 0, "{batching:?}");
    }
}
