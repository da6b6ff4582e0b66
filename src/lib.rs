//! # LUMOS — 2.5D chiplet ML accelerators with silicon photonics
//!
//! Facade crate re-exporting the LUMOS workspace: a Rust reproduction of
//! *"Machine Learning Accelerators in 2.5D Chiplet Platforms with Silicon
//! Photonics"* (DATE 2023).
//!
//! See the [`prelude`] for the most common entry points, and the workspace
//! crates for the subsystems:
//!
//! * [`photonics`] — silicon-photonic device models and link budgets
//! * [`dnn`] — DNN layer graphs and the Table 2 model zoo
//! * [`sim`] — discrete-event simulation kernel
//! * [`noc`] — electrical mesh interposer
//! * [`phnet`] — reconfigurable photonic interposer (ReSiPI-style)
//! * [`hbm`] — optically-interfaced memory chiplet
//! * [`core`] — photonic MAC units, platforms, mapper, and runner
//! * [`dse`] — parallel, memoized design-space exploration engine
//! * [`xformer`] — transformer workloads: attention as batched GEMMs,
//!   softmax/layer-norm traffic, and the BERT/GPT-2/ViT zoo
//! * [`serve`] — multi-model inference serving: open-loop arrivals,
//!   pluggable scheduling, processor-sharing contention, capacity sweeps
//! * [`trace`] — deterministic sim-time tracing: spans/instants/counters
//!   on the virtual clock, Chrome trace-event export, span attribution
//! * [`metrics`] — windowed time-series metrics on the virtual clock:
//!   gauges, monotone counters, histograms, with byte-deterministic
//!   Prometheus-text and JSON-lines exports
//! * [`prof`] — the explanation layer over trace events and metric
//!   series: critical paths with slack, roofline bound attribution,
//!   per-request latency waterfalls, flamegraph export, and metric peak
//!   windows
//!
//! # Examples
//!
//! ```
//! use lumos::prelude::*;
//!
//! let cfg = PlatformConfig::paper_table1();
//! let model = zoo::lenet5();
//! let report = Runner::new(cfg).run(&Platform::Siph2p5D, &model)?;
//! assert!(report.total_latency.as_secs_f64() > 0.0);
//! # Ok::<(), lumos::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]

pub use lumos_core as core;
/// Design-space exploration: the `lumos_dse` engine plus the platform
/// glue from `lumos_core::dse` (fingerprints, sweeps, exploration).
pub use lumos_core::dse;
pub use lumos_dnn as dnn;
pub use lumos_hbm as hbm;
pub use lumos_metrics as metrics;
pub use lumos_noc as noc;
pub use lumos_phnet as phnet;
pub use lumos_photonics as photonics;
pub use lumos_prof as prof;
pub use lumos_serve as serve;
pub use lumos_sim as sim;
pub use lumos_trace as trace;
pub use lumos_xformer as xformer;

/// The most common types for running paper experiments.
pub mod prelude {
    pub use lumos_core::{
        calibration::Calibration, config::PlatformConfig, contention::ContentionModel,
        flow::FlowTopology, mapper::PlacementPolicy, platform::Platform, runner::Runner,
    };
    pub use lumos_dnn::zoo;
    pub use lumos_dse::{
        BatchPolicy, ContentionKind, DecodeAxes, DseAxes, MemoCache, ServeAxes, ServePolicy,
        SharePolicy, SweepJob, XformerAxes,
    };
    pub use lumos_metrics::{
        export_jsonl, export_prometheus, MetricsConfig, MetricsRegistry, MetricsSnapshot,
    };
    pub use lumos_prof::{critical_path, folded_stacks, waterfalls, Ceilings, Roofline};
    pub use lumos_serve::{
        simulate, simulate_metered, simulate_traced, ServeConfig, ServeReport, ServedModel,
    };
    pub use lumos_sim::SimTime;
    pub use lumos_trace::{export_chrome_trace, Attribution, TraceConfig, Tracer};
    pub use lumos_xformer::{zoo as xformer_zoo, DecodePhase, KvCache, TransformerConfig};
}
