//! # lumos-serve — multi-model inference-serving simulator
//!
//! The paper evaluates one inference at a time; a serving fleet answers
//! a different question: *how much traffic can one platform sustain
//! when several models share it, and at what tail latency?* This crate
//! turns the platform model into that capacity planner:
//!
//! * [`config`] — the served model mix ([`ServedModel`]: any CNN-zoo or
//!   `lumos_xformer` workload stream plus an arrival rate and SLO,
//!   including closed-loop token **generators** —
//!   [`ServedModel::generator`] runs each request through a prefill
//!   plus one KV-cached decode step per emitted token) and the
//!   traffic/scheduling knobs ([`ServeConfig`], including the
//!   [`BatchPolicy`] decode-batching discipline)
//! * [`profile`] — per-model, per-stage service times tabulated at
//!   every contention level (each stream planned once with
//!   [`Runner::plan`](lumos_core::runner::Runner::plan) and executed per
//!   level, streams in parallel), plus 2-D stage × batch decode planes
//!   for continuous batching
//! * [`sim`] — the open-loop discrete-event core ([`simulate`]):
//!   seeded Poisson arrivals, pluggable admission policies
//!   ([`ServePolicy`]: FIFO, round-robin, shortest-job-first,
//!   SLO-aware earliest-deadline-first), and processor-sharing
//!   contention under a [`SharePolicy`] — uniform `1/k` slices of
//!   every MAC class and interposer link, or SLO-pressure-weighted
//!   shares (EDF slack). Under [`BatchPolicy::Continuous`],
//!   co-resident generations of one model coalesce into shared decode
//!   ticks — one batched GEMV per tick, prefills admitted at tick
//!   boundaries, finished generations evicted mid-flight
//! * [`report`] — [`ServeReport`]: per-model and aggregate throughput,
//!   queueing delay and latency percentiles (p50/p95/p99 from exact
//!   sorted samples), time-to-first-token, per-token latency, and
//!   sustained tokens/sec for generator streams, decode-tick batch
//!   occupancy ([`BatchStats`]), horizon-censoring counts, per-class
//!   utilization, power, energy per bit
//! * [`dse`] — fingerprinted, memoized capacity sweeps over
//!   [`ServeAxes`] (offered load × policy) × platform through the
//!   `lumos_dse` engine
//!
//! Four entry points run the one event loop. [`simulate`] builds the
//! profiles and simulates; [`simulate_with_profiles`] reuses profiles
//! built once with [`build_profiles`] across a load or policy sweep.
//! [`simulate_traced`] (opted into via [`ServeConfig::trace`])
//! additionally returns the full request lifecycle — arrival → queue
//! → admit → prefill → decode steps or ticks → completion — as
//! deterministic `lumos_trace` events on the virtual clock, without
//! perturbing the report. [`simulate_metered`] (opted into via
//! [`ServeConfig::metrics`]) instead returns windowed `lumos_metrics`
//! time series — queue depth, residency, tokens/sec, per-window SLO
//! attainment, decode-batch occupancy — under the same
//! never-perturbs-the-report contract.
//!
//! Everything is deterministic: identical configurations (seed
//! included) produce bit-identical reports.
//!
//! # Examples
//!
//! Where does the photonic platform saturate on a CNN + transformer
//! mix?
//!
//! ```
//! use lumos_core::{Platform, PlatformConfig};
//! use lumos_dnn::workload::Precision;
//! use lumos_serve::{simulate, ServeConfig, ServedModel};
//!
//! let mix = vec![
//!     ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 400.0, 5.0),
//!     ServedModel::transformer(
//!         &lumos_xformer::zoo::bert_base(),
//!         128,
//!         1,
//!         Precision::int8(),
//!         20.0,
//!         50.0,
//!     ),
//! ];
//! let cfg = ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, mix)
//!     .with_duration_s(0.05);
//! let report = simulate(&cfg)?;
//! assert!(report.total_served <= report.total_arrived);
//! assert!(report.aggregate_latency.p50_ms <= report.aggregate_latency.p99_ms);
//! # Ok::<(), lumos_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dse;
pub mod error;
pub mod profile;
pub mod report;
pub mod sim;

pub use config::{GeneratorSpec, ServeConfig, ServedModel};
pub use dse::{serve_key, ServePoint};
pub use error::ServeError;
pub use profile::{build_profiles, ModelProfile, ServiceProfiles};
pub use report::{BatchStats, ModelServeStats, Percentiles, ServeReport};
pub use sim::{simulate, simulate_metered, simulate_traced, simulate_with_profiles};

// The sweep-axes vocabulary lives in `lumos_dse` (pure data, shared
// with fingerprints and grids); re-export it so serving callers need
// one import.
pub use lumos_dse::{BatchPolicy, ContentionKind, ServeAxes, ServePolicy, SharePolicy};
