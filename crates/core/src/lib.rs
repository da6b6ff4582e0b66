//! # lumos-core — the 2.5D CrossLight platform simulator
//!
//! The paper's primary contribution (§V–VI): a heterogeneous 2.5D
//! chiplet DNN accelerator whose computation (noncoherent photonic MAC
//! units) **and** inter-chiplet communication (a ReSiPI-style
//! reconfigurable photonic interposer) both use silicon photonics —
//! compared against a monolithic CrossLight and a 2.5D electrical-mesh
//! variant.
//!
//! * [`config`] — Table 1 (chiplet classes, MAC counts, gateways)
//! * [`calibration`] — every device constant, with provenance
//! * [`contention`] — multi-tenant resource shares (the `lumos_serve` hook)
//! * [`flow`] — topology-aware max-min fair link contention
//! * [`mac`] — broadcast-and-weight photonic MAC units (Fig. 4)
//! * [`mapper`] — layer → chiplet-class placement
//! * [`dse`] — design-space exploration (open challenge 3)
//! * [`platform`] — the three evaluated organizations
//! * [`runner`] — the layer-by-layer execution engine
//! * [`report`] — per-layer breakdowns, Table 3 summaries
//! * `reference` — cited Table 3 rows (GPU/CPU/TPU/…)
//!
//! # Examples
//!
//! Reproduce one cell of the paper's evaluation:
//!
//! ```
//! use lumos_core::{config::PlatformConfig, platform::Platform, runner::Runner};
//!
//! let runner = Runner::new(PlatformConfig::paper_table1());
//! let report = runner.run(&Platform::Siph2p5D, &lumos_dnn::zoo::lenet5())?;
//! println!(
//!     "{}: {:.3} ms, {:.1} W, {:.2} nJ/bit",
//!     report.model,
//!     report.latency_ms(),
//!     report.avg_power_w(),
//!     report.epb_nj(),
//! );
//! # Ok::<(), lumos_core::error::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod contention;
pub mod dse;
pub mod error;
pub mod flow;
pub mod mac;
pub mod mapper;
pub mod platform;
pub mod reference;
pub mod report;
pub mod runner;

pub use calibration::Calibration;
pub use config::{MacClass, PlatformConfig};
pub use contention::ContentionModel;
pub use error::CoreError;
pub use flow::{max_min_shares, FlowAllocation, FlowRoute, FlowTopology};
pub use platform::Platform;
pub use report::{summarize, EnergyBreakdown, LayerReport, PlatformSummary, RunReport};
pub use runner::{RunPlan, Runner, ShapeTable};
