//! # lumos-prof — the explanation layer of LUMOS observability
//!
//! `lumos_trace` records *events* (spans, instants, counters on the
//! virtual clock) and `lumos_metrics` aggregates them into *series*;
//! this crate is the third layer, turning both into *explanations* —
//! why a run took as long as it did and which resource bound it:
//!
//! * [`critical`] — longest virtual-time chains over span causality
//!   edges (same-lane resource order, same-request id order), per run
//!   and per request, with per-segment slack for everything off the
//!   path
//! * [`roofline`] — per-op arithmetic intensity against the platform's
//!   compute and bandwidth ceilings ([`Ceilings`]), classifying every
//!   op as compute-, HBM- or network-bound
//! * [`waterfall`] — per-request latency waterfalls of a serve trace
//!   (queue → admit → prefill → per-tick decode → completion) with
//!   contention dilation broken out against isolated stage times
//! * [`flame`] — folded-stack flamegraph export
//!   (inferno/speedscope-compatible text)
//! * [`series`] — peak-window extraction over `lumos_metrics`
//!   snapshots (where did queue depth / batch occupancy spike)
//!
//! Everything here is *post-hoc* analysis over already-recorded data:
//! profiling cannot perturb a simulation by construction, and every
//! export is a pure function of its inputs — byte-identical across
//! same-seed reruns, the same contract `lumos_trace` and
//! `lumos_metrics` pin.
//!
//! # Examples
//!
//! ```
//! use lumos_prof::{critical_path, folded_stacks};
//! use lumos_trace::Tracer;
//!
//! let t = Tracer::ring(64);
//! t.name_process(1, "platform");
//! t.span(1, 2, "link:hbm", "conv1", 0, 900, Vec::new());
//! t.span(1, 1, "kernel:conv3x3", "conv1", 0, 400, Vec::new());
//! let events = t.drain();
//! let path = critical_path(&events);
//! assert_eq!(path.total_ps, 900); // the HBM stream binds
//! assert!(folded_stacks(&events).contains("link:hbm"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod flame;
pub mod roofline;
pub mod series;
pub mod waterfall;

pub use critical::{critical_path, request_paths, CriticalPath, PathSegment};
pub use flame::folded_stacks;
pub use roofline::{Bound, Ceilings, OpProfile, Roofline};
pub use series::{peaks, Peak};
pub use waterfall::{waterfalls, IsolatedStages, Phase, RequestWaterfall};
