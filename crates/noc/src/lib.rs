//! # lumos-noc — electrical mesh interposer network
//!
//! The electrical baseline of the paper's comparison
//! (`2.5D-CrossLight-Elec-Interposer`, built on an active interposer in
//! the style of the DeFT routing work the paper cites as \[40\]):
//!
//! * [`topology`] — 2-D mesh, coordinates, links
//! * [`routing`] — deterministic XY routing
//! * [`link`] — link/router latency and energy models (Table 1: 128-bit
//!   links at 2 GHz)
//! * [`network`] — transfer-granularity mesh simulator with contention
//!
//! # Examples
//!
//! ```
//! use lumos_noc::network::MeshNetwork;
//! use lumos_noc::topology::Coord;
//! use lumos_sim::SimTime;
//!
//! // 3×3 interposer mesh, 8 mm between chiplet sites.
//! let mut net = MeshNetwork::paper_table1(3, 3, 8.0);
//!
//! // Stream 1 Mb of weights from the memory chiplet (centre) to a
//! // compute chiplet (corner).
//! let t = net.transfer(SimTime::ZERO, Coord::new(1, 1), Coord::new(2, 2), 1 << 20);
//! println!("took {} over {} hops", t.finish, t.hops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod network;
pub mod routing;
pub mod topology;

pub use link::{LinkModel, RouterModel};
pub use network::{MeshNetwork, MeshTransfer};
pub use routing::{hop_count, xy_hops, xy_route, XyHops};
pub use topology::{Coord, DirectedLink, Mesh};
