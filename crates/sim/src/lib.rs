//! # lumos-sim — discrete-event simulation kernel
//!
//! The simulation substrate shared by every LUMOS network and accelerator
//! model: a picosecond-resolution clock, FIFO bandwidth servers for
//! transfer-granularity link modeling, a time-weighted integral and
//! exact percentiles, and seeded randomness.
//!
//! Design goals:
//!
//! * **Determinism** — identical seeds and inputs produce bit-identical
//!   results; servers are FIFO, RNG streams are explicit.
//! * **Transfer granularity** — the unit of simulated work is a multi-bit
//!   transfer, not a flit, so full DNN executions (10⁹+ bits) simulate in
//!   milliseconds of wall time.
//!
//! # Examples
//!
//! ```
//! use lumos_sim::{resource::BandwidthServer, SimTime};
//!
//! // Serialize two DMA bursts over a 12 Gb/s optical wavelength.
//! let mut lambda = BandwidthServer::new(12.0);
//! let g1 = lambda.serve(SimTime::ZERO, 4_096);
//! let g2 = lambda.serve(SimTime::ZERO, 4_096);
//! assert!(g2.start == g1.finish);
//! assert_eq!(g2.queue_delay, g1.finish);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use resource::{BandwidthServer, Grant, ServerPool};
pub use rng::SimRng;
pub use stats::TimeWeighted;
pub use time::SimTime;

#[cfg(test)]
mod sendsync {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send::<SimTime>();
        assert_sync::<SimTime>();
        assert_send::<BandwidthServer>();
        assert_sync::<BandwidthServer>();
        assert_send::<ServerPool>();
        assert_sync::<ServerPool>();
        assert_send::<SimRng>();
        assert_sync::<SimRng>();
    }
}
