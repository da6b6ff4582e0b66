//! # lumos-hbm — optically-interfaced memory chiplet
//!
//! The paper's platform packages one HBM memory chiplet on the interposer
//! (Fig. 3); all DNN weights and activations stream through it. This
//! crate models the stack itself — channel bandwidth, access energy, and
//! queueing — independent of which interposer (photonic or electrical)
//! carries the data to the compute chiplets.
//!
//! # Examples
//!
//! ```
//! use lumos_hbm::{HbmConfig, HbmStack};
//! use lumos_sim::SimTime;
//!
//! let mut hbm = HbmStack::new(HbmConfig::hbm2());
//! let read = hbm.read(SimTime::ZERO, 1 << 20); // 1 Mb burst
//! assert!(read.finish > SimTime::ZERO);
//! assert!(hbm.total_energy_j() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lumos_sim::{Grant, ServerPool, SimTime};

/// Configuration of one HBM stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Independent channels (pseudo-channels count separately).
    pub channels: usize,
    /// Per-channel data rate in Gb/s.
    pub channel_rate_gbps: f64,
    /// Row/column access latency added to every burst.
    pub access_latency_ns: u64,
    /// Access energy per bit (activation+IO), picojoules.
    pub energy_pj_per_bit: f64,
    /// Background (refresh + PHY) power, watts.
    pub static_power_w: f64,
}

impl HbmConfig {
    /// HBM2-class stack: 8 channels × 128 pins × 2 Gb/s ≈ 2 Tb/s
    /// aggregate, ~60 ns access, 3.9 pJ/bit, 1 W background.
    pub fn hbm2() -> Self {
        HbmConfig {
            channels: 8,
            channel_rate_gbps: 256.0,
            access_latency_ns: 60,
            energy_pj_per_bit: 3.9,
            static_power_w: 1.0,
        }
    }

    /// Aggregate peak bandwidth in Gb/s.
    pub fn aggregate_gbps(&self) -> f64 {
        self.channels as f64 * self.channel_rate_gbps
    }

    /// Checks that [`HbmStack::new`] accepts this configuration and
    /// names the first field it would reject.
    ///
    /// # Errors
    ///
    /// The reason, naming the field and its value.
    pub fn check(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("channels = 0: need at least one channel".into());
        }
        let rate = self.channel_rate_gbps;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!(
                "channel_rate_gbps = {rate}: channel rate not positive and finite"
            ));
        }
        Ok(())
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig::hbm2()
    }
}

/// Outcome of a memory burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// When data started flowing.
    pub start: SimTime,
    /// When the last bit crossed the stack interface.
    pub finish: SimTime,
}

/// A simulated HBM stack with striped channels and FIFO queueing.
#[derive(Debug, Clone)]
pub struct HbmStack {
    config: HbmConfig,
    channels: ServerPool,
    energy_j: f64,
}

impl HbmStack {
    /// Creates a stack from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or a non-positive
    /// rate.
    pub fn new(config: HbmConfig) -> Self {
        HbmStack {
            channels: ServerPool::new(config.channels, config.channel_rate_gbps),
            config,
            energy_j: 0.0,
        }
    }

    /// Reads `bits` starting no earlier than `at`, striped across all
    /// channels, paying one access latency up front.
    pub fn read(&mut self, at: SimTime, bits: u64) -> MemoryAccess {
        self.burst(at, bits)
    }

    /// Writes `bits`; symmetric with [`HbmStack::read`] at this
    /// granularity.
    pub fn write(&mut self, at: SimTime, bits: u64) -> MemoryAccess {
        self.burst(at, bits)
    }

    fn burst(&mut self, at: SimTime, bits: u64) -> MemoryAccess {
        if bits == 0 {
            return MemoryAccess {
                start: at,
                finish: at,
            };
        }
        let ready = at + SimTime::from_ns(self.config.access_latency_ns);
        let grant: Grant = self.channels.serve_striped(ready, bits);
        self.account(bits);
        MemoryAccess {
            start: grant.start,
            finish: grant.finish,
        }
    }

    /// Charges a burst of `bits` its access energy without occupying a
    /// channel: the accounting half of
    /// [`HbmStack::read`] and [`HbmStack::write`], which call it once
    /// per burst. A caller that already knows a burst's timing replays
    /// it with this alone; channel occupancy is left as it was. A
    /// zero-bit burst charges nothing.
    pub fn account(&mut self, bits: u64) {
        if bits == 0 {
            return;
        }
        self.energy_j += self.config.energy_pj_per_bit * 1e-12 * bits as f64;
    }

    /// Dynamic energy spent so far, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Background power, watts.
    pub fn static_power_w(&self) -> f64 {
        self.config.static_power_w
    }

    /// Resets queueing state and the energy account.
    pub fn reset(&mut self) {
        self.channels.reset();
        self.energy_j = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_pays_access_latency_then_streams() {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        let a = h.read(SimTime::ZERO, 2_048_000);
        assert_eq!(a.start, SimTime::from_ns(60));
        // 2.048 Mb over 2048 Gb/s = 1 µs.
        assert_eq!(a.finish, SimTime::from_ns(60 + 1_000));
    }

    #[test]
    fn bursts_queue_on_channels() {
        let mut h = HbmStack::new(HbmConfig {
            channels: 1,
            channel_rate_gbps: 100.0,
            access_latency_ns: 0,
            energy_pj_per_bit: 1.0,
            static_power_w: 0.0,
        });
        let a = h.read(SimTime::ZERO, 100_000); // 1 µs
        let b = h.read(SimTime::ZERO, 100_000);
        assert_eq!(b.start, a.finish);
    }

    #[test]
    fn energy_linear_in_bits() {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        h.read(SimTime::ZERO, 1_000_000);
        let e1 = h.total_energy_j();
        h.write(SimTime::ZERO, 1_000_000);
        assert!((h.total_energy_j() - 2.0 * e1).abs() < 1e-15);
        assert!((e1 - 3.9e-6).abs() < 1e-12);
    }

    #[test]
    fn zero_burst_is_noop() {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        let a = h.read(SimTime::from_ns(7), 0);
        assert_eq!(a.finish, SimTime::from_ns(7));
        assert_eq!(h.total_energy_j(), 0.0);
    }

    #[test]
    fn aggregate_bandwidth() {
        assert_eq!(HbmConfig::hbm2().aggregate_gbps(), 2048.0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        h.read(SimTime::ZERO, 1 << 20);
        h.reset();
        assert_eq!(h.total_energy_j(), 0.0);
        let a = h.read(SimTime::ZERO, 2_048_000);
        assert_eq!(a.start, SimTime::from_ns(60));
    }
}
