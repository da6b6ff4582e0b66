//! Shared-resource models for transfer-granularity network simulation.
//!
//! Both the electrical mesh links and the photonic waveguides serialize
//! whole transfers (layer-sized data streams split into chunks), so the
//! central abstraction is a FIFO bandwidth server: a resource that is busy
//! until some instant and serves queued transfers back-to-back.

use crate::time::{serialization_time, SimTime};

/// A FIFO bandwidth server: one link, waveguide, or port that serializes
/// transfers at a fixed data rate.
///
/// The model is conservative-work FIFO: a transfer submitted at time `t`
/// starts at `max(t, busy_until)` and occupies the resource for
/// `bits / rate`.
///
/// # Examples
///
/// ```
/// use lumos_sim::{resource::BandwidthServer, SimTime};
///
/// let mut link = BandwidthServer::new(10.0); // 10 Gb/s
/// let a = link.serve(SimTime::ZERO, 1_000);  // 100 ns
/// let b = link.serve(SimTime::ZERO, 1_000);  // queues behind a
/// assert_eq!(a.finish, SimTime::from_ns(100));
/// assert_eq!(b.start, a.finish);
/// assert_eq!(b.finish, SimTime::from_ns(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthServer {
    rate_gbps_milli: u64, // fixed-point Gb/s * 1000, keeps Eq/determinism
    busy_until: SimTime,
    served_bits: u64,
    busy_ps: u64,
}

/// The outcome of submitting a transfer to a [`BandwidthServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the transfer began moving.
    pub start: SimTime,
    /// When the last bit was delivered.
    pub finish: SimTime,
    /// Time spent waiting behind earlier transfers.
    pub queue_delay: SimTime,
}

impl BandwidthServer {
    /// The rate resolution, Gb/s: rates are kept in whole Mb/s, and a
    /// rate below one Mb/s runs at one.
    pub const RESOLUTION_GBPS: f64 = 1e-3;

    /// Creates a server with the given rate in Gb/s (resolution
    /// [`RESOLUTION_GBPS`](Self::RESOLUTION_GBPS)).
    ///
    /// # Panics
    ///
    /// Panics if `rate_gbps` is not strictly positive and finite.
    pub fn new(rate_gbps: f64) -> Self {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "rate must be positive and finite, got {rate_gbps}"
        );
        let milli = (rate_gbps * 1e3).round().max(1.0) as u64;
        BandwidthServer {
            rate_gbps_milli: milli,
            busy_until: SimTime::ZERO,
            served_bits: 0,
            busy_ps: 0,
        }
    }

    /// Configured data rate in Gb/s.
    pub fn rate_gbps(&self) -> f64 {
        self.rate_gbps_milli as f64 / 1e3
    }

    /// Replaces the data rate (used by reconfigurable networks when the
    /// number of active wavelengths changes). In-flight accounting is
    /// unaffected; only future transfers see the new rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_gbps` is not strictly positive and finite.
    pub fn set_rate_gbps(&mut self, rate_gbps: f64) {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "rate must be positive and finite, got {rate_gbps}"
        );
        self.rate_gbps_milli = (rate_gbps * 1e3).round().max(1.0) as u64;
    }

    /// Earliest instant at which a new transfer could start.
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Submits a transfer of `bits` arriving at time `at`; returns its
    /// start/finish grant and updates the server state.
    pub fn serve(&mut self, at: SimTime, bits: u64) -> Grant {
        let start = at.max(self.busy_until);
        let dur = serialization_time(bits, self.rate_gbps());
        let finish = start + dur;
        self.busy_until = finish;
        self.busy_ps += dur.as_ps();
        self.account(bits);
        Grant {
            start,
            finish,
            queue_delay: start.saturating_sub(at),
        }
    }

    /// Counts `bits` as served without occupying the server: the
    /// accounting half of [`BandwidthServer::serve`], which calls it
    /// once per transfer. A caller that already knows a transfer's
    /// timing replays it with this alone; the busy horizon and busy
    /// time are left as they were.
    pub fn account(&mut self, bits: u64) {
        self.served_bits += bits;
    }

    /// Total bits served so far.
    pub fn served_bits(&self) -> u64 {
        self.served_bits
    }

    /// Utilization over `[0, end]`: fraction of time the server was busy.
    /// Returns 0 for an empty window.
    pub fn utilization(&self, end: SimTime) -> f64 {
        let w = end.as_ps();
        if w == 0 {
            0.0
        } else {
            (self.busy_ps as f64 / w as f64).min(1.0)
        }
    }

    /// Resets the server to idle at time zero, clearing statistics.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.served_bits = 0;
        self.busy_ps = 0;
    }
}

/// A pool of identical [`BandwidthServer`]s with earliest-available
/// dispatch — models a chiplet with several gateways, or a memory
/// controller with several channels.
///
/// # Examples
///
/// ```
/// use lumos_sim::{resource::ServerPool, SimTime};
///
/// let mut pool = ServerPool::new(2, 10.0); // two 10 Gb/s gateways
/// let a = pool.serve(SimTime::ZERO, 1_000);
/// let b = pool.serve(SimTime::ZERO, 1_000); // lands on the second server
/// assert_eq!(a.finish, b.finish);
/// let c = pool.serve(SimTime::ZERO, 1_000); // queues
/// assert_eq!(c.start, a.finish);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPool {
    servers: Vec<BandwidthServer>,
    active: usize,
}

impl ServerPool {
    /// Creates `n` servers of `rate_gbps` each, all active.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the rate is invalid.
    pub fn new(n: usize, rate_gbps: f64) -> Self {
        assert!(n > 0, "a server pool needs at least one server");
        ServerPool {
            servers: vec![BandwidthServer::new(rate_gbps); n],
            active: n,
        }
    }

    /// Total number of servers (active + deactivated).
    pub fn capacity(&self) -> usize {
        self.servers.len()
    }

    /// Number of currently active servers.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Activates exactly `n` servers (clamped to `[1, capacity]`); models
    /// ReSiPI-style gateway activation/deactivation.
    pub fn set_active(&mut self, n: usize) {
        self.active = n.clamp(1, self.servers.len());
    }

    /// Aggregate data rate of the active servers in Gb/s.
    pub fn aggregate_rate_gbps(&self) -> f64 {
        self.servers[..self.active]
            .iter()
            .map(BandwidthServer::rate_gbps)
            .sum()
    }

    /// Replaces the per-server rate for all servers.
    pub fn set_rate_gbps(&mut self, rate_gbps: f64) {
        for s in &mut self.servers {
            s.set_rate_gbps(rate_gbps);
        }
    }

    /// Serves `bits` on the active server that can start earliest
    /// (ties broken by lowest index, deterministically).
    pub fn serve(&mut self, at: SimTime, bits: u64) -> Grant {
        let idx = self.servers[..self.active]
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.available_at(), *i))
            .map(|(i, _)| i)
            .expect("pool has at least one active server");
        self.servers[idx].serve(at, bits)
    }

    /// Splits `bits` evenly across all active servers and returns the grant
    /// of the slowest stripe — models striping one layer's weight stream
    /// over several gateways.
    pub fn serve_striped(&mut self, at: SimTime, bits: u64) -> Grant {
        let n = self.active as u64;
        let per = bits / n;
        let rem = bits % n;
        let mut worst: Option<Grant> = None;
        for i in 0..self.active {
            let b = per + if (i as u64) < rem { 1 } else { 0 };
            let g = self.servers[i].serve(at, b);
            worst = Some(match worst {
                None => g,
                Some(w) if g.finish > w.finish => g,
                Some(w) => w,
            });
        }
        worst.expect("pool has at least one active server")
    }

    /// Earliest instant any active server becomes available.
    pub fn available_at(&self) -> SimTime {
        self.servers[..self.active]
            .iter()
            .map(BandwidthServer::available_at)
            .min()
            .expect("pool has at least one active server")
    }

    /// Resets every server to idle, clearing statistics.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            s.reset();
        }
    }

    /// Total bits served across all servers.
    pub fn served_bits(&self) -> u64 {
        self.servers.iter().map(BandwidthServer::served_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialization() {
        let mut s = BandwidthServer::new(1.0); // 1 Gb/s = 1 bit/ns
        let g1 = s.serve(SimTime::ZERO, 100);
        let g2 = s.serve(SimTime::from_ns(10), 50);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g1.finish, SimTime::from_ns(100));
        assert_eq!(g2.start, SimTime::from_ns(100));
        assert_eq!(g2.queue_delay, SimTime::from_ns(90));
        assert_eq!(g2.finish, SimTime::from_ns(150));
        assert_eq!(s.served_bits(), 150);
    }

    #[test]
    fn idle_gap_is_not_compressed() {
        let mut s = BandwidthServer::new(1.0);
        let _ = s.serve(SimTime::ZERO, 10);
        let g = s.serve(SimTime::from_ns(100), 10);
        assert_eq!(g.start, SimTime::from_ns(100));
        assert_eq!(g.queue_delay, SimTime::ZERO);
    }

    #[test]
    fn utilization_accounts_busy_time_only() {
        let mut s = BandwidthServer::new(1.0);
        let _ = s.serve(SimTime::ZERO, 100);
        assert!((s.utilization(SimTime::from_ns(200)) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn rate_change_applies_to_future_transfers() {
        let mut s = BandwidthServer::new(1.0);
        let g1 = s.serve(SimTime::ZERO, 100);
        s.set_rate_gbps(2.0);
        let g2 = s.serve(SimTime::ZERO, 100);
        assert_eq!(g1.finish, SimTime::from_ns(100));
        assert_eq!(g2.finish, SimTime::from_ns(150));
    }

    #[test]
    fn pool_prefers_earliest_available() {
        let mut p = ServerPool::new(2, 1.0);
        let g1 = p.serve(SimTime::ZERO, 100);
        let g2 = p.serve(SimTime::ZERO, 10);
        // Second transfer used the idle server.
        assert_eq!(g2.start, SimTime::ZERO);
        let g3 = p.serve(SimTime::ZERO, 10);
        // Third queues on whichever frees first (the 10-bit one).
        assert_eq!(g3.start, SimTime::from_ns(10));
        assert!(g1.finish > g3.start);
    }

    #[test]
    fn pool_deactivation_reduces_throughput() {
        let mut p = ServerPool::new(4, 1.0);
        p.set_active(1);
        assert_eq!(p.active(), 1);
        let g1 = p.serve(SimTime::ZERO, 10);
        let g2 = p.serve(SimTime::ZERO, 10);
        assert_eq!(g2.start, g1.finish); // everything serializes on one server
        p.set_active(0); // clamps to 1
        assert_eq!(p.active(), 1);
        p.set_active(99); // clamps to capacity
        assert_eq!(p.active(), 4);
    }

    #[test]
    fn striping_balances_bits() {
        let mut p = ServerPool::new(4, 1.0);
        let g = p.serve_striped(SimTime::ZERO, 100);
        // 100 bits over 4 servers -> stripes of 25 -> 25 ns.
        assert_eq!(g.finish, SimTime::from_ns(25));
        assert_eq!(p.served_bits(), 100);
    }

    #[test]
    fn striping_uneven_remainder() {
        let mut p = ServerPool::new(3, 1.0);
        let g = p.serve_striped(SimTime::ZERO, 10);
        // stripes 4,3,3 -> slowest 4 ns
        assert_eq!(g.finish, SimTime::from_ns(4));
        assert_eq!(p.served_bits(), 10);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = ServerPool::new(2, 1.0);
        let _ = p.serve(SimTime::ZERO, 1000);
        p.reset();
        assert_eq!(p.served_bits(), 0);
        assert_eq!(p.available_at(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ServerPool::new(0, 1.0);
    }
}
