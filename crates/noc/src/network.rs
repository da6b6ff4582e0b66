//! Transfer-granularity electrical mesh simulator.
//!
//! Each directed mesh link is a FIFO bandwidth server; a transfer is
//! routed XY and pipelined across its path (virtual cut-through at
//! message granularity): the head advances one router + wire latency per
//! hop while every traversed link is occupied for the message's
//! serialization time. Contention emerges from link busy-times — exactly
//! the hotspot behaviour that throttles the paper's 2.5D electrical
//! baseline around the memory chiplet.

use lumos_sim::time::serialization_time;
use lumos_sim::{BandwidthServer, SimTime};

use crate::link::{LinkModel, RouterModel};
use crate::routing::xy_hops;
use crate::topology::{Coord, DirectedLink, Mesh};

/// Outcome of one mesh transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshTransfer {
    /// When the message started moving on its first link.
    pub start: SimTime,
    /// When the tail arrived at the destination.
    pub finish: SimTime,
    /// Hops traversed.
    pub hops: u32,
}

/// An electrical 2-D mesh interposer network.
///
/// # Examples
///
/// ```
/// use lumos_noc::network::MeshNetwork;
/// use lumos_noc::topology::Coord;
/// use lumos_sim::SimTime;
///
/// let mut net = MeshNetwork::paper_table1(3, 3, 8.0);
/// let t = net.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), 1_000_000);
/// assert_eq!(t.hops, 4);
/// assert!(t.finish > t.start);
/// assert!(net.total_energy_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MeshNetwork {
    mesh: Mesh,
    link_model: LinkModel,
    router_model: RouterModel,
    /// One server per node and outgoing direction, at
    /// [`link_slot`]; slots of links off the mesh edge stay unused.
    /// All run at the link model's rate, which nothing changes.
    links: Vec<BandwidthServer>,
    energy_j: f64,
}

impl MeshNetwork {
    /// Builds a mesh network with explicit models.
    pub fn new(mesh: Mesh, link_model: LinkModel, router_model: RouterModel) -> Self {
        let links = vec![BandwidthServer::new(link_model.bandwidth_gbps()); 4 * mesh.node_count()];
        MeshNetwork {
            mesh,
            link_model,
            router_model,
            links,
            energy_j: 0.0,
        }
    }

    /// A `cols × rows` mesh with the paper's Table 1 link/router models
    /// and `hop_mm` millimetres of wire per hop.
    pub fn paper_table1(cols: u32, rows: u32, hop_mm: f64) -> Self {
        Self::paper_table1_scaled(cols, rows, hop_mm, 1.0)
    }

    /// [`MeshNetwork::paper_table1`] with the link clock (and therefore
    /// every link's bandwidth) scaled by `frequency_scale` — the
    /// derating hook a time-shared tenant uses to see its fair slice of
    /// the mesh. Hop latencies (wire, SerDes, router pipeline) are
    /// unaffected. A scale of exactly `1.0` is the unscaled mesh
    /// bit-for-bit.
    pub fn paper_table1_scaled(cols: u32, rows: u32, hop_mm: f64, frequency_scale: f64) -> Self {
        let mut link = LinkModel::paper_table1(hop_mm);
        link.frequency_ghz *= frequency_scale;
        MeshNetwork::new(Mesh::new(cols, rows), link, RouterModel::paper_table1())
    }

    /// Sends `bits` from `src` to `dst` starting no earlier than `at`.
    ///
    /// Same-node transfers complete immediately (local traffic does not
    /// touch the interposer).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint lies outside the mesh.
    pub fn transfer(&mut self, at: SimTime, src: Coord, dst: Coord, bits: u64) -> MeshTransfer {
        if src == dst || bits == 0 {
            return MeshTransfer {
                start: at,
                finish: at,
                hops: 0,
            };
        }
        let path = xy_hops(&self.mesh, src, dst);
        let hops = path.len() as u32;
        let per_hop = self.router_model.hop_latency() + self.link_model.traversal_latency();

        let mut head = at;
        let mut start = None;
        let mut tail_finish = at;
        for link in path {
            let grant = self.links[link_slot(&self.mesh, link)].serve(head, bits);
            start.get_or_insert(grant.start);
            head = grant.start + per_hop;
            tail_finish = grant.finish + per_hop;
        }
        let result = MeshTransfer {
            start: start.expect("path is non-empty"),
            finish: tail_finish,
            hops,
        };
        self.account_transfer(result.hops, bits);
        result
    }

    /// Sends `bits` from `src` to `dst` as a sequence of
    /// `packet_bits`-sized request/response packets with **no
    /// outstanding-request pipelining**: each packet pays the full
    /// round-trip path latency (request out, word back) before the next
    /// is issued.
    ///
    /// This is the conservative transfer discipline of memory-mapped
    /// active-interposer protocols (one word per blocking request, with
    /// acknowledgment), and the regime in which the paper's electrical
    /// baseline loses to the photonic interposer by an order of
    /// magnitude: per-flow throughput collapses to
    /// `packet_bits / (2 · hops · t_hop + t_ser)` regardless of raw link
    /// width, where `t_hop` includes router pipeline, wire propagation,
    /// and SerDes/PHY crossing.
    ///
    /// The path's links are occupied for the whole exchange (so
    /// contention is still modelled), while energy is charged for the
    /// real payload bits only. Every link runs at one rate
    /// ([`MeshNetwork::new`] builds them so), so that occupancy is timed
    /// once per transfer, not once per link.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bits == 0` or an endpoint is outside the mesh.
    pub fn transfer_packets(
        &mut self,
        at: SimTime,
        src: Coord,
        dst: Coord,
        bits: u64,
        packet_bits: u64,
    ) -> MeshTransfer {
        assert!(packet_bits > 0, "packet size must be positive");
        if src == dst || bits == 0 {
            return MeshTransfer {
                start: at,
                finish: at,
                hops: 0,
            };
        }
        let path = xy_hops(&self.mesh, src, dst);
        let hops = path.len() as u64;
        let per_hop = self.router_model.hop_latency() + self.link_model.packet_hop_latency();
        let packet_ser = serialization_time(packet_bits, self.link_model.bandwidth_gbps());
        let packets = bits.div_ceil(packet_bits);
        // Each packet: serialize once + traverse every hop out AND back
        // (request/response round trip); the next packet waits for the
        // previous response (single outstanding request).
        let duration = (packet_ser + per_hop * (2 * hops)) * packets;

        // Occupy each link on the path for the exchange duration so other
        // flows contend realistically: convert the duration back into
        // equivalent link occupancy bits.
        let equiv_bits =
            (duration.as_ps() as f64 * self.link_model.bandwidth_gbps() / 1e3).ceil() as u64;
        let occupancy = serialization_time(equiv_bits, self.links[0].rate_gbps());
        let mut start = None;
        let mut finish = at;
        for link in path {
            let grant = self.links[link_slot(&self.mesh, link)].occupy(at, occupancy, equiv_bits);
            start.get_or_insert(grant.start);
            finish = finish.max(grant.finish);
        }
        let result = MeshTransfer {
            start: start.expect("path is non-empty"),
            finish,
            hops: hops as u32,
        };
        self.account_transfer(result.hops, bits);
        result
    }

    /// Charges a transfer of `bits` over `hops` hops without occupying
    /// a link: link and router energy once per hop. The accounting half
    /// of [`MeshNetwork::transfer`] and [`MeshNetwork::transfer_packets`],
    /// which call it once per transfer with the hops they routed. A
    /// caller that already knows a transfer's route replays it with this
    /// alone; link occupancy is left as it was. A transfer of zero hops
    /// (same node, or no bits) charges nothing.
    pub fn account_transfer(&mut self, hops: u32, bits: u64) {
        if hops == 0 {
            return;
        }
        let hop_energy_j =
            self.link_model.energy_joules(bits) + self.router_model.energy_joules(bits);
        for _ in 0..hops {
            self.energy_j += hop_energy_j;
        }
    }

    /// Dynamic energy spent so far, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Static power of all routers, watts.
    pub fn static_power_w(&self) -> f64 {
        self.router_model.leakage_mw * 1e-3 * self.mesh.node_count() as f64
    }

    /// Resets all link state and the energy account.
    pub fn reset(&mut self) {
        for s in &mut self.links {
            s.reset();
        }
        self.energy_j = 0.0;
    }
}

/// The dense index of `link`'s server: its source node in row-major
/// order times four outgoing directions (+x, −x, +y, −y).
fn link_slot(mesh: &Mesh, link: DirectedLink) -> usize {
    let DirectedLink { from, to } = link;
    let dir = if to.x > from.x {
        0
    } else if to.x < from.x {
        1
    } else if to.y > from.y {
        2
    } else {
        3
    };
    4 * (from.y * mesh.cols() + from.x) as usize + dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> MeshNetwork {
        MeshNetwork::paper_table1(3, 3, 8.0)
    }

    #[test]
    fn frequency_scaling_derates_bandwidth_only() {
        let full = net();
        let unit = MeshNetwork::paper_table1_scaled(3, 3, 8.0, 1.0);
        assert_eq!(
            full.link_model.bandwidth_gbps(),
            unit.link_model.bandwidth_gbps()
        );
        let half = MeshNetwork::paper_table1_scaled(3, 3, 8.0, 0.5);
        assert_eq!(
            half.link_model.bandwidth_gbps(),
            0.5 * full.link_model.bandwidth_gbps()
        );
        // Latency components are untouched by the derating.
        assert_eq!(
            half.link_model.packet_hop_latency(),
            full.link_model.packet_hop_latency()
        );
        assert_eq!(
            half.router_model.hop_latency(),
            full.router_model.hop_latency()
        );
    }

    #[test]
    fn local_transfer_is_free() {
        let mut n = net();
        let t = n.transfer(
            SimTime::from_ns(5),
            Coord::new(1, 1),
            Coord::new(1, 1),
            1_000,
        );
        assert_eq!(t.finish, SimTime::from_ns(5));
        assert_eq!(n.total_energy_j(), 0.0);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut n = net();
        let near = n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(1, 0), 1_000);
        n.reset();
        let far = n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), 1_000);
        assert!(far.finish > near.finish);
        assert_eq!(near.hops, 1);
        assert_eq!(far.hops, 4);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut n = net();
        let bits = 256_000; // 1 µs at 256 Gb/s
        let a = n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 0), bits);
        let b = n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 0), bits);
        // Identical routes: second waits a full serialization on link 1.
        assert!(b.start >= a.start + SimTime::from_ns(999));
        // Disjoint route suffers no delay.
        let c = n.transfer(SimTime::ZERO, Coord::new(0, 2), Coord::new(2, 2), bits);
        assert_eq!(c.start, SimTime::ZERO);
    }

    #[test]
    fn hotspot_contention_at_shared_column() {
        // Everyone sends to the centre: the centre's incoming links are
        // hotspots, so total time far exceeds a single transfer.
        let mut n = net();
        let bits = 256_000;
        let centre = Coord::new(1, 1);
        let sources = [
            Coord::new(0, 0),
            Coord::new(2, 0),
            Coord::new(0, 2),
            Coord::new(2, 2),
            Coord::new(0, 1),
            Coord::new(2, 1),
        ];
        let mut worst = SimTime::ZERO;
        for s in sources {
            worst = worst.max(n.transfer(SimTime::ZERO, s, centre, bits).finish);
        }
        let single = {
            let mut fresh = net();
            fresh
                .transfer(SimTime::ZERO, Coord::new(0, 1), centre, bits)
                .finish
        };
        assert!(
            worst >= single * 2,
            "no hotspot effect: {worst} vs {single}"
        );
    }

    #[test]
    fn packet_mode_is_much_slower_than_streaming() {
        let mut n = net();
        let bits = 1_000_000;
        let streamed = n
            .transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), bits)
            .finish;
        n.reset();
        let packetized = n
            .transfer_packets(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), bits, 128)
            .finish;
        // 4 hops × ~2.14 ns + 0.5 ns per 128-bit packet vs pure
        // serialization: the request/response discipline is >10× slower.
        assert!(
            packetized.as_ps() > 10 * streamed.as_ps(),
            "packetized {packetized} vs streamed {streamed}"
        );
        // Energy charges real bits, not occupancy.
        let e = n.total_energy_j();
        n.reset();
        n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), bits);
        assert!((e - n.total_energy_j()).abs() / e < 1e-9);
    }

    #[test]
    fn packet_mode_throughput_matches_model() {
        let mut n = net();
        // 1 hop round trip: per packet = 0.5 ns serialization +
        // 2 × (1.5 router + 0.64 wire + 2.5 serdes) = 9.78 ns.
        let bits = 128 * 1_000;
        let t = n.transfer_packets(SimTime::ZERO, Coord::new(0, 0), Coord::new(1, 0), bits, 128);
        let expect_ns = 1_000.0 * (0.5 + 2.0 * (1.5 + 0.64 + 2.5));
        let got_ns = t.finish.as_ns_f64();
        assert!(
            (got_ns - expect_ns).abs() / expect_ns < 0.02,
            "got {got_ns} ns, expected ~{expect_ns} ns"
        );
    }

    #[test]
    fn packet_mode_contends_on_shared_links() {
        let mut n = net();
        let bits = 128 * 100;
        let a = n.transfer_packets(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 0), bits, 128);
        let b = n.transfer_packets(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 0), bits, 128);
        assert!(b.finish > a.finish, "second flow must queue");
    }

    #[test]
    fn energy_scales_with_hops_and_bits() {
        let mut n = net();
        n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(1, 0), 1_000);
        let e1 = n.total_energy_j();
        n.reset();
        n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), 1_000);
        let e4 = n.total_energy_j();
        assert!((e4 / e1 - 4.0).abs() < 1e-9);
        n.reset();
        n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(1, 0), 2_000);
        assert!((n.total_energy_j() / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn link_slots_are_distinct_and_in_range() {
        for (cols, rows) in [(1, 1), (3, 3), (4, 2), (1, 5), (6, 1)] {
            let mesh = Mesh::new(cols, rows);
            let mut slots: Vec<usize> = mesh
                .links()
                .into_iter()
                .map(|l| link_slot(&mesh, l))
                .collect();
            assert!(slots.iter().all(|&s| s < 4 * mesh.node_count()));
            let n = slots.len();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), n, "{cols}x{rows}: slots collide");
        }
    }

    #[test]
    fn static_power_counts_routers() {
        let n = net();
        assert!((n.static_power_w() - 9.0 * 0.025).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut n = net();
        n.transfer(SimTime::ZERO, Coord::new(0, 0), Coord::new(2, 2), 5_000);
        n.reset();
        assert_eq!(n.total_energy_j(), 0.0);
    }
}
