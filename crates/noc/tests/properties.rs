//! Property-based tests for mesh network invariants.

use lumos_noc::{xy_hops, xy_route, Coord, DirectedLink, Mesh, MeshNetwork};
use lumos_sim::SimTime;
use proptest::prelude::*;

fn coord_strategy(cols: u32, rows: u32) -> impl Strategy<Value = Coord> {
    (0..cols, 0..rows).prop_map(|(x, y)| Coord::new(x, y))
}

/// The XY route built hop by hop into a `Vec`, written out
/// independently of the library's iterator: x first, then y.
fn reference_route(src: Coord, dst: Coord) -> Vec<DirectedLink> {
    let mut path = Vec::new();
    let mut cur = src;
    while cur.x != dst.x {
        let x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        let next = Coord::new(x, cur.y);
        path.push(DirectedLink {
            from: cur,
            to: next,
        });
        cur = next;
    }
    while cur.y != dst.y {
        let y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        let next = Coord::new(cur.x, y);
        path.push(DirectedLink {
            from: cur,
            to: next,
        });
        cur = next;
    }
    path
}

proptest! {
    /// XY paths have Manhattan length, are contiguous, and stay inside
    /// the mesh.
    #[test]
    fn xy_route_well_formed(
        src in coord_strategy(5, 5),
        dst in coord_strategy(5, 5),
    ) {
        let mesh = Mesh::new(5, 5);
        let path = xy_route(&mesh, src, dst);
        prop_assert_eq!(path.len() as u32, src.manhattan(dst));
        if let Some(first) = path.first() {
            prop_assert_eq!(first.from, src);
            let last = path.last().expect("non-empty path has a last hop");
            prop_assert_eq!(last.to, dst);
        }
        for pair in path.windows(2) {
            prop_assert_eq!(pair[0].to, pair[1].from);
        }
        for link in &path {
            prop_assert!(mesh.contains(link.from) && mesh.contains(link.to));
            prop_assert_eq!(link.from.manhattan(link.to), 1);
        }
    }

    /// On random meshes and endpoints, the hop iterator yields exactly
    /// the reference route's links, reports its exact length up front,
    /// and collects into `xy_route`.
    #[test]
    fn hop_iterator_matches_xy_route(
        cols in 1u32..10,
        rows in 1u32..10,
        sx in 0u32..1_000,
        sy in 0u32..1_000,
        dx in 0u32..1_000,
        dy in 0u32..1_000,
    ) {
        let mesh = Mesh::new(cols, rows);
        let src = Coord::new(sx % cols, sy % rows);
        let dst = Coord::new(dx % cols, dy % rows);
        let expected = reference_route(src, dst);
        let mut hops = xy_hops(&mesh, src, dst);
        prop_assert_eq!(hops.len(), expected.len());
        let mut yielded = Vec::new();
        while let Some(link) = hops.next() {
            yielded.push(link);
            prop_assert_eq!(hops.len(), expected.len() - yielded.len());
        }
        prop_assert_eq!(hops.next(), None);
        prop_assert_eq!(&yielded, &expected);
        prop_assert_eq!(xy_route(&mesh, src, dst), expected);
    }

    /// Transfers never finish before they start, never start before
    /// their submission, and total energy grows monotonically, both
    /// streamed and under the 128-bit request/response packet
    /// discipline the runner's electrical mesh uses.
    #[test]
    fn transfers_are_causal(
        jobs in proptest::collection::vec(
            (coord_strategy(3, 3), coord_strategy(3, 3), 1u64..1_000_000, 0u64..10_000),
            1..40,
        ),
    ) {
        let mut streamed = MeshNetwork::paper_table1(3, 3, 8.0);
        let mut packets = MeshNetwork::paper_table1(3, 3, 8.0);
        let mut last_energy = [0.0, 0.0];
        for (src, dst, bits, at_ns) in jobs {
            let at = SimTime::from_ns(at_ns);
            let s = streamed.transfer(at, src, dst, bits);
            let p = packets.transfer_packets(at, src, dst, bits, 128);
            for t in [s, p] {
                prop_assert!(t.start >= at);
                prop_assert!(t.finish >= t.start);
            }
            let energy = [streamed.total_energy_j(), packets.total_energy_j()];
            prop_assert!(energy[0] >= last_energy[0] && energy[1] >= last_energy[1]);
            last_energy = energy;
        }
    }

    /// The packetized request/response discipline is never faster than
    /// streaming the same payload.
    #[test]
    fn packet_mode_dominated_by_streaming(
        src in coord_strategy(3, 3),
        dst in coord_strategy(3, 3),
        bits in 1u64..5_000_000,
    ) {
        let mut a = MeshNetwork::paper_table1(3, 3, 8.0);
        let mut b = MeshNetwork::paper_table1(3, 3, 8.0);
        let streamed = a.transfer(SimTime::ZERO, src, dst, bits);
        let packetized = b.transfer_packets(SimTime::ZERO, src, dst, bits, 128);
        prop_assert!(packetized.finish >= streamed.finish);
        // Both charge identical energy for identical payloads.
        prop_assert!((a.total_energy_j() - b.total_energy_j()).abs() <= 1e-12 * (1.0 + a.total_energy_j()));
    }

    /// Energy is exactly linear in payload bits for a fixed route.
    #[test]
    fn energy_linear_in_bits(bits in 1u64..1_000_000) {
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 1);
        let mut a = MeshNetwork::paper_table1(3, 3, 8.0);
        let mut b = MeshNetwork::paper_table1(3, 3, 8.0);
        a.transfer(SimTime::ZERO, src, dst, bits);
        b.transfer(SimTime::ZERO, src, dst, 2 * bits);
        prop_assert!((b.total_energy_j() - 2.0 * a.total_energy_j()).abs() < 1e-15 + 1e-9 * a.total_energy_j());
    }
}
