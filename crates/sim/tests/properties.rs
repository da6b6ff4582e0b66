//! Property-based tests for the simulation kernel invariants.

use lumos_sim::resource::{BandwidthServer, Grant, ServerPool};
use lumos_sim::time::serialization_time;
use lumos_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// A FIFO server never starts a transfer before its arrival, never
    /// overlaps transfers, and conserves bits.
    #[test]
    fn server_is_causal_and_conserving(
        jobs in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 1..100),
        rate in 1.0f64..100.0,
    ) {
        let mut s = BandwidthServer::new(rate);
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_by_key(|&(t, _)| t);
        let mut last_finish = SimTime::ZERO;
        let mut total = 0u64;
        for (t, bits) in arrivals {
            let at = SimTime::from_ps(t);
            let g = s.serve(at, bits);
            prop_assert!(g.start >= at, "started before arrival");
            prop_assert!(g.start >= last_finish, "overlapping service");
            prop_assert!(g.finish >= g.start);
            prop_assert_eq!(g.queue_delay, g.start.saturating_sub(at));
            last_finish = g.finish;
            total += bits;
        }
        prop_assert_eq!(s.served_bits(), total);
    }

    /// Serialization time scales linearly in bits (within rounding) and
    /// inversely with rate.
    #[test]
    fn serialization_scaling(bits in 1u64..1_000_000, rate in 1.0f64..64.0) {
        let one = serialization_time(bits, rate).as_ps();
        let two = serialization_time(2 * bits, rate).as_ps();
        prop_assert!(two >= 2 * one - 2 && two <= 2 * one + 2);
        let faster = serialization_time(bits, rate * 2.0).as_ps();
        prop_assert!(faster <= one);
    }

    /// Striping over more servers never finishes later than over fewer.
    #[test]
    fn striping_monotone_in_servers(bits in 1u64..10_000_000, n in 1usize..16) {
        let mut small = ServerPool::new(n, 10.0);
        let mut large = ServerPool::new(n + 1, 10.0);
        let g_small = small.serve_striped(SimTime::ZERO, bits);
        let g_large = large.serve_striped(SimTime::ZERO, bits);
        prop_assert!(g_large.finish <= g_small.finish);
    }

    /// A striped transfer times each stripe size once, so it must grant
    /// what each active server grants serving its own stripe with
    /// `BandwidthServer::serve`: the slowest stripe's grant (the first
    /// of equal finishes), and afterwards every server's next grant.
    #[test]
    fn striping_equals_per_server_serves(
        rate in 0.001f64..2_000.0,
        preload in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 0..=16),
        transfers in proptest::collection::vec(
            (1usize..=16, 0u64..2_000_000, (0u64..100_000, prop::bool::ANY)),
            1..4,
        ),
    ) {
        let mut pool = ServerPool::new(16, rate);
        let mut servers = vec![BandwidthServer::new(rate); 16];
        // From idle, the i-th transfer lands on server i: the servers
        // before it are busy, and ties go to the lowest index.
        for (server, &(at, bits)) in servers.iter_mut().zip(&preload) {
            let at = SimTime::from_ps(at);
            prop_assert_eq!(pool.serve(at, bits), server.serve(at, bits));
        }
        for &(active, at, (bits, small)) in &transfers {
            // Small counts leave some stripes at zero bits.
            let bits = if small { bits % 40 } else { bits };
            let at = SimTime::from_ps(at);
            pool.set_active(active);
            let (per, rem) = (bits / active as u64, bits % active as u64);
            let mut slowest: Option<Grant> = None;
            for (i, server) in servers[..active].iter_mut().enumerate() {
                let g = server.serve(at, per + u64::from((i as u64) < rem));
                if slowest.is_none_or(|w| g.finish > w.finish) {
                    slowest = Some(g);
                }
            }
            prop_assert_eq!(Some(pool.serve_striped(at, bits)), slowest);
        }
        // Each server's next grant: probes so long that every server
        // takes exactly one, in the order the servers free up.
        pool.set_active(16);
        let probe = 1u64 << 40;
        let mut next: Vec<(SimTime, usize, Grant)> = servers
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let g = s.serve(SimTime::ZERO, probe);
                (g.start, i, g)
            })
            .collect();
        next.sort_by_key(|&(start, i, _)| (start, i));
        for (_, _, g) in next {
            prop_assert_eq!(pool.serve(SimTime::ZERO, probe), g);
        }
        prop_assert_eq!(
            pool.served_bits(),
            servers.iter().map(BandwidthServer::served_bits).sum::<u64>()
        );
    }
}
