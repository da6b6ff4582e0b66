//! Property-based tests for the HBM stack invariants.

use lumos_hbm::{HbmConfig, HbmStack};
use lumos_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Bursts are causal (never start before arrival + access latency,
    /// never finish before they start) and charge energy for every bit.
    #[test]
    fn bursts_causal_and_conserving(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..10_000_000), 1..50),
    ) {
        let cfg = HbmConfig::hbm2();
        let mut h = HbmStack::new(cfg);
        let mut total = 0u64;
        for (at_ns, bits) in jobs {
            let at = SimTime::from_ns(at_ns);
            let a = h.read(at, bits);
            prop_assert!(a.start >= at + SimTime::from_ns(cfg.access_latency_ns));
            prop_assert!(a.finish >= a.start);
            total += bits;
        }
        let expect_j = cfg.energy_pj_per_bit * 1e-12 * total as f64;
        prop_assert!((h.total_energy_j() - expect_j).abs() <= 1e-12 * (1.0 + expect_j));
    }

    /// Reads and writes are symmetric at burst granularity.
    #[test]
    fn read_write_symmetry(at_ns in 0u64..10_000, bits in 1u64..10_000_000) {
        let mut r = HbmStack::new(HbmConfig::hbm2());
        let mut w = HbmStack::new(HbmConfig::hbm2());
        let at = SimTime::from_ns(at_ns);
        prop_assert_eq!(r.read(at, bits), w.write(at, bits));
        prop_assert_eq!(r.total_energy_j(), w.total_energy_j());
    }

    /// More channels never finish a burst later (striping monotonicity),
    /// holding per-channel rate fixed.
    #[test]
    fn striping_monotone_in_channels(channels in 1usize..16, bits in 1u64..50_000_000) {
        let mk = |n: usize| HbmStack::new(HbmConfig {
            channels: n,
            ..HbmConfig::hbm2()
        });
        let few = mk(channels).read(SimTime::ZERO, bits);
        let many = mk(channels + 1).read(SimTime::ZERO, bits);
        prop_assert!(many.finish <= few.finish);
    }

    /// Zero-bit bursts are free: no time, no energy.
    #[test]
    fn zero_burst_free(at_ns in 0u64..100_000) {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        let at = SimTime::from_ns(at_ns);
        let a = h.read(at, 0);
        prop_assert_eq!(a.start, at);
        prop_assert_eq!(a.finish, at);
        prop_assert_eq!(h.total_energy_j(), 0.0);
    }

    /// `reset` restores a bit-identical fresh stack: replaying the same
    /// bursts yields the same grants.
    #[test]
    fn reset_is_deterministic_replay(
        jobs in proptest::collection::vec((0u64..5_000, 1u64..1_000_000), 1..20),
    ) {
        let mut h = HbmStack::new(HbmConfig::hbm2());
        let first: Vec<_> = jobs
            .iter()
            .map(|&(at, bits)| h.read(SimTime::from_ns(at), bits))
            .collect();
        h.reset();
        let second: Vec<_> = jobs
            .iter()
            .map(|&(at, bits)| h.read(SimTime::from_ns(at), bits))
            .collect();
        prop_assert_eq!(first, second);
    }
}
