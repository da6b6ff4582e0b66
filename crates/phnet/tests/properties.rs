//! Property-based tests for the photonic interposer invariants.

use lumos_phnet::{PhnetConfig, PhotonicInterposer, ReconfigPolicy};
use lumos_sim::SimTime;
use proptest::prelude::*;

fn net() -> PhotonicInterposer {
    PhotonicInterposer::new(PhnetConfig::paper_table1()).expect("Table 1 point is feasible")
}

proptest! {
    /// Transfers are causal under arbitrary traffic.
    #[test]
    fn transfers_causal(
        ops in proptest::collection::vec(
            (0usize..8, 1u64..10_000_000, 0u64..100, prop::bool::ANY),
            1..60,
        ),
    ) {
        let mut n = net();
        let mut end = SimTime::ZERO;
        for (chiplet, bits, at_us, is_write) in ops {
            let at = SimTime::from_us(at_us);
            let t = if is_write {
                n.write(at, chiplet, bits)
            } else {
                n.read_unicast(at, chiplet, bits)
            };
            prop_assert!(t.start >= at);
            prop_assert!(t.finish >= t.start);
            end = end.max(t.finish);
        }
        let report = n.finalize(end);
        prop_assert!(report.energy_j > 0.0);
    }

    /// Static power is monotone in the number of active gateways: a
    /// heavier demand vector never yields lower idle power.
    #[test]
    fn power_monotone_in_demand(light in 0.0f64..50e9, heavy_extra in 1e9f64..5e12) {
        let mut a = net();
        let mut b = net();
        let demand_light = vec![light; 8];
        let demand_heavy = vec![light + heavy_extra; 8];
        let _ = a.reconfigure(SimTime::from_us(1), &demand_light);
        let _ = b.reconfigure(SimTime::from_us(1), &demand_heavy);
        let pa = a.static_power_of(a.active_set());
        let pb = b.static_power_of(b.active_set());
        prop_assert!(pb >= pa - 1e-9, "heavier demand lowered power: {pa} -> {pb}");
    }

    /// Reconfiguring twice with the same demand is free the second time
    /// (PCM states are nonvolatile).
    #[test]
    fn reconfigure_idempotent(demand_gbps in proptest::collection::vec(0.0f64..4e12, 8)) {
        let mut n = net();
        let _ = n.reconfigure(SimTime::from_us(1), &demand_gbps);
        let second = n.reconfigure(SimTime::from_us(2), &demand_gbps);
        prop_assert_eq!(second, SimTime::ZERO);
    }

    /// Broadcast reads serialize on one lane: their span is at least the
    /// single-lane serialization time regardless of active gateways.
    #[test]
    fn broadcast_floor(bits in 1u64..100_000_000) {
        let mut n = net();
        let t = n.read_broadcast(SimTime::ZERO, bits);
        let lane_gbps = 64.0 * 12.0;
        let floor_s = bits as f64 / (lane_gbps * 1e9);
        let span = t.finish.saturating_sub(t.start).as_secs_f64();
        prop_assert!(span >= floor_s * 0.999, "span {span} < floor {floor_s}");
    }

    /// Under every policy, the interposer still moves data and reports
    /// finite, positive power.
    #[test]
    fn all_policies_functional(policy_idx in 0usize..4, bits in 1u64..10_000_000) {
        let policy = [
            ReconfigPolicy::ResipiGateways,
            ReconfigPolicy::ProwavesWavelengths,
            ReconfigPolicy::StaticFull,
            ReconfigPolicy::StaticMin,
        ][policy_idx];
        let mut cfg = PhnetConfig::paper_table1();
        cfg.policy = policy;
        let mut n = PhotonicInterposer::new(cfg).expect("feasible");
        let _ = n.reconfigure(SimTime::from_us(1), &[1e11; 8]);
        let t = n.write(SimTime::from_us(2), 3, bits);
        prop_assert!(t.finish > t.start);
        let report = n.finalize(t.finish + SimTime::from_us(1));
        prop_assert!(report.avg_power_w.is_finite() && report.avg_power_w > 0.0);
    }
}
