//! Property-based tests for photonic device invariants.

use lumos_photonics::prelude::*;
use proptest::prelude::*;

proptest! {
    /// dB <-> linear conversions roundtrip across the useful range.
    #[test]
    fn db_roundtrip(db in 0.0f64..60.0) {
        let d = Decibels::new(db);
        let back = Decibels::from_linear(d.to_linear());
        prop_assert!((back.value() - db).abs() < 1e-9);
    }

    /// Attenuation never amplifies and composes additively in dB.
    #[test]
    fn attenuation_monotone(dbm in -30.0f64..20.0, l1 in 0.0f64..20.0, l2 in 0.0f64..20.0) {
        let p = OpticalPower::from_dbm(dbm);
        let a = p.attenuate(Decibels::new(l1));
        let b = a.attenuate(Decibels::new(l2));
        prop_assert!(a.as_mw() <= p.as_mw() + 1e-15);
        prop_assert!(b.as_mw() <= a.as_mw() + 1e-15);
        let direct = p.attenuate(Decibels::new(l1 + l2));
        prop_assert!((b.as_dbm() - direct.as_dbm()).abs() < 1e-9);
    }

    /// Microring transmissions stay within [0, 1] at any probe wavelength.
    #[test]
    fn ring_transmission_bounded(
        delta in -20.0f64..20.0,
        q in 1_000u32..50_000,
    ) {
        let ring = Microring::new(Wavelength::from_nm(1550.0), q, 5.0);
        let probe = Wavelength::from_nm(1550.0 + delta);
        let d = ring.drop_transmission(probe);
        let t = ring.through_transmission(probe);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((0.0..=1.0).contains(&t));
        // Passive device: drop + through never exceeds unity.
        prop_assert!(d + t <= 1.0 + 1e-12);
    }

    /// Drop transmission decays monotonically with detuning.
    #[test]
    fn ring_drop_monotone_in_detuning(q in 2_000u32..30_000) {
        let ring = Microring::new(Wavelength::from_nm(1550.0), q, 5.0);
        let mut last = f64::INFINITY;
        for i in 0..40 {
            let probe = Wavelength::from_nm(1550.0 + i as f64 * 0.1);
            let d = ring.drop_transmission(probe);
            prop_assert!(d <= last + 1e-15);
            last = d;
        }
    }

    /// Link budgets: more loss can never reduce the required laser power.
    #[test]
    fn laser_power_monotone_in_loss(loss in 0.0f64..20.0, extra in 0.1f64..10.0) {
        let plan = ChannelPlan::dense(16).unwrap();
        let m = Modulator::typical(ModulationFormat::Ook);
        let d = Photodetector::typical();
        let l = Laser::new(LaserPlacement::OffChip, 16);
        let a = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(loss)),
            &plan, 12.0, &m, &d, &l, 12_000, 60.0,
        ).expect("baseline budget solves");
        let b = solve_link(
            &LinkBudget::new().stage("p", Decibels::new(loss + extra)),
            &plan, 12.0, &m, &d, &l, 12_000, 60.0,
        ).expect("lossier budget also solves");
        prop_assert!(b.laser_electrical_w >= a.laser_electrical_w);
    }

    /// Splitter tree loss grows with fan-out.
    #[test]
    fn splitter_monotone(n in 1usize..64) {
        let a = SplitterTree::new(n).per_output_loss();
        let b = SplitterTree::new(n + 1).per_output_loss();
        prop_assert!(b.value() >= a.value() - 1e-12);
    }

    /// Photodetector sensitivity is monotone in data rate.
    #[test]
    fn pd_sensitivity_monotone(r1 in 1.0f64..40.0, r2 in 1.0f64..40.0) {
        let pd = Photodetector::typical();
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(pd.sensitivity(hi).as_mw() >= pd.sensitivity(lo).as_mw() - 1e-18);
    }
}
