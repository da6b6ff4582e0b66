//! End-to-end coverage of the `lumos_dse` engine against the real
//! simulator: parallel sweeps must match the sequential baseline
//! exactly, cache hits must be bit-identical, and warm caches must
//! survive a reopen.

use std::sync::atomic::{AtomicU64, Ordering};

use lumos_core::dse::{self, DseAxes, MemoCache};
use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::zoo;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lumos-core-dse-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp cache dir creates");
    dir
}

#[test]
fn parallel_sweep_matches_sequential_baseline_point_for_point() {
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes::paper_conclusion();
    let model = zoo::lenet5();
    let (sequential, seq_stats) = dse::sweep_with(&base, &axes, &model, 1, None);
    assert_eq!(seq_stats.threads, 1);
    for threads in [2, 4, 7] {
        let (parallel, _) = dse::sweep_with(&base, &axes, &model, threads, None);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert!(p.bit_eq(s), "threads={threads}: {p:?} != {s:?}");
        }
    }
}

#[test]
fn second_sweep_is_all_cache_hits_and_bit_identical() {
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes::paper_conclusion();
    let model = zoo::lenet5();
    let mut cache = MemoCache::in_memory();
    let (cold, cold_stats) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
    assert_eq!(cold_stats.evaluated, axes.len());
    assert_eq!(cold_stats.hits, 0);
    let (warm, warm_stats) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
    assert!(warm_stats.all_hits(), "{warm_stats:?}");
    assert_eq!(warm_stats.evaluated, 0);
    for (w, c) in warm.iter().zip(&cold) {
        assert!(w.bit_eq(c));
    }
}

#[test]
fn persisted_cache_warm_starts_a_fresh_process_state() {
    let dir = temp_dir("warm");
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes {
        wavelengths: vec![16, 64],
        gateways: vec![1, 4],
        mac_scales: vec![1.0],
    };
    let model = zoo::lenet5();
    let cold = {
        let mut cache = MemoCache::persistent(&dir).expect("persistent cache opens");
        let (points, stats) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
        assert_eq!(stats.evaluated, 4);
        points
    }; // cache dropped => flushed, as at process exit
    let mut cache = MemoCache::persistent(&dir).expect("persistent cache opens");
    assert_eq!(cache.loaded_from_disk(), 4);
    let (warm, stats) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
    assert!(stats.all_hits());
    for (w, c) in warm.iter().zip(&cold) {
        assert!(w.bit_eq(c));
    }
    std::fs::remove_dir_all(&dir).expect("temp cache dir removes");
}

#[test]
fn infeasible_points_memoize_bit_identically_too() {
    let mut base = PlatformConfig::paper_table1();
    base.phnet.max_laser_dbm = -10.0; // nothing closes
    let axes = DseAxes {
        wavelengths: vec![16, 64],
        gateways: vec![1],
        mac_scales: vec![1.0],
    };
    let model = zoo::lenet5();
    let mut cache = MemoCache::in_memory();
    let (cold, _) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
    assert!(cold.iter().all(|p| !p.feasible));
    let (warm, stats) = dse::sweep_with(&base, &axes, &model, 0, Some(&mut cache));
    assert!(stats.all_hits());
    for (w, c) in warm.iter().zip(&cold) {
        assert!(w.bit_eq(c));
    }
}

/// An axis value past any buildable interposer is an infeasible point,
/// not a panic that takes the sweep down: 2^20 wavelengths on a 0.8 nm
/// grid would reach below 0 nm.
#[test]
fn oversized_axes_are_infeasible_points() {
    let axes = DseAxes::from_slices(&[1 << 20], &[4], &[1.0]);
    let (points, _) = dse::sweep_with(
        &PlatformConfig::paper_table1(),
        &axes,
        &zoo::lenet5(),
        0,
        None,
    );
    assert_eq!(points.len(), 1);
    assert!(!points[0].feasible, "{points:?}");
}

#[test]
fn pareto_front_invariant_to_sweep_point_ordering() {
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes::paper_conclusion();
    let model = zoo::resnet50();
    let mut points = dse::sweep(&base, &axes, &model);
    let front = dse::pareto_front(&points);
    points.reverse();
    assert_eq!(dse::pareto_front(&points), front);
    points.rotate_left(5);
    assert_eq!(dse::pareto_front(&points), front);
}

#[test]
fn point_keys_separate_platforms_models_and_grid_points() {
    let base = PlatformConfig::paper_table1();
    let model = zoo::lenet5();
    let mut keys = std::collections::HashSet::new();
    for platform in Platform::all() {
        for w in [16usize, 32, 64] {
            let cfg = dse::grid_config(&base, w, 4, 1.0);
            assert!(
                keys.insert(dse::point_key(&cfg, &platform, &model)),
                "collision at {platform:?} λ={w}"
            );
        }
    }
    assert!(!keys.insert(dse::point_key(
        &dse::grid_config(&base, 16, 4, 1.0),
        &Platform::Monolithic,
        &model
    )));
}

#[test]
fn explore_refines_around_the_front_incrementally() {
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes {
        wavelengths: vec![16, 32, 64],
        gateways: vec![1, 4],
        mac_scales: vec![1.0],
    };
    let model = zoo::lenet5();
    let mut cache = MemoCache::in_memory();
    let exploration = dse::explore(&base, &axes, &model, 2, &mut cache, 0);
    assert_eq!(exploration.rounds.len(), 2);
    // Round 1 is cold; round 2 re-requests frontier points (hits) plus
    // freshly halved midpoints.
    assert_eq!(exploration.rounds[0].hits, 0);
    assert!(exploration.rounds[1].hits > 0);
    assert!(exploration.points.len() >= axes.len());
    assert!(!exploration.front.is_empty());
    // The returned front is the front of the accumulated point set.
    assert_eq!(exploration.front, dse::pareto_front(&exploration.points));
}
