//! The host-speed reference: a fixed kernel, timed after every pass.
//!
//! On a shared machine the speed the host gives this process drifts, by
//! up to 1.7x, over seconds and over minutes, as other tenants load the
//! same cores; every host time drifts with it. Within a run the median
//! pass time of the same code then differs by 20-30% from run to run,
//! while the ratio of a pass to this kernel, timed in the gap right after
//! it, stays within a few percent. So the benchmark reports each pass and
//! set-up at nominal host speed: its host time × [`NOMINAL_MS`] / the
//! kernel's time in the same gap. The kernel is this file's own code and
//! no change to the simulator moves it; raw times stay in the run record.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, milliseconds, on the host speed that scaled times
/// are quoted at: about what it takes on an unloaded 2-vCPU Xeon.
pub const NOMINAL_MS: f64 = 0.2;
/// Kernel timings per gap; the gap's reference is their median.
const REPS: usize = 3;

/// Times the kernel [`REPS`] times and returns the median, milliseconds.
pub fn reference_ms() -> f64 {
    let mut t = [0.0; REPS];
    for x in &mut t {
        let t0 = Instant::now();
        black_box(kernel());
        *x = t0.elapsed().as_secs_f64() * 1e3;
    }
    t.sort_by(f64::total_cmp);
    t[REPS / 2]
}

/// `host_time` at nominal host speed, given the kernel's time
/// `reference_ms` next to it.
pub fn scaled(host_time: f64, reference_ms: f64) -> f64 {
    host_time * NOMINAL_MS / reference_ms
}

/// Integer hashing, float math, allocation, sorting and a B-tree: a
/// small mix of what the simulator spends its time on. Returns a checksum
/// so that none of it is optimised away.
fn kernel() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut v: Vec<f64> = Vec::with_capacity(4096);
    let mut acc = 0.0f64;
    for i in 0..4096u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD).wrapping_add(i);
        let f = (x >> 11) as f64 / (1u64 << 53) as f64;
        acc += (f + 1.0).sqrt() / (f + 2.0);
        v.push(f);
    }
    v.sort_by(f64::total_cmp);
    let mut m = BTreeMap::new();
    for (i, f) in v.iter().enumerate().step_by(4) {
        m.insert((f * 1e9) as u64, i);
    }
    x ^ acc.to_bits() ^ m.len() as u64 ^ v[2048].to_bits()
}
