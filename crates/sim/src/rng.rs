//! Deterministic random-number utilities for reproducible simulations.
//!
//! Self-contained (no external crates): a xoshiro256++ core seeded via
//! splitmix64, with one distribution: the exponential inter-arrival
//! times of the serving simulator's Poisson arrivals.

/// A seeded RNG: exponential draws and independent child streams.
///
/// Every simulation entry point takes an explicit seed so that runs are
/// exactly reproducible; `SimRng` centralizes construction so no component
/// reaches for thread-local entropy.
///
/// # Examples
///
/// ```
/// use lumos_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.exponential(2.0).to_bits(), b.exponential(2.0).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent child RNG; `label` decorrelates streams that
    /// share a parent seed (e.g. one arrival stream per served model).
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s: u64 = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Exponential sample with the given rate (events per unit time) —
    /// the inter-arrival distribution of a Poisson process, used by the
    /// serving simulator's open-loop arrival generators.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate");
        // unit_f64() is in [0, 1), so the argument of ln is in (0, 1].
        -(1.0 - self.unit_f64()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.exponential(3.0).to_bits(), b.exponential(3.0).to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = SimRng::seed_from(1);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let s1: Vec<u64> = (0..10).map(|_| c1.exponential(1.0).to_bits()).collect();
        let s2: Vec<u64> = (0..10).map(|_| c2.exponential(1.0).to_bits()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_moments_and_positivity() {
        let mut r = SimRng::seed_from(42);
        let n = 20_000;
        let rate = 4.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.exponential(rate);
            assert!(x >= 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean drifted: {mean}");
    }
}
