//! Stable 64-bit fingerprints for memoization keys.
//!
//! The std `DefaultHasher` is randomly keyed per process, so its output
//! cannot key a cache that outlives the process. [`StableHasher`] is a
//! plain FNV-1a 64 core with no hidden state: the same byte stream
//! produces the same key in every run, which is what the persistent DSE
//! cache under `target/dse-cache` relies on.
//!
//! It implements [`std::hash::Hasher`], so any `#[derive(Hash)]` type
//! (layer enums, node ids, …) can feed it directly, and adds explicit
//! writers for floats (hashed by IEEE bit pattern, with `-0.0`
//! canonicalized to `+0.0`).

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, unkeyed FNV-1a 64 hasher.
///
/// # Examples
///
/// ```
/// use lumos_dse::StableHasher;
/// use std::hash::Hasher;
///
/// let mut a = StableHasher::new();
/// a.write_u64(42);
/// a.write_f64(1.5);
/// let mut b = StableHasher::new();
/// b.write_u64(42);
/// b.write_f64(1.5);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Hashes a float by bit pattern (`-0.0` folded into `+0.0` so the
    /// two zero encodings key identically).
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v == 0.0 { 0u64 } else { v.to_bits() };
        self.write_u64(bits);
    }

    /// Hashes a string with a length prefix, so `("ab", "c")` and
    /// `("a", "bc")` fingerprint differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Fix the integer encodings to little-endian so the fingerprint does
    // not silently depend on the `to_ne_bytes` defaults.
    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }
    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
    fn write_i8(&mut self, v: i8) {
        self.write_u8(v as u8);
    }
    fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }
    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }
    fn write_isize(&mut self, v: isize) {
        self.write_usize(v as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut StableHasher)) -> u64 {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_of(|h| {
            h.write_u64(7);
            h.write_str("resnet50");
        });
        let b = hash_of(|h| {
            h.write_u64(7);
            h.write_str("resnet50");
        });
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_every_byte() {
        let a = hash_of(|h| h.write_u64(1));
        let b = hash_of(|h| h.write_u64(2));
        assert_ne!(a, b);
        assert_ne!(
            hash_of(|h| h.write_str("ab")),
            hash_of(|h| h.write_str("ba"))
        );
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let a = hash_of(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let b = hash_of(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn zero_floats_canonicalized() {
        assert_eq!(
            hash_of(|h| h.write_f64(0.0)),
            hash_of(|h| h.write_f64(-0.0))
        );
        assert_ne!(hash_of(|h| h.write_f64(0.5)), hash_of(|h| h.write_f64(1.0)));
    }

    #[test]
    fn derived_hash_types_feed_the_hasher() {
        use std::hash::Hash;
        #[derive(Hash)]
        struct K(u32, &'static str);
        let a = hash_of(|h| K(3, "x").hash(h));
        let b = hash_of(|h| K(3, "x").hash(h));
        let c = hash_of(|h| K(4, "x").hash(h));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
