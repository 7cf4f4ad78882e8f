//! A fixed-seed, fast non-cryptographic hash map for integer keys.
//!
//! Std's default SipHash is randomly seeded per process and slow on
//! integer keys. [`FastMap`] uses an Fx-style multiplicative hash with a
//! fixed seed instead, so hashing is identical on every run. (The cache
//! model and per-ray visit tracking use flat arrays and need no hashing.)

// grtx-allow(deterministic-collections): this module IS the sanctioned
// wrapper — the raw std types are re-exported below under a fixed-seed
// BuildHasherDefault, so hashing is identical on every run.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys (FxHash-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(SEED);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` keyed by integers with the fast hasher.
// grtx-allow(deterministic-collections): the deterministic alias itself.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 128, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 128)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        use std::hash::Hash;
        let hash = |k: u64| {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        // Sequential line addresses must not collide.
        let hashes: std::collections::BTreeSet<u64> =
            (0..10_000u64).map(|i| hash(i * 128)).collect();
        assert_eq!(hashes.len(), 10_000);
    }
}
