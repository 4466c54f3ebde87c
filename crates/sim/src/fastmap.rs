//! Deterministic fast hashing for hot-path maps.
//!
//! The engine's per-event work is dominated by small integer-keyed map
//! lookups (request ids, job ids, unit ids). `std`'s default SipHash is
//! DoS-resistant but costs tens of cycles per lookup and seeds itself
//! randomly per process; simulation keys are internal counters, so
//! neither property buys anything here. [`FastMap`]/[`FastSet`] swap in
//! a fixed-seed multiply-xor hash (Fx-style): a few cycles per key, and
//! — unlike `RandomState` — identical layout in every process, which
//! keeps any accidental iteration-order dependence reproducible instead
//! of flaky.
//!
//! No map in the engine is allowed to *depend* on iteration order for
//! results (outputs must be byte-identical across `--threads`), so the
//! hasher choice is free to change; determinism is still enforced by
//! the serial-vs-parallel compares in CI and in the `repro all` golden
//! test.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the golden ratio, the usual Fibonacci-hashing
/// constant; one multiply spreads dense counter keys across the table.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-xor hasher for small fixed-width keys (integers and small
/// tuples of them). Bytes fall back to an FNV-style fold, so composite
/// `Hash` impls still work — just pick [`FastMap`] only where keys are
/// cheap integers.
#[derive(Debug, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Finalizing xor-shift: hashbrown uses both the low bits (slot
        // index) and the high bits (control tag), so fold the product's
        // well-mixed high half back down.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(K);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` with the fixed-seed [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` with the fixed-seed [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.len(), 10_000);
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(&i), Some(i * 3));
        }
        assert_eq!(m.len(), 5_000);
    }

    #[test]
    fn dense_counter_keys_spread() {
        // Dense ids must not collide into a few buckets: the hash of
        // consecutive keys should differ in their low bits.
        let mut low_bits = FastSet::default();
        for i in 0..64u64 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0x3F);
        }
        assert!(
            low_bits.len() > 32,
            "only {} distinct slots",
            low_bits.len()
        );
    }

    #[test]
    fn tuple_and_byte_keys_work() {
        let mut m: FastMap<(usize, usize), u32> = FastMap::default();
        m.insert((3, 5), 1);
        m.insert((5, 3), 2);
        assert_eq!(m.get(&(3, 5)), Some(&1));
        assert_eq!(m.get(&(5, 3)), Some(&2));
        let mut s: FastSet<String> = FastSet::default();
        s.insert("abc".into());
        assert!(s.contains("abc"));
        assert!(!s.contains("abd"));
    }

    #[test]
    fn deterministic_across_instances() {
        let h = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }
}
