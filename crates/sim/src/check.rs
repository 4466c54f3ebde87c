//! Dependency-free property-test harness.
//!
//! Offline environments cannot resolve external crates, so randomized
//! tests run on this tiny deterministic harness instead of `proptest`.
//! Every case is reproducible: inputs derive from [`SplitMix64`] streams
//! seeded by a hash of the test name and the case index, so a failure
//! message pinpoints the exact case and `DMX_CHECK_CASES` can rerun it.

use crate::rng::SplitMix64;

/// FNV-1a hash of a test name; the root of its seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of cases to run: `base`, unless the `DMX_CHECK_CASES`
/// environment variable overrides it.
pub fn cases(base: usize) -> usize {
    std::env::var("DMX_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(base)
}

/// Runs `n` deterministic cases of a property; each case receives a
/// [`Gen`] seeded from `(name, case index)`. Panics inside the property
/// are annotated with the case number so they can be replayed.
pub fn run_cases<F: FnMut(&mut Gen)>(name: &str, n: usize, mut prop: F) {
    let root = fnv1a(name);
    for case in 0..n {
        let mut g = Gen::new(root ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut g)));
        if outcome.is_err() {
            panic!("property {name} failed on case {case}/{n}");
        }
    }
}

/// Deterministic input generator handed to each property case.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// Creates a generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed),
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.rng.next_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.rng.next_below((hi - lo) as u64) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// A uniformly chosen element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "empty choice");
        &xs[self.usize_in(0, xs.len())]
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.next_f64() < p
    }

    /// A vector with length drawn from `[len_lo, len_hi)` whose elements
    /// come from `f`.
    pub fn vec<T>(
        &mut self,
        len_lo: usize,
        len_hi: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len_lo, len_hi);
        (0..n).map(|_| f(self)).collect()
    }

    /// Random bytes with length drawn from `[len_lo, len_hi)`.
    pub fn bytes(&mut self, len_lo: usize, len_hi: usize) -> Vec<u8> {
        self.vec(len_lo, len_hi, |g| g.u64_in(0, 256) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_inputs() {
        let mut a = Vec::new();
        run_cases("check::self", 5, |g| a.push(g.u64_in(0, 1000)));
        let mut b = Vec::new();
        run_cases("check::self", 5, |g| b.push(g.u64_in(0, 1000)));
        assert_eq!(a, b);
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn ranges_respected() {
        run_cases("check::ranges", 50, |g| {
            let v = g.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let b = g.bytes(1, 8);
            assert!(!b.is_empty() && b.len() < 8);
        });
    }

    #[test]
    #[should_panic(expected = "property check::fails failed on case")]
    fn failures_name_the_case() {
        run_cases("check::fails", 10, |g| {
            assert!(g.u64_in(0, 100) < 101, "impossible");
            assert!(g.u64_in(0, 100) < 10, "usually false");
        });
    }
}
