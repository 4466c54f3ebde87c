//! Small, deterministic PRNG for engine-internal randomness.
//!
//! Workload generators use the `rand` crate; the engine itself uses this
//! SplitMix64 so that simulations are reproducible from a single `u64`
//! seed with no external dependencies.

/// SplitMix64 pseudo-random generator.
///
/// ```
/// use dmx_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        self.next_u53() as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, 2^53)`: the draw [`next_f64`] returns
    /// exactly, times `2^-53`.
    ///
    /// [`next_f64`]: SplitMix64::next_f64
    pub(crate) fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiplicative bounded sampling (Lemire); the tiny modulo bias
        // of the plain fallback would be irrelevant here, but this is
        // cheap and exact enough for simulation jitter.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Exponentially distributed float with the given mean.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }
}

/// The integer form of the Bernoulli test `next_f64() < p`: a draw
/// passes exactly when its [`SplitMix64::next_u53`] value lies below
/// `u53_threshold(p)`. `next_f64` is exactly `k * 2^-53`, scaling `p`
/// by `2^53` is exact, and an integer lies below a real exactly when it
/// lies below the real's ceiling. The saturating cast keeps the edge
/// cases too: NaN gives 0, which no draw passes, and `p > 1` a bound
/// above every draw.
pub(crate) fn u53_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, run_cases};

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn u53_threshold_agrees_with_the_float_compare() {
        const TWO_53: u64 = 1 << 53;
        let float_pass = |k: u64, p: f64| (k as f64) * (1.0 / TWO_53 as f64) < p;
        run_cases("rng::u53_threshold", cases(256), |g| {
            // A uniform p in (0, 1], a log-uniform one down to 1e-15
            // (chunk corruption probabilities are small), p = 1, and a
            // p whose scaled value j is an integer, so the ceiling is j.
            let j = g.u64_in(1, TWO_53 + 1);
            for p in [
                1.0 - g.f64_in(0.0, 1.0),
                10f64.powf(-g.f64_in(0.0, 15.0)),
                1.0,
                j as f64 / TWO_53 as f64,
            ] {
                let t = u53_threshold(p);
                let k = g.u64_in(0, TWO_53);
                // Draws on both sides of the threshold, and a random one.
                for k in [k, t.saturating_sub(1), t, t + 1] {
                    let k = k.min(TWO_53 - 1);
                    assert_eq!(k < t, float_pass(k, p), "k = {k}, p = {p}, t = {t}");
                }
            }
        });
    }

    #[test]
    fn bounded_in_range() {
        let mut r = SplitMix64::new(4);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = SplitMix64::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }
}
