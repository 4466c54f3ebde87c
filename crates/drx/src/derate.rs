//! Fail-slow service derating.
//!
//! A gray DRX keeps executing commands correctly but slower than
//! nominal — a throttled clock domain, a misbehaving DMA engine, a
//! shared power budget. [`Derate`] composes the multiplicative
//! slowdown factors in effect on a unit and stretches nominal
//! compute/command service times accordingly. The system model decides
//! *which* factors apply (from the fault plan's degrade schedule); this
//! type owns the arithmetic so device-side stretching is uniform and
//! independently testable.

use dmx_sim::Time;

/// Composed multiplicative slowdown on one unit's service times.
///
/// The identity derate (factor 1) is exactly inert: applying it returns
/// the nominal time unchanged, bit for bit, which is what keeps
/// inert fail-slow configs byte-identical to the layer-absent path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derate {
    factor: f64,
}

impl Derate {
    /// The identity derate: service times pass through untouched.
    pub fn none() -> Self {
        Derate { factor: 1.0 }
    }

    /// Folds another slowdown factor in (multiplicative stacking, the
    /// same composition rule the PCIe layer uses for overlapping link
    /// degradations).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or is below 1: a fail-slow
    /// event can only slow a device down.
    pub fn compose(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor must be finite and >= 1, got {factor}"
        );
        self.factor *= factor;
    }

    /// True when this derate cannot change any service time.
    pub fn is_unity(&self) -> bool {
        self.factor == 1.0
    }

    /// Stretches a nominal service time by the composed factor. The
    /// unity derate is an exact identity.
    pub fn apply(&self, nominal: Time) -> Time {
        if self.is_unity() {
            nominal
        } else {
            nominal.scale(self.factor)
        }
    }
}

impl Default for Derate {
    fn default() -> Self {
        Derate::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unity_is_exact_identity() {
        let d = Derate::none();
        assert!(d.is_unity());
        for ps in [0u64, 1, 3, 999_999_999_999_937] {
            // Odd picosecond counts must survive bit-exactly — a round
            // trip through f64 seconds would lose the low bits.
            assert_eq!(d.apply(Time::from_ps(ps)), Time::from_ps(ps));
        }
    }

    #[test]
    fn factors_stack_multiplicatively() {
        let mut d = Derate::none();
        d.compose(2.0);
        d.compose(1.5);
        assert_eq!(d.apply(Time::from_us(10)), Time::from_us(30));
    }

    #[test]
    fn jittered_factor_scales() {
        let mut d = Derate::none();
        d.compose(4.0 * (1.0 + 0.25));
        assert_eq!(d.apply(Time::from_ns(100)), Time::from_ns(500));
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn speedups_rejected() {
        Derate::none().compose(0.5);
    }
}
