//! Simulation time as integer picoseconds.
//!
//! All DMX latencies are exact at the clock frequencies the paper uses
//! (250 MHz FPGA = 4000 ps, 1 GHz ASIC = 1000 ps, PCIe symbol times),
//! so a `u64` picosecond tick keeps every experiment deterministic and
//! free of floating-point drift. `u64` picoseconds cover ~213 days of
//! simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in picoseconds.
///
/// `Time` is a transparent newtype over `u64` picoseconds. Construct it
/// from human units and read it back the same way:
///
/// ```
/// use dmx_sim::Time;
/// let t = Time::from_ns(110); // PCIe switch port-to-port latency
/// assert_eq!(t.as_ps(), 110_000);
/// assert_eq!((t * 4).as_ns_f64(), 440.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Time zero; also the additive identity.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// picosecond. Negative and non-finite inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Time {
        if !s.is_finite() || s <= 0.0 {
            return Time::ZERO;
        }
        Time((s * 1e12).round().min(u64::MAX as f64) as u64)
    }

    /// Duration of `cycles` cycles of a clock running at `hz`.
    ///
    /// Rounds up so that a nonzero amount of work never takes zero time.
    pub fn from_cycles(cycles: u64, hz: u64) -> Time {
        assert!(hz > 0, "clock frequency must be nonzero");
        // cycles / hz seconds = cycles * 1e12 / hz ps, computed in u128
        // to avoid overflow for large cycle counts.
        let ps = (cycles as u128 * 1_000_000_000_000u128).div_ceil(hz as u128);
        Time(ps.min(u64::MAX as u128) as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Milliseconds as a float.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, other: Time) -> Option<Time> {
        self.0.checked_add(other.0).map(Time)
    }

    /// True if this is `Time::ZERO`.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The later of two times.
    pub(crate) fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub(crate) fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Multiplies a duration by a float factor, rounding to the nearest
    /// picosecond and saturating at the representable range.
    pub fn scale(self, factor: f64) -> Time {
        Time::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Time) -> f64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// Converts a byte count and a bandwidth in bytes/second into a duration,
/// rounding up to a whole picosecond.
///
/// ```
/// use dmx_sim::time::transfer_time;
/// // 1 MiB over ~25 GB/s DDR4 channel: ~41.9 us
/// let t = transfer_time(1 << 20, 25_000_000_000);
/// assert!((t.as_us_f64() - 41.94).abs() < 0.1);
/// ```
pub fn transfer_time(bytes: u64, bytes_per_sec: u64) -> Time {
    assert!(bytes_per_sec > 0, "bandwidth must be nonzero");
    let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_sec as u128);
    Time::from_ps(ps.min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
    }

    #[test]
    fn cycles_at_known_clocks() {
        // 1 cycle @ 250 MHz = 4 ns
        assert_eq!(Time::from_cycles(1, 250_000_000), Time::from_ns(4));
        // 1 cycle @ 1 GHz = 1 ns
        assert_eq!(Time::from_cycles(1, 1_000_000_000), Time::from_ns(1));
        // 1000 cycles @ 2.4 GHz = 416.67 ns, rounded up in ps
        let t = Time::from_cycles(1000, 2_400_000_000);
        assert_eq!(t.as_ps(), 416_667);
    }

    #[test]
    fn cycles_round_up_never_zero() {
        assert!(Time::from_cycles(1, u64::MAX / 2).as_ps() >= 1);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(3);
        assert_eq!(a + b, Time::from_ns(13));
        assert_eq!(a - b, Time::from_ns(7));
        assert_eq!(a * 2, Time::from_ns(20));
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_secs_f64(0.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(1e-12), Time::from_ps(1));
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 bytes/sec: 1/3 s -> 333333333334 ps (ceil)
        let t = transfer_time(1, 3);
        assert_eq!(t.as_ps(), 333_333_333_334);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_ps(5).to_string(), "5ps");
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000us");
        assert_eq!(Time::from_ms(5).to_string(), "5.000ms");
        assert_eq!(Time::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn ratio_and_scale() {
        let a = Time::from_ns(100);
        assert!((a.ratio(Time::from_ns(50)) - 2.0).abs() < 1e-12);
        assert_eq!(a.scale(0.5), Time::from_ns(50));
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }
}
