//! PCIe generations, lane widths, and effective link bandwidth.

use dmx_sim::{transfer_time, Time};
use std::fmt;

/// PCIe generation (the paper evaluates Gen 3 through Gen 5 in Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gen {
    /// PCIe 3.x: 8 GT/s, 128b/130b encoding.
    Gen3,
    /// PCIe 4.x: 16 GT/s, 128b/130b encoding.
    Gen4,
    /// PCIe 5.x: 32 GT/s, 128b/130b encoding.
    Gen5,
}

impl Gen {
    /// All generations, oldest first.
    pub const ALL: [Gen; 3] = [Gen::Gen3, Gen::Gen4, Gen::Gen5];

    /// Effective data bandwidth of one lane in bytes per second,
    /// after 128b/130b line coding (the usual “~1 GB/s per Gen3 lane”
    /// figure): 8 GT/s x 128/130 / 8 bits = 984.6 MB/s.
    pub fn lane_bytes_per_sec(self) -> u64 {
        match self {
            Gen::Gen3 => 984_615_384,
            Gen::Gen4 => 1_969_230_769,
            Gen::Gen5 => 3_938_461_538,
        }
    }
}

impl fmt::Display for Gen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gen::Gen3 => write!(f, "Gen3"),
            Gen::Gen4 => write!(f, "Gen4"),
            Gen::Gen5 => write!(f, "Gen5"),
        }
    }
}

/// A link width (number of lanes): x1, x2, x4, x8, or x16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lanes(u8);

impl Lanes {
    /// One lane.
    pub const X1: Lanes = Lanes(1);
    /// Two lanes.
    pub const X2: Lanes = Lanes(2);
    /// Four lanes.
    pub const X4: Lanes = Lanes(4);
    /// Eight lanes — the paper's switch upstream port width.
    pub const X8: Lanes = Lanes(8);
    /// Sixteen lanes — the paper's accelerator downstream link width.
    pub const X16: Lanes = Lanes(16);

    /// Creates a width; must be a power of two between 1 and 16.
    ///
    /// # Errors
    ///
    /// Returns an error message for invalid widths.
    pub fn new(lanes: u8) -> Result<Lanes, InvalidLanes> {
        match lanes {
            1 | 2 | 4 | 8 | 16 => Ok(Lanes(lanes)),
            other => Err(InvalidLanes(other)),
        }
    }

    /// Number of lanes.
    pub fn count(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Lanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Error returned by [`Lanes::new`] for widths PCIe does not define.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLanes(pub u8);

impl fmt::Display for InvalidLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PCIe lane count: {}", self.0)
    }
}

impl std::error::Error for InvalidLanes {}

/// A PCIe link: a generation plus a width.
///
/// ```
/// use dmx_pcie::{Gen, Lanes, LinkSpec};
/// let l = LinkSpec::new(Gen::Gen4, Lanes::X8);
/// // x8 Gen4 ~ 15.75 GB/s, which the paper matches to one DDR4-3200 channel
/// assert!((l.bytes_per_sec() as f64 / 1e9 - 15.75).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    gen: Gen,
    lanes: Lanes,
}

impl LinkSpec {
    /// Creates a link of the given generation and width.
    pub fn new(gen: Gen, lanes: Lanes) -> LinkSpec {
        LinkSpec { gen, lanes }
    }

    /// The link's generation.
    pub fn gen(self) -> Gen {
        self.gen
    }

    /// The link's width.
    pub fn lanes(self) -> Lanes {
        self.lanes
    }

    /// Effective unidirectional data bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> u64 {
        self.gen.lane_bytes_per_sec() * self.lanes.count() as u64
    }

    /// Time to move `bytes` over this link at full rate, ignoring
    /// contention (used for lower bounds and tests).
    pub fn serial_transfer_time(self, bytes: u64) -> Time {
        transfer_time(bytes, self.bytes_per_sec())
    }
}

impl fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.gen, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_bandwidth_doubles() {
        assert_eq!(
            Gen::Gen4.lane_bytes_per_sec() / Gen::Gen3.lane_bytes_per_sec(),
            2
        );
        assert_eq!(
            Gen::Gen5.lane_bytes_per_sec() / Gen::Gen4.lane_bytes_per_sec(),
            2
        );
    }

    #[test]
    fn gen3_lane_is_about_one_gbps() {
        let b = Gen::Gen3.lane_bytes_per_sec() as f64;
        assert!((b / 1e9 - 0.9846).abs() < 0.001);
    }

    #[test]
    fn lanes_validation() {
        assert!(Lanes::new(8).is_ok());
        assert_eq!(Lanes::new(3), Err(InvalidLanes(3)));
        assert_eq!(Lanes::new(0), Err(InvalidLanes(0)));
        assert_eq!(Lanes::new(32), Err(InvalidLanes(32)));
        assert_eq!(InvalidLanes(3).to_string(), "invalid PCIe lane count: 3");
    }

    #[test]
    fn x16_gen3_bandwidth() {
        let l = LinkSpec::new(Gen::Gen3, Lanes::X16);
        assert!((l.bytes_per_sec() as f64 / 1e9 - 15.75).abs() < 0.1);
    }

    #[test]
    fn transfer_time_scales_inversely_with_gen() {
        let bytes = 8 << 20;
        let t3 = LinkSpec::new(Gen::Gen3, Lanes::X8).serial_transfer_time(bytes);
        let t5 = LinkSpec::new(Gen::Gen5, Lanes::X8).serial_transfer_time(bytes);
        let ratio = t3.as_ps() as f64 / t5.as_ps() as f64;
        assert!((ratio - 4.0).abs() < 0.01);
    }

    #[test]
    fn display_formats() {
        let l = LinkSpec::new(Gen::Gen5, Lanes::X4);
        assert_eq!(l.to_string(), "Gen5 x4");
    }
}
