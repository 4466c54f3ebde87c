//! DRX hardware configuration (the compiler's "architecture
//! configuration file" from Sec. IV.B).

/// Clock domain of a DRX implementation.
///
/// The paper synthesizes DRX both on a Xilinx VU9P FPGA (250 MHz) and as
/// a FreePDK-15nm ASIC (1 GHz); system experiments use the ASIC clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// FPGA synthesis at 250 MHz.
    Fpga250MHz,
    /// ASIC synthesis at 1 GHz.
    Asic1GHz,
}

impl ClockDomain {
    /// Clock frequency in hertz.
    pub(crate) fn hz(self) -> u64 {
        match self {
            ClockDomain::Fpga250MHz => 250_000_000,
            ClockDomain::Asic1GHz => 1_000_000_000,
        }
    }
}

/// Off-chip DRAM attached to a DRX.
///
/// The paper provisions one DDR4-3200 channel (~25 GB/s) per DRX to
/// match an x8 PCIe Gen 4 link (Sec. IV.B), and 8 GB of capacity for the
/// RX/TX data queues (Sec. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of DDR4 channels.
    pub channels: u32,
    /// Sustained bandwidth per channel, bytes/second.
    pub channel_bytes_per_sec: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 1,
            channel_bytes_per_sec: 25_000_000_000,
            capacity_bytes: 8 << 30,
        }
    }
}

impl DramConfig {
    /// Aggregate bandwidth across channels, bytes/second.
    pub(crate) fn bytes_per_sec(&self) -> u64 {
        self.channel_bytes_per_sec * self.channels as u64
    }
}

/// Full DRX configuration.
///
/// Defaults follow the paper's evaluated design point: 128 RE lanes,
/// 64 KB instruction cache, 64 KB data scratchpad, one DDR4-3200
/// channel, ASIC clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DrxConfig {
    /// Number of Restructuring Engine (RE) vector lanes.
    pub lanes: u32,
    /// On-chip software-managed scratchpad size in bytes.
    pub scratchpad_bytes: u64,
    /// Instruction cache size in bytes; programs must fit entirely
    /// (Sec. IV.A found tiny instruction working sets).
    pub icache_bytes: u64,
    /// Clock domain.
    pub clock: ClockDomain,
    /// Off-chip DRAM.
    pub dram: DramConfig,
}

impl Default for DrxConfig {
    fn default() -> Self {
        DrxConfig {
            lanes: 128,
            scratchpad_bytes: 64 << 10,
            icache_bytes: 64 << 10,
            clock: ClockDomain::Asic1GHz,
            dram: DramConfig::default(),
        }
    }
}

impl DrxConfig {
    /// The paper's FPGA prototype configuration.
    pub fn fpga() -> DrxConfig {
        DrxConfig {
            clock: ClockDomain::Fpga250MHz,
            ..DrxConfig::default()
        }
    }

    /// The default configuration with a different lane count
    /// (the Fig. 18 sensitivity sweep uses 32–256 lanes).
    pub fn with_lanes(self, lanes: u32) -> DrxConfig {
        DrxConfig { lanes, ..self }
    }

    /// Same configuration with a different scratchpad size.
    pub fn with_scratchpad(self, scratchpad_bytes: u64) -> DrxConfig {
        DrxConfig {
            scratchpad_bytes,
            ..self
        }
    }

    /// DRAM bytes the off-chip data access engine can move per DRX cycle.
    pub(crate) fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram.bytes_per_sec() as f64 / self.clock.hz() as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.lanes == 0 || !self.lanes.is_power_of_two() {
            return Err(format!(
                "lane count must be a power of two, got {}",
                self.lanes
            ));
        }
        if self.scratchpad_bytes < 1024 {
            return Err("scratchpad must be at least 1 KiB".to_owned());
        }
        if self.icache_bytes < 256 {
            return Err("instruction cache must be at least 256 B".to_owned());
        }
        if self.dram.channels == 0 {
            return Err("DRAM must have at least one channel".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let c = DrxConfig::default();
        assert_eq!(c.lanes, 128);
        assert_eq!(c.scratchpad_bytes, 64 << 10);
        assert_eq!(c.icache_bytes, 64 << 10);
        assert_eq!(c.clock.hz(), 1_000_000_000);
        assert_eq!(c.dram.bytes_per_sec(), 25_000_000_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fpga_clock() {
        assert_eq!(DrxConfig::fpga().clock.hz(), 250_000_000);
    }

    #[test]
    fn dram_bytes_per_cycle() {
        let c = DrxConfig::default();
        assert!((c.dram_bytes_per_cycle() - 25.0).abs() < 1e-9);
        let f = DrxConfig::fpga();
        assert!((f.dram_bytes_per_cycle() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(DrxConfig::default().with_lanes(0).validate().is_err());
        assert!(DrxConfig::default().with_lanes(96).validate().is_err());
        let c = DrxConfig::default().with_scratchpad(100);
        assert!(c.validate().is_err());
        let mut c = DrxConfig::default();
        c.dram.channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn lane_sweep_points_are_valid() {
        for lanes in [32, 64, 128, 256] {
            assert!(DrxConfig::default().with_lanes(lanes).validate().is_ok());
        }
    }
}
