//! DRX energy model.
//!
//! The paper synthesizes DRX with FreePDK 15nm (ASIC, 1 GHz) and on a
//! VU9P FPGA (250 MHz) and reports system-level energy including the
//! DRX, its DRAM, and — for the bump-in-the-wire placement — the
//! per-unit glue logic and dual-port PCIe multiplexer whose replication
//! is what lets the Standalone placement win energy efficiency at high
//! concurrency (Sec. VII.B). The model integrates per-event energies
//! from [`crate::machine::ExecStats`] plus static power over time.

use crate::config::{ClockDomain, DrxConfig};
use crate::machine::ExecStats;

/// Energy in joules (kept local to avoid a dependency cycle; the system
/// crate converts to its own accounting type).
pub type Joules = f64;

/// Per-event and static energy parameters of a DRX implementation.
#[derive(Debug, Clone, Copy)]
pub struct DrxEnergyModel {
    /// Energy per lane operation (one element through one RE), picojoules.
    pub pj_per_lane_op: f64,
    /// Energy per scratchpad byte moved, picojoules.
    pub pj_per_spad_byte: f64,
    /// Energy per DRAM byte moved (DDR4 interface + array), picojoules.
    pub pj_per_dram_byte: f64,
    /// Static/leakage power of the DRX core, watts.
    pub static_watts: f64,
    /// Static power of the bump-in-the-wire glue (dual-port PCIe mux);
    /// charged only when the deployment replicates it per accelerator.
    pub glue_watts: f64,
}

impl DrxEnergyModel {
    /// Parameters for a clock domain.
    ///
    /// ASIC (15 nm): ~1 pJ per 32-bit lane op, ~0.3 pJ/B scratchpad,
    /// ~20 pJ/B DDR4, 0.5 W leakage. The FPGA implementation of the
    /// same datapath is roughly an order of magnitude less efficient
    /// per op and leaks more.
    pub fn for_clock(clock: ClockDomain) -> DrxEnergyModel {
        match clock {
            ClockDomain::Asic1GHz => DrxEnergyModel {
                pj_per_lane_op: 1.0,
                pj_per_spad_byte: 0.3,
                pj_per_dram_byte: 20.0,
                static_watts: 0.5,
                glue_watts: 1.2,
            },
            ClockDomain::Fpga250MHz => DrxEnergyModel {
                pj_per_lane_op: 10.0,
                pj_per_spad_byte: 1.5,
                pj_per_dram_byte: 20.0,
                static_watts: 3.0,
                glue_watts: 2.0,
            },
        }
    }

    /// Dynamic energy of one program run.
    pub fn dynamic_energy(&self, stats: &ExecStats) -> Joules {
        (stats.lane_ops as f64 * self.pj_per_lane_op
            + stats.spad_bytes as f64 * self.pj_per_spad_byte
            + stats.dram_bytes as f64 * self.pj_per_dram_byte)
            * 1e-12
    }

    /// Average power while restructuring at full tilt on `config`
    /// (used by system-level sanity checks; a 128-lane ASIC DRX lands
    /// in the handful-of-watts range, far below a Xeon socket).
    pub fn active_watts(&self, config: &DrxConfig) -> f64 {
        // lanes * pJ/op * ops/s + DRAM stream power + static
        let hz = config.clock.hz() as f64;
        let lane_power = config.lanes as f64 * self.pj_per_lane_op * 1e-12 * hz;
        let dram_power = config.dram.bytes_per_sec() as f64 * self.pj_per_dram_byte * 1e-12;
        lane_power + dram_power + self.static_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asic_cheaper_than_fpga_per_op() {
        let a = DrxEnergyModel::for_clock(ClockDomain::Asic1GHz);
        let f = DrxEnergyModel::for_clock(ClockDomain::Fpga250MHz);
        assert!(a.pj_per_lane_op < f.pj_per_lane_op);
        assert!(a.static_watts < f.static_watts);
    }

    #[test]
    fn dynamic_energy_scales_with_work() {
        let m = DrxEnergyModel::for_clock(ClockDomain::Asic1GHz);
        let s1 = ExecStats {
            lane_ops: 1_000_000,
            dram_bytes: 1_000_000,
            ..ExecStats::default()
        };
        let mut s2 = s1.clone();
        s2.lane_ops *= 2;
        s2.dram_bytes *= 2;
        let e1 = m.dynamic_energy(&s1);
        let e2 = m.dynamic_energy(&s2);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn active_power_is_modest() {
        let m = DrxEnergyModel::for_clock(ClockDomain::Asic1GHz);
        let w = m.active_watts(&DrxConfig::default());
        // 128 lanes at 1 pJ/op/GHz ~ 0.128 W, DDR4 stream ~ 0.5 W.
        assert!(w > 0.5 && w < 10.0, "active power {w} W out of range");
    }
}
