//! DRX energy model.
//!
//! The paper synthesizes DRX with FreePDK 15nm (ASIC, 1 GHz) and on a
//! VU9P FPGA (250 MHz) and reports system-level energy including the
//! DRX, its DRAM, and — for the bump-in-the-wire placement — the
//! per-unit glue logic and dual-port PCIe multiplexer whose replication
//! is what lets the Standalone placement win energy efficiency at high
//! concurrency (Sec. VII.B). The system charges per-event energies
//! (lane operations, scratchpad and DRAM bytes) plus static power over
//! time.

use crate::config::ClockDomain;

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
}
