//! Every calibration constant of the system model, with its anchor in
//! the paper. Everything tunable lives here so the experiment suite is
//! auditable: change a number, rerun `repro all`, compare EXPERIMENTS.md.

use dmx_pcie::{Gen, Lanes, LinkSpec};
use dmx_sim::Time;

/// PCIe link widths (Sec. VII.B: "The upstream port of the PCIe switch
/// connecting to the CPU uses a single link (8 lanes) while the
/// downstream ports connecting to accelerators use multiple links";
/// Sec. VI: accelerators attach via x16).
pub(crate) fn upstream_link(gen: Gen) -> LinkSpec {
    LinkSpec::new(gen, Lanes::X8)
}

/// Downstream (device) link.
pub(crate) fn downstream_link(gen: Gen) -> LinkSpec {
    LinkSpec::new(gen, Lanes::X16)
}

/// Newer-generation hosts also expose more root-port lanes, so the
/// Fig. 19 sweep widens the baseline's upstream pipe: "the baselines
/// are able to use more PCIe lanes to reduce bandwidth contention from
/// accelerators to CPUs with PCIe Gen 4 and Gen 5".
pub(crate) fn upstream_links_for_gen(gen: Gen) -> u32 {
    match gen {
        Gen::Gen3 => 1,
        Gen::Gen4 => 2,
        Gen::Gen5 => 2,
    }
}

/// Devices per PCIe switch; beyond this the server adds switches and
/// cross-switch traffic pays extra hops (the Fig. 17 dip at >=16
/// accelerators).
pub const SWITCH_PORTS: usize = 16;

/// Driver-path costs (Sec. V: interrupt mode with coalescing, NAPI-like
/// switch to polling under bursty arrivals).
#[derive(Debug, Clone, Copy)]
pub struct DriverParams {
    /// Host-side work to take an interrupt and run the handler,
    /// single-core seconds.
    pub irq_cpu_seconds: f64,
    /// Host-side work per event once in polling mode.
    pub poll_cpu_seconds: f64,
    /// Mean inter-arrival below which the driver flips to polling.
    pub polling_threshold: Time,
    /// Fixed hardware->host signalling latency for an interrupt.
    pub irq_latency: Time,
    /// Latency for a polled completion to be noticed.
    pub poll_latency: Time,
    /// Host-side work to program a (p2p) DMA descriptor.
    pub dma_setup_cpu_seconds: f64,
}

impl Default for DriverParams {
    fn default() -> Self {
        DriverParams {
            irq_cpu_seconds: 6e-6,
            poll_cpu_seconds: 1.5e-6,
            polling_threshold: Time::from_us(30),
            irq_latency: Time::from_us(4),
            poll_latency: Time::from_us(1),
            dma_setup_cpu_seconds: 3e-6,
        }
    }
}

/// Retry/timeout/backoff policy of the recovery layer (fault
/// injection). Anchored to real driver stacks: NVMe-style command
/// timeouts are tens of microseconds at device speed before software
/// escalates, and exponential backoff doubles from a microsecond-scale
/// base up to a hard cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryParams {
    /// How long the host waits on an outstanding DRX command before
    /// declaring it stalled and retrying.
    pub command_timeout: Time,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Time,
    /// Backoff ceiling.
    pub backoff_max: Time,
    /// Retries before the command is abandoned and its restructuring
    /// falls back to the host CPU.
    pub max_retries: u32,
    /// How long the driver's watchdog waits for a missing completion
    /// interrupt before it recovers the event by polling the queue.
    pub watchdog_timeout: Time,
}

impl RecoveryParams {
    /// Backoff before retry `attempt` (0-based): `base * 2^attempt`,
    /// capped at `backoff_max`.
    pub(crate) fn backoff(&self, attempt: u32) -> Time {
        let factor = 1u64 << attempt.min(62);
        let doubled = Time::from_ps(self.backoff_base.as_ps().saturating_mul(factor));
        doubled.min(self.backoff_max)
    }
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            command_timeout: Time::from_us(100),
            backoff_base: Time::from_us(10),
            backoff_max: Time::from_ms(1),
            max_retries: 4,
            watchdog_timeout: Time::from_us(50),
        }
    }
}

/// Relative restructuring capability of the DRX variants, in units of
/// one bump-in-the-wire DRX (Sec. III):
#[derive(Debug, Clone, Copy)]
pub struct DrxFleetParams {
    /// The CPU-integrated DRX is one engine (slightly beefier than a
    /// bump-in-the-wire unit thanks to the host memory system) serving
    /// every app — which is exactly why it stops scaling (Fig. 14).
    pub integrated_units: f64,
    /// A standalone PCIe card is capped at the 25 W slot budget, so a
    /// single card is slightly slower than a bump-in-the-wire unit.
    pub standalone_slowdown: f64,
    /// A PCIe-switch-integrated DRX must run at the aggregated port
    /// rate; per-switch capability in bump-in-the-wire units.
    pub pcie_integrated_units: f64,
}

impl Default for DrxFleetParams {
    fn default() -> Self {
        DrxFleetParams {
            integrated_units: 1.5,
            standalone_slowdown: 1.25,
            pcie_integrated_units: 8.0,
        }
    }
}

/// How many requests the latency experiments run per application
/// (closed loop, one outstanding request per app).
pub const LATENCY_REQUESTS: usize = 8;

/// Requests and pipeline depth for the throughput experiments
/// (Sec. VII.A assumes "continuous arrival of requests").
pub const THROUGHPUT_REQUESTS: usize = 24;

/// In-flight requests per app in throughput mode.
pub const THROUGHPUT_INFLIGHT: usize = 4;

/// Concurrent-application sweep used across the evaluation
/// ("1, 5, 10, to 15 concurrent running applications", Sec. VI).
pub const APP_COUNTS: [usize; 4] = [1, 5, 10, 15];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upstream_narrower_than_downstream() {
        let up = upstream_link(Gen::Gen3);
        let down = downstream_link(Gen::Gen3);
        assert!(up.bytes_per_sec() < down.bytes_per_sec());
    }

    #[test]
    fn polling_cheaper_than_interrupts() {
        let d = DriverParams::default();
        assert!(d.poll_cpu_seconds < d.irq_cpu_seconds);
        assert!(d.poll_latency < d.irq_latency);
    }

    #[test]
    fn newer_gens_add_upstream_links() {
        assert!(upstream_links_for_gen(Gen::Gen4) > upstream_links_for_gen(Gen::Gen3));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let r = RecoveryParams::default();
        assert_eq!(r.backoff(0), r.backoff_base);
        assert_eq!(r.backoff(1), r.backoff_base * 2);
        assert_eq!(r.backoff(2), r.backoff_base * 4);
        assert_eq!(r.backoff(30), r.backoff_max);
        // Huge attempt counts must not overflow.
        assert_eq!(r.backoff(u32::MAX), r.backoff_max);
    }

    #[test]
    fn fleet_params_ordering() {
        let f = DrxFleetParams::default();
        assert!(f.integrated_units > 1.0);
        assert!(f.standalone_slowdown >= 1.0);
        assert!(f.pcie_integrated_units >= f.integrated_units);
    }
}
