//! # dmx-core — Data Motion Acceleration, end to end
//!
//! A full-system reproduction of *"Data Motion Acceleration: Chaining
//! Cross-Domain Multi Accelerators"* (HPCA 2024). DMX accelerates the
//! *data motion* — restructuring plus movement — between chained
//! heterogeneous accelerators by pairing them with programmable Data
//! Restructuring Accelerators (DRXs) so the host CPU leaves the data
//! path.
//!
//! This crate composes the substrates into one deterministic simulator:
//!
//! * [`apps`] — the five Table I benchmarks (plus the Fig. 16
//!   three-kernel chain), with DRX costs *measured* by compiling and
//!   executing the real restructuring kernels on the `dmx-drx`
//!   functional simulator;
//! * [`placement`] — the four DRX placements of Fig. 4 and the PCIe
//!   server layouts they induce;
//! * [`system`] — the discrete-event server model (CPU core pool, PCIe
//!   flows, accelerator chains, driver stack, energy);
//! * [`collectives`] — broadcast / all-reduce (Fig. 17);
//! * [`experiments`] — one runner per table/figure of the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use dmx_core::apps::BenchmarkId;
//! use dmx_core::placement::{Mode, Placement};
//! use dmx_core::system::{simulate, SystemConfig};
//!
//! let app = BenchmarkId::SoundDetection.build();
//! let base = simulate(&SystemConfig::latency(Mode::MultiAxl, vec![app.clone()]));
//! let dmx = simulate(&SystemConfig::latency(
//!     Mode::Dmx(Placement::BumpInTheWire),
//!     vec![app],
//! ));
//! let speedup = base.mean_latency().as_secs_f64() / dmx.mean_latency().as_secs_f64();
//! assert!(speedup > 1.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod collectives;
pub mod driver;
pub mod experiments;
pub mod fleet;
pub mod params;
pub mod placement;
pub mod report;
pub mod system;

/// Fail-slow detection and mitigation, re-exported from
/// [`system::failslow`], where the layer's policy and simulator code
/// live. Tests of its public API run here.
pub mod failslow {
    pub use crate::system::failslow::*;
    #[cfg(test)]
    mod tests;
}

/// End-to-end integrity, re-exported from [`system::integrity`], where
/// the layer's policy and simulator code live. Tests of its public API
/// run here.
pub mod integrity {
    pub use crate::system::integrity::*;
    #[cfg(test)]
    mod tests;
}

/// Overload control, re-exported from [`system::overload`], where the
/// layer's policy and simulator code live. Tests of its public API run
/// here.
pub mod overload {
    pub use crate::system::overload::*;
    #[cfg(test)]
    mod tests;
}

pub use apps::{Benchmark, BenchmarkId, BenchmarkRef};
pub use failslow::{FailSlowConfig, FailSlowReport, HealthParams, HealthScorer};
pub use fleet::{
    run_fleet, try_run_fleet, ClassPolicy, ClassTotals, FailoverConfig, FailoverReport,
    FleetConfig, FleetFaultPlan, FleetResult, LbHealthParams, LbPolicy, RequestClass, ServerGray,
    ServerKill, ServerOutage,
};
pub use integrity::{ChecksumMode, IntegrityConfig, IntegrityReport};
pub use overload::{
    AdmissionParams, Breaker, BreakerParams, OverloadConfig, OverloadReport, ShedPolicy,
    TenantOverload, TokenBucket,
};
pub use placement::{Mode, Placement};
pub use system::{
    simulate, Breakdown, CrashReport, EnergyReport, Outcome, Resolution, RunResult, Stepped,
    SystemConfig,
};
