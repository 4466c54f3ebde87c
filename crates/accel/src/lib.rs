//! # dmx-accel — accelerator catalog
//!
//! Models of the ten Table I application-kernel accelerators:
//! [`catalog`] holds the latency/throughput/energy models (calibrated
//! to the paper's FPGA setup: 250 MHz, 6.5x geomean speedup over CPU),
//! and [`functional`] binds each kind to the real algorithm from
//! `dmx-kernels` so example pipelines process genuine data.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod functional;

pub use catalog::{catalog_speedup_geomean, AccelKind, AccelModel};
pub use functional::{
    AesAccel, FftAccel, Functional, GzipAccel, JoinAccel, NerAccel, RegexAccel, VideoAccel,
};
