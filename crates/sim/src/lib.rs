//! # dmx-sim — deterministic discrete-event simulation engine
//!
//! The timing substrate for the DMX full-system simulator: an integer
//! picosecond clock, a stable event queue, queuing resources (FIFO server
//! banks and capped processor-sharing pools), and measurement utilities.
//!
//! The engine is deliberately *passive*: it owns time and ordering, while
//! the system model (in `dmx-core`) owns all semantics. This keeps every
//! piece independently testable and the whole simulation reproducible.
//!
//! ## Example
//!
//! A two-stage pipeline where jobs queue on a single server and then a
//! two-wide server bank:
//!
//! ```
//! use dmx_sim::{EventQueue, FifoServer, Time};
//!
//! #[derive(Debug)]
//! enum Ev { StageOneDone(u32), StageTwoDone(u32) }
//!
//! let mut q = EventQueue::new();
//! let mut s1 = FifoServer::new(1);
//! let mut s2 = FifoServer::new(2);
//! for job in 0..4 {
//!     let done = s1.submit(Time::ZERO, Time::from_us(10));
//!     q.schedule_at(done, Ev::StageOneDone(job));
//! }
//! let mut completed = Vec::new();
//! while let Some(ev) = q.pop() {
//!     match ev {
//!         Ev::StageOneDone(job) => {
//!             let done = s2.submit(q.now(), Time::from_us(30));
//!             q.schedule_at(done, Ev::StageTwoDone(job));
//!         }
//!         Ev::StageTwoDone(job) => completed.push((job, q.now())),
//!     }
//! }
//! assert_eq!(completed.len(), 4);
//! // Jobs enter stage two at 10, 20, 30, 40us; with two 30us servers the
//! // four completions land at 40, 50, 70, 80us.
//! assert_eq!(completed.last().unwrap().1, Time::from_us(80));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod fastmap;
pub mod fault;
pub mod health;
pub mod idmap;
pub mod par;
pub mod partition;
pub mod queue;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;
pub mod workload;

pub use check::{cases, run_cases, Gen};
pub use fastmap::{FastHasher, FastMap, FastSet};
pub use fault::{
    CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, DutyCycle, FaultConfig, FaultPlan,
    SdcConfig, SdcDomain,
};
pub use idmap::IdMap;
pub use par::{par_map, par_map_with};
pub use partition::{run_conservative, Outbox, Partition, WindowStats, XMsg};
pub use queue::{
    events_delivered, record_setup_nanos, set_default_stall_limit, setup_nanos, EventQueue,
};
pub use resources::{water_fill, FifoServer, PsJobId, PsPool};
pub use rng::SplitMix64;
pub use stats::{geomean, Percentiles, Summary, TimeWeighted};
pub use time::{transfer_time, Time};
pub use workload::{ArrivalGen, ArrivalProcess, BoundedQueue};
