//! The DMX full-system simulator.
//!
//! Composes the substrates into one deterministic discrete-event model
//! of a multi-accelerator server: host CPU (processor-sharing core
//! pool), PCIe fabric (max-min fair flows), per-app accelerator chains,
//! the DRX fleet of the selected placement, and the driver stack.
//!
//! A request walks its benchmark's chain: kernel on accelerator →
//! completion notification (driver, on the CPU) → DMA to the
//! restructuring engine → restructure → notification + p2p DMA setup →
//! DMA to the next accelerator → next kernel (Fig. 10's step sequence).
//! The Multi-Axl baseline routes both DMAs through host memory and
//! restructures on host cores (Sec. II's S1–S4); All-CPU runs even the
//! kernels on cores (Fig. 3).
//!
//! This module holds the chain walk, its resources and the fault
//! layer's recoveries (replays, stalls, lost completions, unit deaths).
//! Each other robustness layer is one child module holding its policy,
//! its live state and its simulator code: [`overload`], [`integrity`],
//! [`failslow`] and the crash-stop layer (`crash`).

mod crash;
pub mod failslow;
pub mod integrity;
pub mod overload;

pub use crash::CrashReport;

use crate::apps::BenchmarkRef;
use crate::driver::DriverState;
use crate::params::{
    DriverParams, DrxFleetParams, RecoveryParams, LATENCY_REQUESTS, THROUGHPUT_INFLIGHT,
    THROUGHPUT_REQUESTS,
};
use crate::placement::{build_layout, Engine, Mode, Placement, ServerLayout};
use dmx_cpu::{CpuEnergyModel, HostCpuConfig};
use dmx_drx::{DrxConfig, DrxEnergyModel};
use dmx_pcie::{
    transfer_faults, FabricError, FlowNet, Gen, LinkId, NodeId, PcieEnergyModel, ReplayParams,
};
use dmx_sim::health::Route;
use dmx_sim::{
    CrashEvent, DegradeEvent, DegradeTarget, EventQueue, FastMap, FastSet, FaultConfig, FaultPlan,
    FifoServer, IdMap, PsPool, SdcDomain, Time,
};
use failslow::{FailSlowConfig, FailSlowReport, HealthScorer};
use integrity::{IntegrityConfig, IntegrityReport};
use overload::{OvState, OverloadConfig, OverloadReport, TenantOverload};
use std::fmt;

/// Cores one All-CPU kernel can use (vendor kernels are threaded).
const KERNEL_CAP: f64 = 4.0;

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Execution mode.
    pub mode: Mode,
    /// One entry per concurrent application.
    pub apps: Vec<BenchmarkRef>,
    /// PCIe generation of every link.
    pub gen: Gen,
    /// DRX hardware configuration (lanes etc.).
    pub drx: DrxConfig,
    /// Host CPU model.
    pub cpu: HostCpuConfig,
    /// Driver-path costs.
    pub driver: DriverParams,
    /// Relative capability of the DRX placements.
    pub fleet: DrxFleetParams,
    /// Requests each app processes.
    pub requests_per_app: usize,
    /// Requests each app keeps in flight (1 = pure latency mode).
    pub inflight_per_app: usize,
    /// Pin the driver to one notification mode (None = adaptive NAPI).
    pub forced_driver: Option<crate::driver::NotifyMode>,
    /// Capacity of one DRX RX/TX data queue (Sec. V provisions 100 MB
    /// per queue pair). Batches larger than a queue are handed over in
    /// segments, each paying a driver handshake.
    pub queue_bytes: u64,
    /// Deterministic fault injection. `None` disables the fault layer
    /// entirely; an inert config (`FaultConfig::none()`) must produce
    /// results identical to `None`.
    pub faults: Option<FaultConfig>,
    /// PCIe chunk-replay / link-retrain behavior under bit errors.
    pub replay: ReplayParams,
    /// Retry/timeout/backoff policy of the recovery layer.
    pub recovery: RecoveryParams,
    /// Overload control: open-loop arrivals, admission, deadlines, load
    /// shedding, circuit breaking, ingress backpressure. `None` disables
    /// the layer entirely; an inert config (`OverloadConfig::none()`)
    /// must produce results identical to `None`.
    pub overload: Option<OverloadConfig>,
    /// End-to-end integrity: chain-boundary checksums, poison
    /// tracking, quarantine, and re-execution against silent data
    /// corruption. `None` disables the layer entirely; an inert config
    /// (`IntegrityConfig::none()`) must produce results identical to
    /// `None`. SDC *injection* is part of the fault layer
    /// ([`FaultConfig`]'s `sdc` rates) and never perturbs timing — only
    /// this layer's checks and recoveries do.
    pub integrity: Option<IntegrityConfig>,
    /// Fail-slow (gray failure) detection and mitigation: per-device
    /// health scoring against a fleet baseline, demotion of suspected
    /// devices out of placement, and speculative hedged duplicates for
    /// requests stuck past a threshold. `None` disables the layer
    /// entirely; an inert config (`FailSlowConfig::none()`) must
    /// produce results identical to `None`. Degrade *injection* is part
    /// of the fault layer ([`FaultConfig`]'s `degrades`) and slows
    /// devices/links whether or not this layer watches for it.
    pub failslow: Option<FailSlowConfig>,
}

impl SystemConfig {
    /// Latency-mode config (one request in flight per app).
    pub fn latency(mode: Mode, apps: Vec<BenchmarkRef>) -> SystemConfig {
        SystemConfig {
            mode,
            apps,
            gen: Gen::Gen3,
            drx: DrxConfig::default(),
            cpu: HostCpuConfig::default(),
            driver: DriverParams::default(),
            fleet: DrxFleetParams::default(),
            requests_per_app: LATENCY_REQUESTS,
            inflight_per_app: 1,
            forced_driver: None,
            queue_bytes: 100 << 20,
            faults: None,
            replay: ReplayParams::default(),
            recovery: RecoveryParams::default(),
            overload: None,
            integrity: None,
            failslow: None,
        }
    }

    /// Throughput-mode config (pipelined requests per app).
    pub fn throughput(mode: Mode, apps: Vec<BenchmarkRef>) -> SystemConfig {
        SystemConfig {
            requests_per_app: THROUGHPUT_REQUESTS,
            inflight_per_app: THROUGHPUT_INFLIGHT,
            ..SystemConfig::latency(mode, apps)
        }
    }
}

/// Errors the simulator can report instead of panicking: invalid
/// configurations, internal bookkeeping inconsistencies on the request
/// walk, and fabric errors bubbled up from routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The config listed no applications.
    NoApps,
    /// `requests_per_app` was zero.
    NoRequests,
    /// `inflight_per_app` was zero.
    NoInflight,
    /// An event referenced a request id that is not live.
    UnknownRequest(u64),
    /// A finished job was not in the tracking map.
    UntrackedJob(u64),
    /// A routing or flow-network error from the PCIe fabric.
    Fabric(FabricError),
    /// A stepped (externally-driven) simulation needs a live overload
    /// section: the admission machinery is what accepts injections.
    NoOverload,
    /// The app at this index has no stages, not exactly one edge
    /// between each pair of consecutive stages, or more than 256 edges,
    /// the most a [`units::bitw`] id can number.
    MalformedApp(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoApps => write!(f, "at least one application required"),
            SimError::NoRequests => write!(f, "at least one request required"),
            SimError::NoInflight => write!(f, "at least one in-flight request required"),
            SimError::UnknownRequest(id) => write!(f, "event references unknown request {id}"),
            SimError::NoOverload => {
                write!(f, "stepped simulation requires a non-inert overload config")
            }
            SimError::UntrackedJob(id) => write!(f, "finished job {id} was never tracked"),
            SimError::Fabric(e) => write!(f, "fabric error: {e}"),
            SimError::MalformedApp(app) => write!(
                f,
                "app {app} needs at least one stage, one edge between consecutive stages \
                 and at most {MAX_EDGES} edges"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for SimError {
    fn from(e: FabricError) -> SimError {
        SimError::Fabric(e)
    }
}

/// Stable unit ids for [`FaultConfig::kills`] and
/// [`FaultConfig::death_mttf_secs`] draws. The fault layer only
/// interprets DRX units: a dead DRX reroutes its restructuring onto the
/// host-CPU (Multi-Axl) path while healthy apps continue.
pub mod units {
    /// The bump-in-the-wire DRX serving `(app, stage)`. The id packs
    /// `stage` into 8 bits, so it is unique only for `stage < 256`: an
    /// app with more edges is a
    /// [`SimError::MalformedApp`](super::SimError::MalformedApp).
    pub fn bitw(app: usize, stage: usize) -> u64 {
        0x0100_0000 + (app as u64) * 256 + stage as u64
    }

    /// The standalone DRX card of `app`.
    pub fn card(app: usize) -> u64 {
        0x0200_0000 + app as u64
    }

    /// A shared DRX pool: index 0 for the Integrated placement, the
    /// switch index for PCIe-Integrated.
    pub fn pool(index: usize) -> u64 {
        0x0300_0000 + index as u64
    }
}

/// The most edges one app may have: [`units::bitw`] packs the edge
/// index into 8 bits.
const MAX_EDGES: usize = 256;

/// What the fault-injection and recovery layer did during a run.
/// All-zero when the fault layer is disabled or inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// PCIe chunks that arrived corrupted and were retransmitted.
    pub chunk_replays: u64,
    /// Extra bytes the fabric carried for those retransmissions.
    pub replay_extra_bytes: u64,
    /// Link retrains triggered by error bursts.
    pub link_retrains: u64,
    /// Completion interrupts lost and recovered by the watchdog.
    pub lost_completions: u64,
    /// DRX command attempts that stalled past the command timeout.
    pub command_timeouts: u64,
    /// Retries issued after a timeout (with exponential backoff).
    pub retries: u64,
    /// DRX units that permanently died during the run.
    pub unit_deaths: u64,
    /// Restructuring batches rerouted onto the host-CPU fallback path
    /// (dead unit, or retries exhausted).
    pub rerouted_batches: u64,
    /// Wall time rerouted batches spent on the fallback path, including
    /// time wasted on the failed unit before rerouting.
    pub fallback_time: Time,
    /// Total duration of link-retrain degradation windows.
    pub degraded_link_time: Time,
}

impl FaultReport {
    /// True if any fault fired or any recovery action ran.
    pub fn any(&self) -> bool {
        *self != FaultReport::default()
    }
}

/// Where each request spent its time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// On accelerators (or CPU kernels in All-CPU mode).
    pub kernel: Time,
    /// Being restructured.
    pub restructure: Time,
    /// Moving: DMA transfers plus driver/notification handling.
    pub movement: Time,
}

impl Breakdown {
    /// Sum of the components.
    pub fn total(&self) -> Time {
        self.kernel + self.restructure + self.movement
    }
}

/// Per-application outcome.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Requests completed.
    pub completed: usize,
    /// Mean end-to-end latency.
    pub latency: Time,
    /// Mean per-request breakdown.
    pub breakdown: Breakdown,
    /// Median end-to-end latency.
    pub latency_p50: Time,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Time,
    /// Completed requests per second (throughput mode).
    pub throughput_rps: f64,
}

/// Energy by component (Sec. VI's energy evaluation).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyReport {
    /// Host CPU package energy (RAPL-style).
    pub cpu_j: f64,
    /// Accelerator cards.
    pub accel_j: f64,
    /// DRX units (dynamic + static + bump-in-the-wire glue).
    pub drx_j: f64,
    /// PCIe transfer + switch energy.
    pub pcie_j: f64,
}

impl EnergyReport {
    /// System total.
    pub fn total(&self) -> f64 {
        self.cpu_j + self.accel_j + self.drx_j + self.pcie_j
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-app results, in `SystemConfig::apps` order.
    pub apps: Vec<AppResult>,
    /// Time of the last completion.
    pub makespan: Time,
    /// Energy by component.
    pub energy: EnergyReport,
    /// (interrupts, polled) driver event counts.
    pub notify_counts: (u64, u64),
    /// Fault-injection and recovery accounting (all-zero without
    /// faults).
    pub faults: FaultReport,
    /// Overload-control accounting; `None` when the layer is disabled
    /// or inert.
    pub overload: Option<OverloadReport>,
    /// Silent-corruption and integrity accounting (all-zero without
    /// SDC faults and with the integrity layer off).
    pub integrity: IntegrityReport,
    /// Crash-stop accounting (all-zero without a crash schedule).
    pub crashes: CrashReport,
    /// Fail-slow (gray failure) accounting (all-zero without a degrade
    /// schedule and with the fail-slow layer off).
    pub failslow: FailSlowReport,
}

impl RunResult {
    /// Mean of per-app mean latencies.
    pub fn mean_latency(&self) -> Time {
        let sum: f64 = self.apps.iter().map(|a| a.latency.as_secs_f64()).sum();
        Time::from_secs_f64(sum / self.apps.len() as f64)
    }

    /// Aggregate throughput in requests/second.
    pub fn total_throughput(&self) -> f64 {
        self.apps.iter().map(|a| a.throughput_rps).sum()
    }

    /// Mean per-request breakdown across apps (for Fig. 3/12).
    pub fn mean_breakdown(&self) -> Breakdown {
        let n = self.apps.len() as u64;
        let mut b = Breakdown::default();
        for a in &self.apps {
            b.kernel += a.breakdown.kernel;
            b.restructure += a.breakdown.restructure;
            b.movement += a.breakdown.movement;
        }
        Breakdown {
            kernel: b.kernel / n,
            restructure: b.restructure / n,
            movement: b.movement / n,
        }
    }

    /// One merged robustness table covering every enabled layer —
    /// faults, overload, integrity, crash, fail-slow — as
    /// `layer / metric / value` rows, instead of five disjoint report
    /// blocks. Layers that are absent or never fired are skipped; the
    /// empty string means the run was entirely clean.
    pub fn robustness_summary(&self) -> String {
        use crate::report::{ms, Table};
        let mut t = Table::new(vec!["layer".into(), "metric".into(), "value".into()]);
        let mut row = |layer: &str, metric: &str, value: String| {
            t.row(vec![layer.into(), metric.into(), value]);
        };
        if self.faults.any() {
            let f = &self.faults;
            row("faults", "chunk replays", f.chunk_replays.to_string());
            row("faults", "link retrains", f.link_retrains.to_string());
            row("faults", "lost completions", f.lost_completions.to_string());
            row("faults", "command timeouts", f.command_timeouts.to_string());
            row("faults", "retries", f.retries.to_string());
            row("faults", "unit deaths", f.unit_deaths.to_string());
            row("faults", "rerouted batches", f.rerouted_batches.to_string());
            row("faults", "fallback time", ms(f.fallback_time));
        }
        if let Some(o) = &self.overload {
            row("overload", "offered", o.offered().to_string());
            row("overload", "goodput", o.goodput().to_string());
            row("overload", "shed", o.shed().to_string());
            row(
                "overload",
                "late",
                o.tenants.iter().map(|t| t.late).sum::<u64>().to_string(),
            );
            row("overload", "queue peak", o.queue_peak.to_string());
            row(
                "overload",
                "breaker activations",
                o.breaker_activations.to_string(),
            );
            row(
                "overload",
                "backpressure stalls",
                o.backpressure_stalls.to_string(),
            );
            row(
                "overload",
                "backpressure stall time",
                ms(o.backpressure_stall_time),
            );
        }
        if self.integrity.any() {
            let i = &self.integrity;
            row("integrity", "flips injected", i.injected.to_string());
            row("integrity", "flips detected", i.detected.to_string());
            row("integrity", "flips escaped", i.escaped.to_string());
            row(
                "integrity",
                "poisoned batches",
                i.poisoned_batches.to_string(),
            );
            row("integrity", "checks", i.checks.to_string());
            row("integrity", "re-executions", i.reexecs.to_string());
            row(
                "integrity",
                "re-exec give-ups",
                i.reexec_giveups.to_string(),
            );
            row("integrity", "quarantines", i.quarantines.to_string());
            row(
                "integrity",
                "quarantine shed",
                i.quarantine_shed.to_string(),
            );
        }
        if self.crashes.any() {
            let c = &self.crashes;
            row("crash", "crashes", c.crashes.to_string());
            row("crash", "readmissions", c.readmissions.to_string());
            row("crash", "checkpoints", c.checkpoints.to_string());
            row("crash", "migrations", c.migrations.to_string());
            row("crash", "lost progress", ms(c.lost_progress));
            row("crash", "crash-killed", c.crash_killed.to_string());
            row("crash", "crash stalls", c.crash_stalls.to_string());
            row("crash", "stall time", ms(c.stall_time));
            row("crash", "flips discarded", c.flips_discarded.to_string());
        }
        if self.failslow.any() {
            let fs = &self.failslow;
            row("failslow", "slowed batches", fs.slowed_batches.to_string());
            row("failslow", "injected slow time", ms(fs.slow_extra_time));
            row("failslow", "link degrades", fs.link_degrades.to_string());
            row("failslow", "gray flags", fs.gray_flags.to_string());
            row("failslow", "probes", fs.probes.to_string());
            row("failslow", "recoveries", fs.recoveries.to_string());
            row(
                "failslow",
                "demoted batches",
                fs.demoted_batches.to_string(),
            );
            row("failslow", "hedged", fs.hedged.to_string());
            row("failslow", "won by primary", fs.won_primary.to_string());
            row("failslow", "won by hedge", fs.won_hedge.to_string());
            row("failslow", "hedges cancelled", fs.cancelled.to_string());
        }
        if t.is_empty() {
            return String::new();
        }
        t.render()
    }
}

// ---------------------------------------------------------------- engine

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Kernel(usize),
    DriverPost(usize),
    ToRestr(usize),
    Restr(usize),
    DriverPre(usize),
    ToNext(usize),
}

fn steps_for(app: &BenchmarkRef, mode: Mode) -> Vec<Step> {
    let stages = app.stages.len();
    let mut steps = Vec::new();
    for s in 0..stages {
        steps.push(Step::Kernel(s));
        if s + 1 < stages {
            match mode {
                Mode::AllCpu => steps.push(Step::Restr(s)),
                _ => {
                    steps.push(Step::DriverPost(s));
                    steps.push(Step::ToRestr(s));
                    steps.push(Step::Restr(s));
                    steps.push(Step::DriverPre(s));
                    steps.push(Step::ToNext(s));
                }
            }
        }
    }
    steps
}

/// The chain walk's run constants for one app: every value here is
/// fixed by the config and the layout, so [`Sim::build`] computes each
/// once, with the same calls on the same inputs that the walk would
/// otherwise make per request.
#[derive(Debug)]
struct ChainCosts {
    /// Per stage.
    stages: Vec<StageCost>,
    /// Per edge.
    edges: Vec<EdgeCost>,
}

/// Run constants of one kernel stage.
#[derive(Debug, Clone, Copy)]
struct StageCost {
    /// The accelerator's service time for the stage's input batch.
    service: Time,
    /// All-CPU core-seconds of the same kernel, spread over
    /// [`KERNEL_CAP`] cores.
    cpu_work: f64,
}

/// Run constants of one edge's restructure and its two transfers.
#[derive(Debug, Clone, Copy)]
struct EdgeCost {
    /// Core-seconds of one restructure on host cores.
    host_work: f64,
    /// The most cores that restructure can use.
    host_cap: f64,
    /// Driver handshakes of the transfer into the restructuring engine.
    handshake_in: Time,
    /// Driver handshakes of the transfer out to the next accelerator.
    handshake_out: Time,
    /// The batch's time on the configured DRX engine, before any unit
    /// slowdown; zero when the mode deploys no unit for the edge.
    drx_time: Time,
    /// The batch's dynamic DRX energy in joules; zero without a unit.
    drx_joules: f64,
}

impl ChainCosts {
    /// The run constants of app `a` of `cfg`, laid out as `layout`.
    fn new(cfg: &SystemConfig, layout: &ServerLayout, a: usize) -> ChainCosts {
        let app = &cfg.apps[a];
        let stages = app
            .stages
            .iter()
            .map(|stage| {
                let model = stage.kind.model();
                StageCost {
                    service: model.service_time(stage.input_bytes),
                    cpu_work: model.cpu_time(stage.input_bytes).as_secs_f64() * KERNEL_CAP,
                }
            })
            .collect();
        // Each segment of a batch past the first costs one driver
        // handshake (Fig. 10 steps 3-4 re-run per DRX data-queue
        // refill). With the paper's 100 MB queues and 6-16 MB batches
        // this is zero, and the host paths have no DRX queues at all.
        let handshakes = |bytes: u64| {
            if matches!(cfg.mode, Mode::AllCpu | Mode::MultiAxl) {
                return Time::ZERO;
            }
            let segments = bytes.div_ceil(cfg.queue_bytes.max(1));
            cfg.driver.irq_latency * segments.saturating_sub(1)
        };
        let energy = DrxEnergyModel::for_clock(cfg.drx.clock);
        let edges = app
            .edges
            .iter()
            .enumerate()
            .map(|(e, edge)| {
                let (drx_time, drx_joules) = match layout.unit_of(a, e) {
                    Some(_) => {
                        let cost = edge.drx_cost(&cfg.drx);
                        (cost.time, cost.dynamic_joules(&energy))
                    }
                    None => (Time::ZERO, 0.0),
                };
                EdgeCost {
                    host_work: cfg.cpu.restructure_core_seconds(&edge.profile),
                    host_cap: cfg.cpu.restructure_core_cap(&edge.profile),
                    handshake_in: handshakes(edge.bytes_in),
                    handshake_out: handshakes(edge.bytes_out),
                    drx_time,
                    drx_joules,
                }
            })
            .collect();
        ChainCosts { stages, edges }
    }
}

#[derive(Debug, Default)]
struct Req {
    app: usize,
    start: Time,
    step: usize,
    step_started: Time,
    breakdown: Breakdown,
    /// Bumped when the request is torn off a dead unit and resubmitted;
    /// completion events carry the epoch they were scheduled under, so
    /// stale completions from the dead unit are ignored.
    epoch: u32,
    /// The current step is running on the degraded fallback path.
    degraded: bool,
    /// Absolute completion deadline (open-loop mode); `Time::MAX` for
    /// closed-loop requests, which have no deadline.
    deadline: Time,
    /// Ingress credit currently held: `(DRX unit, bytes)`. Acquired
    /// when the transfer into the unit begins, released when the unit
    /// consumes the batch (restructure completes).
    credit: Option<(u64, u64)>,
    /// Silent bit flips injected into this request's data and not yet
    /// caught by a checksum. Nonzero = the batch is *poisoned*.
    flips: u64,
    /// Chain steps traversed while poisoned (the blast radius when the
    /// poison is finally caught — or escapes).
    poison_hops: u64,
    /// Step index of the last checksum-verified boundary; a detection
    /// rewinds execution here.
    verified_step: usize,
    /// When the request passed that boundary (work since then is what a
    /// re-execution throws away).
    verified_at: Time,
    /// Re-executions so far; also keys the fault plan's SDC draws so
    /// each attempt re-rolls its exposure. Past `max_reexec` the
    /// integrity layer stops checking and further corruption escapes.
    reexecs: u32,
    /// Step index of the last crash checkpoint (a chain-hop boundary);
    /// a crash migration rewinds execution here.
    ckpt_step: usize,
    /// When that checkpoint was taken — work since then is what a
    /// migration throws away.
    ckpt_at: Time,
    /// Crash migrations so far; keys SDC draws together with `reexecs`
    /// so every restarted attempt re-rolls its exposure.
    crash_rewinds: u32,
    /// The DRX unit the in-flight restructure batch was dispatched on
    /// (`None` when the batch runs on the host or a demoted peer — only
    /// home-unit batches feed the health scorer).
    restr_unit: Option<u64>,
    /// When the in-flight restructure batch's *service* begins: the
    /// engine-start instant for FIFO units (queue wait excluded, so
    /// the health scorer's ratio and the hedge clock measure device
    /// slowness, not backlog), submit time for shared pools
    /// (processor sharing has no discrete start; the whole fleet
    /// inflates equally under load, so baselines stay fair).
    restr_submitted: Time,
    /// The batch's nominal (fault-free) service time, the ratio's
    /// denominator and the hedge threshold's base.
    restr_nominal: Time,
    /// Bumped every time a restructure batch is dispatched on a unit;
    /// hedge timers carry the sequence they armed under, so timers for
    /// batches that already completed or were torn down stay inert.
    restr_seq: u32,
    /// A speculative hedge duplicate is in flight for the current
    /// restructure batch; first completion wins.
    hedge: bool,
    /// Caller's opaque arrival tag, echoed in the resolution so a
    /// fleet front end can match resolutions to dispatch attempts
    /// exactly (zero for internally generated arrivals).
    tag: u64,
}

#[derive(Debug)]
enum Ev {
    StepDone(u64, u32),
    /// A fluid resource's next completion is due, unless the resource
    /// changed after the tick was pushed under generation `u64`.
    Tick(Res, u64),
    /// A DRX unit permanently dies.
    UnitDeath(u64),
    /// A link retrain completes; bandwidth returns to nominal.
    LinkRestore(usize),
    /// An open-loop request of tenant `app` arrives, carrying the
    /// caller's opaque tag (zero for internally generated arrivals;
    /// fleet front ends stamp attempt tags for exact dedup).
    Arrival(usize, u64),
    /// A chain-boundary checksum finishes (epoch-tagged like
    /// `StepDone`); the request then advances, or rewinds on mismatch.
    IntegrityDone(u64, u32),
    /// Crash event `i` of the schedule fires: surprise removal.
    Crash(usize),
    /// Crash event `i`'s outage window ends: hot-plug re-admission.
    CrashRecover(usize),
    /// A parked, migrated or re-executing request resumes its chain
    /// (epoch-tagged like `StepDone`, so teardown invalidates stale
    /// resumes).
    Resume(u64, u32),
    /// Degrade event `i` of the schedule begins: its link/subtree
    /// bandwidth drops (device targets are evaluated at batch submit
    /// instead and need no events).
    DegradeStart(usize),
    /// Degrade event `i`'s duty cycle flips between its on and off
    /// phases.
    DegradeToggle(usize),
    /// Degrade event `i`'s window ends: bandwidth returns to nominal.
    DegradeEnd(usize),
    /// A restructure batch dispatched under hedge sequence `seq` has
    /// been in flight past its hedge threshold; launch a speculative
    /// duplicate if it is still stuck.
    HedgeCheck(u64, u32),
    /// A hedge duplicate finishes (epoch-tagged like `StepDone`; losing
    /// arms are invalidated by the winner's epoch bump).
    HedgeDone(u64, u32),
}

/// A fluid resource whose completions `Sim` learns from ticks: the host
/// core pool, the PCIe flow network, or the shared DRX pool of unit `i`
/// of the layout's unit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    Cpu,
    Flows,
    Shared(usize),
}

/// Struct-of-arrays per-app accumulators, one column per statistic
/// indexed by app id. The completion hot path touches only the columns
/// it writes, and the report pass streams one contiguous column per
/// statistic instead of striding across an array of structs. The
/// movement/kernel/restructure columns are the per-app aggregation of
/// each request's [`Breakdown`].
#[derive(Debug, Default)]
struct AppStatsCols {
    completed: Vec<usize>,
    launched: Vec<usize>,
    latency_sum: Vec<f64>,
    latencies: Vec<dmx_sim::Percentiles>,
    kernel: Vec<Time>,
    restructure: Vec<Time>,
    movement: Vec<Time>,
    last_done: Vec<Time>,
}

impl AppStatsCols {
    fn new(apps: usize) -> AppStatsCols {
        AppStatsCols {
            completed: vec![0; apps],
            launched: vec![0; apps],
            latency_sum: vec![0.0; apps],
            latencies: vec![dmx_sim::Percentiles::new(); apps],
            kernel: vec![Time::ZERO; apps],
            restructure: vec![Time::ZERO; apps],
            movement: vec![Time::ZERO; apps],
            last_done: vec![Time::ZERO; apps],
        }
    }
}

struct Sim<'a> {
    cfg: &'a SystemConfig,
    layout: ServerLayout,
    q: EventQueue<Ev>,
    flows: FlowNet,
    cpu: PsPool,
    accel: Vec<Vec<FifoServer>>,
    driver: DriverState,
    reqs: IdMap<Req>,
    steps: Vec<Vec<Step>>,
    /// Per app, the run constants its steps read.
    costs: Vec<ChainCosts>,
    next_req: u64,
    next_job: u64,
    /// Every live job on a fluid resource, by job id: its request, the
    /// latency added once it finishes, and whether it is a host-side
    /// hedge duplicate (peer-DRX hedges schedule `HedgeDone` directly).
    jobs: FastMap<u64, (u64, Time, bool)>,
    stats: AppStatsCols,
    drx_dynamic_j: f64,
    /// Per-(app, edge) in-order restructuring gate: the DRX/host data
    /// queues process one batch at a time, in arrival order (Sec. V).
    /// `Some(id)` is the request currently holding the gate.
    restr_active: Vec<Vec<Option<u64>>>,
    restr_queue: Vec<Vec<std::collections::VecDeque<u64>>>,
    /// Compiled fault schedule; `None` when the layer is disabled or
    /// the config is inert (so the zero-fault path is exactly the
    /// pre-fault-layer simulator).
    plan: Option<FaultPlan>,
    /// The plan's per-chunk corruption probability under `cfg.replay`
    /// (zero without a plan).
    chunk_p: f64,
    report: FaultReport,
    dead_units: FastSet<u64>,
    /// The fault plan's crash schedule, sorted by fire time; empty
    /// without crash events (so the no-crash path is exactly the
    /// pre-crash-layer simulator).
    crash_sched: Vec<CrashEvent>,
    /// Open crash windows per down device — overlapping schedules stack
    /// and the device revives only when every window has closed.
    down_devices: FastMap<u64, u32>,
    /// Units removed for non-crash reasons (MTTF deaths); hot-plug
    /// recovery never revives these.
    perma_dead: FastSet<u64>,
    /// CPU/flow/pool jobs belonging to torn-down request attempts;
    /// their completions are discarded instead of being misattributed
    /// to the restarted attempt.
    cancelled_jobs: FastSet<u64>,
    creport: CrashReport,
    /// Integrity layer; `None` when disabled or inert (so the unchecked
    /// path is exactly the pre-integrity simulator).
    integ: Option<IntegrityConfig>,
    ireport: IntegrityReport,
    /// Per-tenant quarantine deadlines: open-loop arrivals before this
    /// instant are shed without admission.
    quarantine_until: Vec<Time>,
    /// Overload-control state; `None` when the layer is disabled or the
    /// config is inert (so the no-overload path is exactly the
    /// pre-overload simulator).
    ov: Option<OvState>,
    /// Requests still to complete before the run can stop. In open-loop
    /// mode every offered arrival resolves exactly once — completed,
    /// rejected, or shed — so the count still reaches zero.
    remaining: usize,
    /// The fault plan's degrade schedule, sorted by start time; empty
    /// without degrade events (so the no-degrade path is exactly the
    /// pre-fail-slow simulator). Device targets are evaluated
    /// functionally at batch submit; link/subtree targets run through
    /// `DegradeStart`/`DegradeToggle`/`DegradeEnd` events.
    degrade_sched: Vec<DegradeEvent>,
    /// Per schedule entry: its link degradation is currently applied
    /// (duty cycles flip this; `DegradeEnd` restores it).
    degrade_on: Vec<bool>,
    /// Fail-slow mitigation policy and its per-device health scorer;
    /// `None` when disabled or inert (so the unwatched path is exactly
    /// the pre-fail-slow simulator).
    fs: Option<(FailSlowConfig, HealthScorer)>,
    fsreport: FailSlowReport,
    /// Resources changed in the current instant, in last-change order;
    /// [`Sim::flush_ticks`] schedules one tick for each once the
    /// instant is over.
    dirty: Vec<Res>,
    /// Externally-driven mode (fleet servers): arrivals come from
    /// [`Stepped::inject_arrival_tagged`] instead of per-tenant
    /// generators, and every request resolution is recorded in
    /// `resolutions` for the caller to drain.
    external: bool,
    /// Resolutions recorded since the last drain; only populated in
    /// external mode.
    resolutions: Vec<Resolution>,
}

/// The final disposition of one injected request, reported by
/// [`Stepped::drain_resolutions`] so a fleet front end can close the
/// loop (free load-balancer slots, record end-to-end latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Simulation time the request resolved.
    pub at: Time,
    /// Tenant (app index) it belonged to.
    pub app: usize,
    /// The opaque tag the caller stamped on the injected arrival
    /// ([`Stepped::inject_arrival_tagged`]). Lets a front end match
    /// this resolution to the exact dispatch attempt it answers.
    pub tag: u64,
    /// What happened to it.
    pub outcome: Outcome,
}

/// How an injected request resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion; `within_deadline` is the server-side SLO
    /// verdict.
    Completed {
        /// Completed at or before its admission deadline.
        within_deadline: bool,
    },
    /// Shed: rejected at admission, dropped from a full queue, expired
    /// in the EDF queue, or killed by a crash.
    Shed,
}

impl<'a> Sim<'a> {
    /// Timed wrapper around [`Sim::build`]: construction cost feeds the
    /// process-global setup counter, which perfbench reads to report
    /// system build time apart from the event loop.
    fn new(cfg: &'a SystemConfig, external: bool) -> Sim<'a> {
        let t0 = std::time::Instant::now();
        let sim = Sim::build(cfg, external);
        dmx_sim::record_setup_nanos(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        sim
    }

    fn build(cfg: &'a SystemConfig, external: bool) -> Sim<'a> {
        let layout = build_layout(cfg.mode, &cfg.apps, cfg.gen, &cfg.fleet);
        let flows = FlowNet::new(layout.topo.link_bandwidths());
        let accel = cfg
            .apps
            .iter()
            .map(|a| a.stages.iter().map(|_| FifoServer::new(1)).collect())
            .collect();
        let steps = cfg.apps.iter().map(|a| steps_for(a, cfg.mode)).collect();
        let costs = (0..cfg.apps.len())
            .map(|a| ChainCosts::new(cfg, &layout, a))
            .collect();
        let plan = cfg
            .faults
            .as_ref()
            .filter(|f| !f.is_inert())
            .map(|f| FaultPlan::new(f.clone()));
        let chunk_p = plan
            .as_ref()
            .map_or(0.0, |p| cfg.replay.chunk_corruption(p));
        let crash_sched = plan
            .as_ref()
            .map(|p| p.crash_schedule())
            .unwrap_or_default();
        let degrade_sched = plan
            .as_ref()
            .map(|p| p.degrade_schedule())
            .unwrap_or_default();
        Sim {
            cfg,
            layout,
            q: EventQueue::new(),
            flows,
            cpu: PsPool::new(cfg.cpu.cores as f64),
            accel,
            driver: match cfg.forced_driver {
                Some(mode) => DriverState::forced(cfg.driver, mode),
                None => DriverState::new(cfg.driver),
            },
            reqs: IdMap::default(),
            steps,
            costs,
            next_req: 0,
            next_job: 0,
            jobs: FastMap::default(),
            stats: AppStatsCols::new(cfg.apps.len()),
            drx_dynamic_j: 0.0,
            restr_active: cfg.apps.iter().map(|a| vec![None; a.edges.len()]).collect(),
            restr_queue: cfg
                .apps
                .iter()
                .map(|a| {
                    a.edges
                        .iter()
                        .map(|_| std::collections::VecDeque::new())
                        .collect()
                })
                .collect(),
            plan,
            chunk_p,
            report: FaultReport::default(),
            dead_units: FastSet::default(),
            crash_sched,
            down_devices: FastMap::default(),
            perma_dead: FastSet::default(),
            cancelled_jobs: FastSet::default(),
            creport: CrashReport::default(),
            integ: cfg.integrity.filter(|i| !i.is_inert()),
            ireport: IntegrityReport::default(),
            quarantine_until: vec![Time::ZERO; cfg.apps.len()],
            ov: cfg
                .overload
                .as_ref()
                .filter(|o| !o.is_inert())
                .map(|o| OvState::new(o, &cfg.apps, cfg.requests_per_app, external)),
            // External mode counts outstanding injected arrivals
            // instead of a fixed request budget.
            remaining: if external {
                0
            } else {
                cfg.apps.len() * cfg.requests_per_app
            },
            degrade_on: vec![false; degrade_sched.len()],
            degrade_sched,
            fs: cfg
                .failslow
                .filter(|f| !f.is_inert())
                .map(|f| (f, HealthScorer::new(f.scorer))),
            fsreport: FailSlowReport::default(),
            dirty: Vec::new(),
            external,
            resolutions: Vec::new(),
        }
    }

    /// Records a resolution for the fleet front end (external mode
    /// only; a no-op otherwise, keeping single-server runs untouched).
    fn resolve(&mut self, app: usize, tag: u64, outcome: Outcome) {
        if self.external {
            let at = self.q.now();
            self.resolutions.push(Resolution {
                at,
                app,
                tag,
                outcome,
            });
        }
    }

    fn job_id(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Notes that `r` changed in the current instant. Its tick waits
    /// for [`Sim::flush_ticks`], so a resource changed many times in
    /// one instant gets one tick instead of a stale tick per change.
    /// The list keeps last-change order, the order in which ticks
    /// pushed at each change would have fired.
    fn mark(&mut self, r: Res) {
        if self.dirty.last() == Some(&r) {
            return;
        }
        if let Some(i) = self.dirty.iter().position(|&d| d == r) {
            self.dirty.remove(i);
        }
        self.dirty.push(r);
    }

    /// Schedules one tick per changed resource, in last-change order,
    /// once the instant is over: [`Sim::handle`] calls it when the
    /// queue head has left the current instant, and [`Sim::seed`] at
    /// its end. Every change advanced its resource to `now` and
    /// `next_event` adds at least 1 ps, so each tick is due after the
    /// instant that made it.
    fn flush_ticks(&mut self) {
        let now = self.q.now();
        for r in self.dirty.drain(..) {
            let (at, gen) = match r {
                Res::Cpu => (self.cpu.next_event(now), self.cpu.generation()),
                Res::Flows => (self.flows.next_event(now), self.flows.generation()),
                Res::Shared(u) => {
                    let pool = self.layout.pool(u);
                    (pool.next_event(now), pool.generation())
                }
            };
            if let Some(at) = at {
                debug_assert!(at > now, "{r:?} tick due in the instant that made it");
                self.q.schedule_at(at, Ev::Tick(r, gen));
            }
        }
    }

    /// A tick of `r` pushed under generation `gen` fires: unless `r`
    /// changed since, it advances to now and settles.
    fn tick(&mut self, r: Res, gen: u64) -> Result<(), SimError> {
        let now = self.q.now();
        match r {
            Res::Cpu if gen == self.cpu.generation() => self.cpu.advance(now),
            Res::Flows if gen == self.flows.generation() => self.flows.advance(now),
            Res::Shared(u) if gen == self.layout.pool(u).generation() => {
                self.layout.pool(u).advance(now);
            }
            _ => return Ok(()),
        }
        self.settle(r)
    }

    /// Settles fluid resource `r` after a change; every mutation of the
    /// core pool, the flow network or a shared pool ends here. A
    /// mutation advances the resource to `now` and may finish jobs in
    /// this instant, so their completions become step completions (or
    /// hedge arrivals) before the resource is marked for a tick.
    fn settle(&mut self, r: Res) -> Result<(), SimError> {
        let now = self.q.now();
        loop {
            let finished = match r {
                Res::Cpu => self.cpu.pop_finished(),
                Res::Flows => self.flows.pop_finished(),
                Res::Shared(u) => self.layout.pool(u).pop_finished(),
            };
            let Some(jid) = finished else { break };
            if self.cancelled_jobs.remove(&jid) {
                // A torn-down attempt's job: its owner restarted from a
                // checkpoint, so this completion means nothing.
                continue;
            }
            let (req, lat, hedge) = self.jobs.remove(&jid).ok_or(SimError::UntrackedJob(jid))?;
            if !hedge {
                self.schedule_step_done(now + lat, req)?;
            } else if let Some(owner) = self.reqs.get(req) {
                // A host-side hedge duplicate: race it against the
                // primary via an epoch-tagged completion.
                self.q.schedule_at(now, Ev::HedgeDone(req, owner.epoch));
            }
        }
        self.mark(r);
        Ok(())
    }

    /// Epoch-tagged completion event for `req` at `at`.
    fn schedule_step_done(&mut self, at: Time, req: u64) -> Result<(), SimError> {
        let epoch = self
            .reqs
            .get(req)
            .ok_or(SimError::UnknownRequest(req))?
            .epoch;
        self.q.schedule_at(at, Ev::StepDone(req, epoch));
        Ok(())
    }

    fn cpu_job(
        &mut self,
        req: u64,
        work_secs: f64,
        cap: f64,
        extra_latency: Time,
    ) -> Result<(), SimError> {
        let now = self.q.now();
        let jid = self.job_id();
        self.jobs.insert(jid, (req, extra_latency, false));
        self.cpu
            .insert(now, jid, Time::from_secs_f64(work_secs), cap);
        // Zero-work jobs may complete instantly.
        self.settle(Res::Cpu)
    }

    fn start_flow_with_extra(
        &mut self,
        req: u64,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        extra_latency: Time,
        fault_unit: Option<u64>,
    ) -> Result<(), SimError> {
        let now = self.q.now();
        let fid = self.job_id();
        let route = self.layout.route(from, to)?;
        let mut bytes = bytes;
        let mut extra = extra_latency;
        // Replays on a transfer into a DRX count against that unit's
        // circuit breaker, fed after the insert: `route` borrows the
        // layout until then.
        let mut breaker = None;
        // PCIe bit errors: corrupted chunks replay (extra bytes on the
        // wire + turnaround latency); an error burst retrains the
        // transfer's first link at degraded bandwidth for a while.
        if let Some(plan) = &self.plan {
            let tf = transfer_faults(plan, &self.cfg.replay, self.chunk_p, fid, bytes);
            if tf.replays > 0 {
                self.report.chunk_replays += tf.replays;
                self.report.replay_extra_bytes += tf.extra_bytes;
                bytes += tf.extra_bytes;
                extra += tf.extra_latency;
                if tf.retrain {
                    let link = route.links[0];
                    self.flows
                        .degrade_link(now, link, self.cfg.replay.retrain_bw_scale);
                    self.q.schedule_at(
                        now + self.cfg.replay.retrain_time,
                        Ev::LinkRestore(link.index()),
                    );
                    self.report.link_retrains += 1;
                    self.report.degraded_link_time += self.cfg.replay.retrain_time;
                }
                if let (Some(unit), Some(r)) = (fault_unit, self.reqs.get(req)) {
                    breaker = Some((unit, r.app, tf.replays));
                }
            }
        }
        self.jobs.insert(fid, (req, route.latency + extra, false));
        self.flows.try_insert(now, fid, bytes, &route.links)?;
        if let Some((unit, app, replays)) = breaker {
            self.breaker_faults(unit, app, replays);
        }
        self.settle(Res::Flows)
    }

    /// The node where this edge's restructuring happens: its DRX
    /// unit's. Without a unit, or once it is dead, restructuring runs
    /// on host cores, so data stages through host memory at the root.
    fn restr_node(&self, app: usize, e: usize) -> NodeId {
        match self.layout.unit_of(app, e).map(|u| &self.layout.units[u]) {
            Some(unit) if !self.dead_units.contains(&unit.id) => unit.node,
            _ => self.layout.topo.root(),
        }
    }

    /// The id of the DRX unit restructuring `(app, e)`, if the mode
    /// deploys one.
    fn unit_for(&self, app: usize, e: usize) -> Option<u64> {
        self.layout.unit_of(app, e).map(|u| self.layout.units[u].id)
    }

    fn begin_step(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        let (app, step, step_index) = {
            let r = self.reqs.get_mut(id).ok_or(SimError::UnknownRequest(id))?;
            r.step_started = now;
            (r.app, self.steps[r.app][r.step], r.step)
        };
        let bench = &self.cfg.apps[app];
        match step {
            Step::Kernel(s) => {
                let cost = self.costs[app].stages[s];
                if self.cfg.mode == Mode::AllCpu {
                    self.cpu_job(id, cost.cpu_work, KERNEL_CAP, Time::ZERO)?;
                } else {
                    let done = self.accel[app][s].submit(now, cost.service);
                    self.schedule_step_done(done, id)?;
                }
            }
            Step::DriverPost(_) | Step::DriverPre(_) => {
                // A lost interrupt is recovered by the driver watchdog:
                // the event is only noticed after the watchdog timeout,
                // via a poll.
                let lost = self.plan.as_ref().is_some_and(|p| {
                    p.completion_lost(id.wrapping_mul(1_000_003).wrapping_add(step_index as u64))
                });
                let cost = if lost {
                    self.report.lost_completions += 1;
                    self.driver.on_lost_completion(now, &self.cfg.recovery)
                } else {
                    self.driver.on_completion(now)
                };
                self.cpu_job(id, cost.cpu_seconds, 1.0, cost.latency)?;
            }
            Step::ToRestr(e) => {
                // Ingress backpressure: the transfer into a DRX must
                // first reserve endpoint credit; a full ingress queue
                // parks the transfer at the source until the unit
                // consumes a batch.
                let bytes = bench.edges[e].bytes_in;
                let unit = self
                    .unit_for(app, e)
                    .filter(|u| !self.dead_units.contains(u));
                // The batch sits in a DMA staging buffer on its way to
                // the restructuring engine.
                self.inject_sdc(id, SdcDomain::DmaStaging, unit.unwrap_or(0), bytes, 0.0);
                let mut parked = false;
                if let (Some(u), Some(ov)) = (unit, self.ov.as_mut()) {
                    if let Some(gate) = ov.gate.as_mut() {
                        let granted = gate.try_acquire(now, u, id, bytes);
                        if let Some(r) = self.reqs.get_mut(id) {
                            r.credit = Some((u, bytes));
                        }
                        parked = !granted;
                    }
                }
                if !parked {
                    self.flow_to_restr(id, app, e)?;
                }
            }
            Step::Restr(e) => {
                if self.restr_active[app][e].is_some() {
                    self.restr_queue[app][e].push_back(id);
                } else {
                    self.restr_active[app][e] = Some(id);
                    self.submit_restr(id, app, e)?;
                }
            }
            Step::ToNext(e) => {
                let from = self.restr_node(app, e);
                let to = self.layout.accel_nodes[app][e + 1];
                let bytes = bench.edges[e].bytes_out;
                // Staged again on the way out to the next accelerator.
                let unit = self
                    .unit_for(app, e)
                    .filter(|u| !self.dead_units.contains(u));
                self.inject_sdc(id, SdcDomain::DmaStaging, unit.unwrap_or(0), bytes, 0.0);
                let extra = self.costs[app].edges[e].handshake_out;
                self.start_flow_with_extra(id, from, to, bytes, extra, None)?;
            }
        }
        Ok(())
    }

    /// Starts the DMA into the restructuring engine for `id`'s edge `e`
    /// (possibly after a backpressure stall).
    fn flow_to_restr(&mut self, id: u64, app: usize, e: usize) -> Result<(), SimError> {
        let from = self.layout.accel_nodes[app][e];
        let to = self.restr_node(app, e);
        let bytes = self.cfg.apps[app].edges[e].bytes_in;
        let extra = self.costs[app].edges[e].handshake_in;
        let unit = self.unit_for(app, e);
        self.start_flow_with_extra(id, from, to, bytes, extra, unit)
    }

    /// Resumes a ToRestr transfer whose ingress credit was just
    /// granted. Ignores tokens whose request already moved on (e.g.
    /// finished another way) — they cannot regress.
    fn resume_to_restr(&mut self, id: u64) -> Result<(), SimError> {
        let Some(r) = self.reqs.get(id) else {
            return Ok(());
        };
        let app = r.app;
        let Step::ToRestr(e) = self.steps[app][r.step] else {
            return Ok(());
        };
        self.flow_to_restr(id, app, e)
    }

    /// Restructures `id`'s batch on host cores — the Multi-Axl path,
    /// also the graceful-degradation fallback when a DRX is dead or its
    /// command retries are exhausted.
    fn submit_restr_cpu(
        &mut self,
        id: u64,
        app: usize,
        e: usize,
        extra_latency: Time,
        degraded: bool,
    ) -> Result<(), SimError> {
        let cost = self.costs[app].edges[e];
        // Host-path restructuring stages the batch in (non-ECC) DDR;
        // its exposure window is the nominal core-seconds of the pass —
        // a deterministic proxy for wall residency, which would depend
        // on event order.
        let bytes = self.cfg.apps[app].edges[e].bytes_in;
        self.inject_sdc(id, SdcDomain::Ddr, 0, bytes, cost.host_work);
        if let Some(r) = self.reqs.get_mut(id) {
            // Host batches don't feed the health scorer or hedge.
            r.restr_unit = None;
            if degraded {
                r.degraded = true;
            }
        }
        if degraded {
            self.report.rerouted_batches += 1;
        }
        self.cpu_job(id, cost.host_work, cost.host_cap, extra_latency)
    }

    /// Dispatches one restructuring batch to the mode's engine. Callers
    /// hold the per-(app, edge) gate.
    fn submit_restr(&mut self, id: u64, app: usize, e: usize) -> Result<(), SimError> {
        let now = self.q.now();
        let Some(u) = self.layout.unit_of(app, e) else {
            return self.submit_restr_cpu(id, app, e, Time::ZERO, false);
        };
        let unit = self.layout.units[u].id;
        // Graceful degradation: a dead unit's batches reroute to host
        // cores (the Multi-Axl path) while healthy apps keep their DRXs.
        if self.dead_units.contains(&unit) {
            return self.submit_restr_cpu(id, app, e, Time::ZERO, true);
        }
        // Circuit breaker: an open unit's batches reroute to host cores
        // without touching the unit; once the cooldown elapses a single
        // probe batch tests whether it recovered.
        let breaker = match self.ov.as_mut() {
            Some(ov) if ov.cfg.breaker.enabled => {
                let route = ov.breakers.entry(unit).or_default().route(now);
                if route == Route::Fallback {
                    ov.tenants[app].stats.breaker_rerouted += 1;
                }
                route
            }
            _ => Route::Primary,
        };
        if breaker == Route::Fallback {
            // Not `degraded`: breaker reroutes are overload-control
            // actions, accounted separately from fault recovery.
            return self.submit_restr_cpu(id, app, e, Time::ZERO, false);
        }
        // Fail-slow demotion: a suspected-gray unit's batches run on a
        // healthy peer DRX of the same kind (host cores when none
        // exists); after probation this batch may become the probe that
        // tests the suspect.
        let demoted = self
            .fs
            .as_mut()
            .is_some_and(|(fs, sc)| fs.demote && sc.route(now, unit, id) == Route::Fallback);
        if demoted {
            self.fsreport.demoted_batches += 1;
            if let Some(peer) = self.healthy_peer(unit, id) {
                let done = self.peer_restr_done(id, app, e, peer, true);
                if let Some(r) = self.reqs.get_mut(id) {
                    r.restr_unit = None;
                }
                return self.schedule_step_done(done, id);
            }
            // Not `degraded`: like breaker reroutes, scorer
            // demotions are policy, not fault recovery.
            return self.submit_restr_cpu(id, app, e, Time::ZERO, false);
        }
        // Transient stalls: each stalled attempt costs the command
        // timeout plus exponential backoff before the retry; a batch
        // whose retries are exhausted falls back to host cores.
        let mut stall_penalty = Time::ZERO;
        let mut stall_events = 0u64;
        let mut exhausted = false;
        if let Some(plan) = &self.plan {
            let rec = self.cfg.recovery;
            let key = id
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(e as u64);
            let mut attempt = 0u32;
            while attempt <= rec.max_retries && plan.drx_stalled(key, attempt) {
                self.report.command_timeouts += 1;
                stall_events += 1;
                stall_penalty += rec.command_timeout + rec.backoff(attempt);
                attempt += 1;
                if attempt <= rec.max_retries {
                    self.report.retries += 1;
                }
            }
            exhausted = attempt > rec.max_retries;
        }
        // Command timeouts feed the unit's breaker; a half-open probe
        // closes the breaker only when its batch saw no stall at all
        // (the outcome is known at submit time because stall draws
        // resolve synchronously).
        if stall_events > 0 {
            self.breaker_faults(unit, app, stall_events);
        }
        if breaker == Route::Probe {
            if let Some(ov) = self.ov.as_mut() {
                let clean = stall_events == 0;
                let br = ov.breakers.entry(unit).or_default();
                br.probe_result(now, clean, &ov.cfg.breaker);
                // A failed probe re-opens the breaker: one more trip.
                ov.tenants[app].stats.breaker_activations += u64::from(!clean);
            }
        }
        if exhausted {
            return self.submit_restr_cpu(id, app, e, stall_penalty, true);
        }
        let (nominal, service) = self.drx_batch(id, app, e, u, true);
        let service = service + stall_penalty;
        // Record the dispatch for the health scorer and arm the hedge
        // timer: a batch whose *service* runs past the threshold gets
        // a speculative duplicate. The clock starts when the engine
        // starts, not at submit — a healthy unit finishes at exactly
        // 1.0x nominal and never hedges, however deep its queue.
        let hedge_after = self.fs.as_ref().and_then(|(fs, _)| {
            (fs.hedge_multiplier > 0.0)
                .then(|| stall_penalty + nominal.scale(fs.hedge_multiplier).max(fs.hedge_floor))
        });
        if let Some(r) = self.reqs.get_mut(id) {
            r.restr_unit = Some(unit);
            r.restr_nominal = nominal;
            r.restr_seq = r.restr_seq.wrapping_add(1);
        }
        if let Engine::Endpoint { fifo, .. } = &mut self.layout.units[u].engine {
            let done = fifo.submit(now, service);
            self.arm_hedge(id, done.saturating_sub(service), hedge_after);
            return self.schedule_step_done(done, id);
        }
        self.arm_hedge(id, now, hedge_after);
        let jid = self.job_id();
        self.jobs.insert(jid, (id, Time::ZERO, false));
        self.layout.pool(u).insert(now, jid, service, 1.0);
        self.settle(Res::Shared(u))
    }

    /// Sets up one DRX batch of `(app, e)` on unit `u` of the unit table
    /// and returns its `(nominal, service)` times: scratchpad SDC
    /// exposure (when `expose`) and its breaker feed, dynamic energy,
    /// the engine's slowdown, and the unit's active degrades.
    fn drx_batch(&mut self, id: u64, app: usize, e: usize, u: usize, expose: bool) -> (Time, Time) {
        let unit = self.layout.units[u].id;
        if expose {
            // The batch streams through the DRX's (ECC-less) scratchpad.
            // Repeated silent corruption on one unit trips its breaker —
            // but only when the integrity layer is on: with checksums
            // off nothing in the system can observe a silent flip.
            let bytes = self.cfg.apps[app].edges[e].bytes_in;
            let n = self.inject_sdc(id, SdcDomain::Scratchpad, unit, bytes, 0.0);
            if n > 0 && self.integ.is_some() {
                self.breaker_faults(unit, app, n);
            }
        }
        let cost = self.costs[app].edges[e];
        self.drx_dynamic_j += cost.drx_joules;
        let nominal = match self.layout.units[u].engine {
            Engine::Endpoint {
                slowdown: Some(s), ..
            } => cost.drx_time.scale(s),
            _ => cost.drx_time,
        };
        // Gray devices complete work, just slower: active degrade
        // windows stretch the nominal service.
        (nominal, self.derated_service(unit, id, e, nominal))
    }

    /// The one teardown path for `id`'s in-flight attempt (unit death,
    /// crash migration or kill, a hedge race's losing arm): a live hedge
    /// counts `cancelled`, so `hedged == won_primary + won_hedge +
    /// cancelled` balances, and every CPU, DMA, pool and hedge job of
    /// `id` is cancelled, its completion dropped. Epoch-tagged work
    /// (FIFO units, peer hedges) is the caller's to invalidate.
    fn cancel_attempt(&mut self, id: u64) {
        if let Some(r) = self.reqs.get_mut(id) {
            if r.hedge {
                r.hedge = false;
                self.fsreport.cancelled += 1;
            }
        }
        let cancelled = &mut self.cancelled_jobs;
        self.jobs.retain(|&jid, &mut (req, ..)| {
            if req == id {
                cancelled.insert(jid);
            }
            req != id
        });
    }

    /// Returns `id`'s held ingress `credit` — parked or granted — to
    /// the gate, and resumes the transfers that now fit.
    fn cancel_credit(&mut self, id: u64, credit: Option<(u64, u64)>) -> Result<(), SimError> {
        let Some((unit, bytes)) = credit else {
            return Ok(());
        };
        let now = self.q.now();
        self.gate(|g| g.cancel(now, unit, id, bytes))
    }

    /// Permanent death of a DRX unit: mark it dead, then tear every
    /// in-flight batch off it and resubmit on the host-CPU fallback
    /// path. Queued batches reroute naturally when the gate releases;
    /// a batch the gate already sent to host cores or a peer DRX keeps
    /// running there.
    fn unit_death(&mut self, unit: u64) -> Result<(), SimError> {
        // Permanent: even if the unit is inside a crash outage window,
        // hot-plug recovery must not revive it.
        self.perma_dead.insert(unit);
        if !self.dead_units.insert(unit) {
            return Ok(());
        }
        self.report.unit_deaths += 1;
        // Only a batch dispatched on the unit rides it.
        let rides = |r: &Req| r.restr_unit == Some(unit);
        let mut torn: Vec<(u64, usize, usize)> = Vec::new();
        for (app, gates) in self.restr_active.iter().enumerate() {
            for (e, &holder) in gates.iter().enumerate() {
                if let Some(id) = holder.filter(|&id| self.reqs.get(id).is_some_and(rides)) {
                    torn.push((id, app, e));
                }
            }
        }
        for (id, app, e) in torn {
            // Invalidate the completion scheduled by the dead unit,
            // then restart the batch on host cores. Time already spent
            // on the unit is wasted and lands in the fallback account.
            self.cancel_attempt(id);
            let r = self.reqs.get_mut(id).ok_or(SimError::UnknownRequest(id))?;
            r.epoch += 1;
            r.restr_unit = None;
            self.submit_restr_cpu(id, app, e, self.cfg.driver.irq_latency, true)?;
        }
        Ok(())
    }

    fn start_request(&mut self, app: usize) -> Result<(), SimError> {
        let now = self.q.now();
        self.start_request_at(app, now, Time::MAX, 0)
    }

    /// Dispatches a request whose latency clock started at `start`
    /// (its arrival time, so queueing delay counts) with an absolute
    /// completion `deadline`.
    fn start_request_at(
        &mut self,
        app: usize,
        start: Time,
        deadline: Time,
        tag: u64,
    ) -> Result<(), SimError> {
        let now = self.q.now();
        self.stats.launched[app] += 1;
        let id = self.next_req;
        self.next_req += 1;
        self.reqs.insert(
            id,
            Req {
                app,
                start,
                step_started: now,
                deadline,
                verified_at: now,
                ckpt_at: now,
                restr_submitted: now,
                tag,
                ..Req::default()
            },
        );
        self.begin_or_park(id)
    }

    /// `id`'s current step finished, on its primary arm or, `via_hedge`,
    /// on a hedge duplicate: whichever arm lands first wins.
    fn step_done(&mut self, id: u64, epoch: u32, via_hedge: bool) -> Result<(), SimError> {
        let now = self.q.now();
        // Home-unit observation for the health scorer, gathered in the
        // restructure arm below: (unit, submitted, nominal).
        let mut fs_obs: Option<(u64, Time, Time)> = None;
        let mut hedge_resolved = false;
        let (app, prev_step, finished, release, credit) = {
            let Some(r) = self.reqs.get_mut(id) else {
                // A request can finish only once; any extra completion
                // must be a stale event from a torn-down unit.
                return Ok(());
            };
            if r.epoch != epoch {
                // Stale completion from a unit that died mid-service —
                // or a hedge's losing arm, invalidated by the winner.
                return Ok(());
            }
            if via_hedge && !r.hedge {
                // Defensive: a hedge completion can only win while its
                // hedge is live.
                return Ok(());
            }
            let elapsed = now - r.step_started;
            let mut release = None;
            let mut credit = None;
            let prev_step = self.steps[r.app][r.step];
            match prev_step {
                Step::Kernel(_) => r.breakdown.kernel += elapsed,
                Step::Restr(e) => {
                    r.breakdown.restructure += elapsed;
                    release = Some((r.app, e));
                    // The unit consumed the batch: return its ingress
                    // credit and wake stalled upstream transfers.
                    credit = r.credit.take();
                    if r.degraded {
                        r.degraded = false;
                        self.report.fallback_time += elapsed;
                    }
                    if let Some(u) = r.restr_unit.take() {
                        fs_obs = Some((u, r.restr_submitted, r.restr_nominal));
                    }
                    if r.hedge {
                        // First completion wins: bump the epoch so the
                        // losing arm's completion is stale.
                        r.hedge = false;
                        hedge_resolved = true;
                        r.epoch += 1;
                    }
                }
                _ => r.breakdown.movement += elapsed,
            }
            r.step += 1;
            if r.flips > 0 {
                // Poison rides the chain: one more hop of blast radius.
                r.poison_hops += 1;
            }
            if !self.crash_sched.is_empty()
                && matches!(prev_step, Step::ToNext(_))
                && r.step < self.steps[r.app].len()
            {
                // Chain-hop boundary: the driver snapshots the
                // inter-accelerator handoff so a crash rewinds here
                // instead of to the chain start. Poison rides into the
                // checkpoint — a snapshot cannot scrub what nothing has
                // checked.
                r.ckpt_step = r.step;
                r.ckpt_at = now;
                self.creport.checkpoints += 1;
            }
            (
                r.app,
                prev_step,
                r.step == self.steps[r.app].len(),
                release,
                credit,
            )
        };
        if hedge_resolved {
            if via_hedge {
                self.fsreport.won_hedge += 1;
            } else {
                self.fsreport.won_primary += 1;
            }
            // Scrub the losing arm's pool or host-CPU job (a FIFO arm
            // carries the old epoch and dies on the guard above).
            self.cancel_attempt(id);
        }
        // Feed the health scorer: the batch's observed/nominal service
        // ratio on its home unit (the unit's verdict, if the batch was
        // its probe). A hedge-won batch reports its elapsed-so-far as a
        // conservative lower bound — the unit never finished, which is
        // itself evidence of slowness.
        if let (Some((_, sc)), Some((u, submitted, nominal))) = (self.fs.as_mut(), fs_obs) {
            if !nominal.is_zero() {
                sc.observe(now, u, id, now.saturating_sub(submitted).ratio(nominal));
            }
        }
        if let Some((unit, bytes)) = credit {
            self.gate(|g| g.release(now, unit, bytes))?;
        }
        if let Some((app, e)) = release {
            self.restr_active[app][e] = self.restr_queue[app][e].pop_front();
            if let Some(next) = self.restr_active[app][e] {
                self.submit_restr(next, app, e)?;
            }
        }
        // Integrity boundary: digest the batch before it advances. The
        // check blocks the request for the modeled digest time; it
        // resumes — or rewinds — when `IntegrityDone` fires.
        if let Some(bytes) = self.check_bytes(id, app, prev_step, finished) {
            let integ = self.integ.expect("check_bytes implies integrity config");
            let t = integ.check_time(bytes);
            self.ireport.checks += 1;
            self.ireport.checksum_time += t;
            if let Some(r) = self.reqs.get_mut(id) {
                r.step_started = now;
                let ep = r.epoch;
                self.q.schedule_at(now + t, Ev::IntegrityDone(id, ep));
            }
            return Ok(());
        }
        if finished {
            self.complete_request(id)?;
        } else {
            self.begin_or_park(id)?;
        }
        Ok(())
    }

    /// A request's final completion: escape accounting for any poison
    /// that made it through, stats, and follow-on dispatch (next
    /// closed-loop request or EDF queue pop).
    fn complete_request(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        let r = self.reqs.remove(id).ok_or(SimError::UnknownRequest(id))?;
        if r.flips > 0 {
            // Silent corruption reached the final result undetected.
            self.ireport.escaped += r.flips;
            self.ireport.poison_hops += r.poison_hops;
            self.ireport.max_blast = self.ireport.max_blast.max(r.poison_hops);
        }
        self.remaining = self.remaining.saturating_sub(1);
        self.resolve(
            r.app,
            r.tag,
            Outcome::Completed {
                within_deadline: now <= r.deadline,
            },
        );
        {
            let st = &mut self.stats;
            let a = r.app;
            st.completed[a] += 1;
            st.latency_sum[a] += (now - r.start).as_secs_f64();
            st.latencies[a].record((now - r.start).as_secs_f64());
            st.kernel[a] += r.breakdown.kernel;
            st.restructure[a] += r.breakdown.restructure;
            st.movement[a] += r.breakdown.movement;
            st.last_done[a] = now;
        }
        if let Some(ov) = self.ov.as_mut().filter(|o| o.open_loop) {
            let ts = &mut ov.tenants[r.app];
            if now <= r.deadline {
                ts.stats.goodput += 1;
                ts.goodput_lat.record((now - r.start).as_secs_f64());
            } else {
                ts.stats.late += 1;
            }
        }
        self.refill(r.app, now)
    }

    /// A request of `app` left the system: free its open-loop slot and
    /// dispatch from the EDF queue, or launch the app's next
    /// closed-loop request while its budget lasts.
    fn refill(&mut self, app: usize, now: Time) -> Result<(), SimError> {
        if self.ov.as_ref().is_some_and(|o| o.open_loop) {
            self.free_slot_and_dispatch(now)
        } else if self.stats.launched[app] < self.cfg.requests_per_app {
            self.start_request(app)
        } else {
            Ok(())
        }
    }

    /// Horizon past which scheduled unit deaths are ignored: far beyond
    /// any experiment here, well inside the `Time` range.
    const DEATH_HORIZON: Time = Time::from_secs(600);

    /// Seeds the event queue: fault/crash/degrade schedules, then
    /// either the open-loop arrival streams or the closed-loop initial
    /// requests (external mode seeds neither — arrivals are injected).
    fn seed(&mut self) -> Result<(), SimError> {
        if let Some(plan) = &self.plan {
            for unit in &self.layout.units {
                if let Some(t) = plan.death_time(unit.id) {
                    if t <= Self::DEATH_HORIZON {
                        self.q.schedule_at(t, Ev::UnitDeath(unit.id));
                    }
                }
            }
        }
        for i in 0..self.crash_sched.len() {
            let ev = self.crash_sched[i];
            if ev.at <= Self::DEATH_HORIZON {
                self.q.schedule_at(ev.at, Ev::Crash(i));
                if let Some(at) = ev.recovers_at() {
                    // Scheduled up front (the schedule is static); at
                    // equal times the queue's FIFO order fires the
                    // crash before its own recovery.
                    self.q.schedule_at(at, Ev::CrashRecover(i));
                }
            }
        }
        for i in 0..self.degrade_sched.len() {
            // Only link/subtree degrades need events; device targets
            // are evaluated functionally at batch submit.
            let ev = self.degrade_sched[i];
            let is_device = matches!(ev.target, DegradeTarget::Device(_));
            if !is_device && ev.at <= Self::DEATH_HORIZON {
                self.q.schedule_at(ev.at, Ev::DegradeStart(i));
            }
        }
        if let Some(ov) = self.ov.as_mut().filter(|o| o.open_loop) {
            // Open loop: tenants submit on their own schedule — seed
            // each arrival stream instead of pre-launching requests
            // (external tenants have none: arrivals are injected).
            for (app, ts) in ov.tenants.iter_mut().enumerate() {
                if let Some(gap) = ts.next_arrival() {
                    self.q.schedule_at(gap, Ev::Arrival(app, 0));
                }
            }
        } else {
            for app in 0..self.cfg.apps.len() {
                for _ in 0..self.cfg.inflight_per_app.min(self.cfg.requests_per_app) {
                    self.start_request(app)?;
                }
            }
        }
        self.flush_ticks();
        Ok(())
    }

    /// Dispatches one popped event — the engine's single step, shared
    /// by [`Sim::run`] and [`Stepped::pump_until`] — then schedules the
    /// changed resources' ticks if that ended the instant.
    fn handle(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::StepDone(id, epoch) => self.step_done(id, epoch, false)?,
            Ev::Arrival(app, tag) => self.arrival(app, tag)?,
            Ev::Tick(r, gen) => self.tick(r, gen)?,
            Ev::UnitDeath(unit) => self.unit_death(unit)?,
            Ev::IntegrityDone(id, epoch) => self.integrity_done(id, epoch)?,
            Ev::Crash(i) => self.crash(i)?,
            Ev::CrashRecover(i) => self.crash_recover(i)?,
            Ev::Resume(id, epoch) => self.resume(id, epoch)?,
            Ev::LinkRestore(l) => {
                self.flows.restore_link(self.q.now(), LinkId::from_index(l));
                self.settle(Res::Flows)?;
            }
            Ev::DegradeStart(i) => self.degrade_start(i)?,
            Ev::DegradeToggle(i) => self.degrade_toggle(i)?,
            Ev::DegradeEnd(i) => self.degrade_lift(i)?,
            Ev::HedgeCheck(id, seq) => self.hedge_check(id, seq)?,
            Ev::HedgeDone(id, epoch) => self.step_done(id, epoch, true)?,
        }
        // The instant is over once the queue head has left it; until
        // then a later event may change the same resources again.
        if !self.dirty.is_empty() && self.q.peek_time() != Some(self.q.now()) {
            self.flush_ticks();
        }
        Ok(())
    }

    fn run(mut self) -> Result<RunResult, SimError> {
        self.seed()?;
        while let Some(ev) = self.q.pop() {
            self.handle(ev)?;
            // Stop once every request has completed; remaining events
            // (scheduled deaths, retrain restores) cannot change stats.
            if self.remaining == 0 {
                break;
            }
        }
        Ok(self.finish())
    }

    fn finish(mut self) -> RunResult {
        // Detection counters live in the scorer until the run ends.
        if let Some((_, sc)) = &self.fs {
            self.fsreport.gray_flags = sc.gray_flags();
            self.fsreport.probes = sc.probes();
            self.fsreport.recoveries = sc.recoveries();
        }
        let makespan = self
            .stats
            .last_done
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);
        let wall = makespan.as_secs_f64().max(1e-12);

        // Overload accounting. The horizon for queue-occupancy
        // integration is the later of the last completion and the last
        // processed event (late arrivals can be shed after the final
        // completion).
        let horizon = makespan.max(self.q.now());
        let overload = self.ov.take().map(|mut ov| {
            let queue_mean = ov.pending.occupancy_mean(horizon);
            let queue_wait_mean = Time::from_secs_f64(ov.pending.wait_stats().mean());
            let tenants: Vec<TenantOverload> = ov
                .tenants
                .into_iter()
                .map(|mut ts| {
                    let mut t = ts.stats;
                    t.goodput_p50 = Time::from_secs_f64(ts.goodput_lat.p50().unwrap_or(0.0));
                    t.goodput_p99 = Time::from_secs_f64(ts.goodput_lat.p99().unwrap_or(0.0));
                    t.goodput_p999 = Time::from_secs_f64(ts.goodput_lat.p999().unwrap_or(0.0));
                    t
                })
                .collect();
            OverloadReport {
                breaker_activations: tenants.iter().map(|t| t.breaker_activations).sum(),
                tenants,
                queue_peak: ov.pending.peak(),
                queue_mean,
                queue_wait_mean,
                backpressure_stalls: ov.gate.as_ref().map_or(0, |g| g.stalls()),
                backpressure_stall_time: ov.gate.as_ref().map_or(Time::ZERO, |g| g.stall_time()),
            }
        });

        let st = &mut self.stats;
        let apps: Vec<AppResult> = self
            .cfg
            .apps
            .iter()
            .enumerate()
            .map(|(a, bench)| {
                let n = st.completed[a].max(1) as f64;
                let nt = st.completed[a].max(1) as u64;
                AppResult {
                    name: bench.name,
                    completed: st.completed[a],
                    latency: Time::from_secs_f64(st.latency_sum[a] / n),
                    latency_p50: Time::from_secs_f64(st.latencies[a].p50().unwrap_or(0.0)),
                    latency_p99: Time::from_secs_f64(st.latencies[a].p99().unwrap_or(0.0)),
                    breakdown: Breakdown {
                        kernel: st.kernel[a] / nt,
                        restructure: st.restructure[a] / nt,
                        movement: st.movement[a] / nt,
                    },
                    throughput_rps: st.completed[a] as f64
                        / st.last_done[a].as_secs_f64().max(1e-12),
                }
            })
            .collect();

        // ---- energy ------------------------------------------------
        let cpu_model = CpuEnergyModel::default();
        let cpu_j = cpu_model.energy(wall, self.cpu.busy_core_secs());

        let mut accel_j = 0.0;
        if self.cfg.mode != Mode::AllCpu {
            for (bench, servers) in self.cfg.apps.iter().zip(&self.accel) {
                for (stage, server) in bench.stages.iter().zip(servers) {
                    let m = stage.kind.model();
                    let busy = server.busy_time().as_secs_f64();
                    accel_j += m.active_watts * busy + m.idle_watts * (wall - busy).max(0.0);
                }
            }
        }

        let drx_model = DrxEnergyModel::for_clock(self.cfg.drx.clock);
        let units = self.layout.drx_unit_count(self.cfg.mode) as f64;
        let glue = if self.cfg.mode == Mode::Dmx(Placement::BumpInTheWire) {
            drx_model.glue_watts * units * wall
        } else if self.cfg.mode == Mode::Dmx(Placement::Standalone) {
            // One shared mux + glue per card.
            drx_model.glue_watts * units * 0.5 * wall
        } else {
            0.0
        };
        let drx_j = if units > 0.0 {
            self.drx_dynamic_j + drx_model.static_watts * units * wall + glue
        } else {
            0.0
        };

        let pcie_model = PcieEnergyModel::default().scaled_for_gen(self.cfg.gen);
        let bytes: f64 = self.flows.link_bytes().iter().sum();
        let pcie_j = pcie_model.transfer_energy(bytes).as_joules()
            + pcie_model
                .switch_static_energy(self.layout.switch_count(), makespan)
                .as_joules();

        RunResult {
            apps,
            makespan,
            energy: EnergyReport {
                cpu_j,
                accel_j,
                drx_j,
                pcie_j,
            },
            notify_counts: self.driver.counts(),
            faults: self.report,
            overload,
            integrity: self.ireport,
            crashes: self.creport,
            failslow: self.fsreport,
        }
    }
}

/// Runs one system simulation.
///
/// Deterministic: identical configs produce identical results, fault
/// injection included — the fault schedule is a pure function of
/// `(config, seed)`.
///
/// # Panics
///
/// Panics if the config has no applications, a malformed one, or no
/// requests; use [`try_simulate`] to handle invalid configs as errors.
pub fn simulate(cfg: &SystemConfig) -> RunResult {
    match try_simulate(cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`simulate`].
pub fn try_simulate(cfg: &SystemConfig) -> Result<RunResult, SimError> {
    check_apps(cfg)?;
    if cfg.requests_per_app == 0 {
        return Err(SimError::NoRequests);
    }
    if cfg.inflight_per_app == 0 {
        return Err(SimError::NoInflight);
    }
    Sim::new(cfg, false).run()
}

/// Rejects apps the engine cannot walk: none at all, or one without
/// stages, without exactly one edge between consecutive stages, or with
/// more edges than unit ids can number. Runs before [`Sim::new`], whose
/// layout indexes every app's stages.
fn check_apps(cfg: &SystemConfig) -> Result<(), SimError> {
    if cfg.apps.is_empty() {
        return Err(SimError::NoApps);
    }
    match cfg
        .apps
        .iter()
        .position(|a| a.edges.len() + 1 != a.stages.len() || a.edges.len() > MAX_EDGES)
    {
        Some(app) => Err(SimError::MalformedApp(app)),
        None => Ok(()),
    }
}

/// An externally-driven simulation of one server: the same engine as
/// [`simulate`] — every layer included — but arrivals are *injected*
/// by the caller and events are pumped horizon by horizon instead of
/// run to completion. This is the partition-facing form of the engine:
/// a fleet run wraps one `Stepped` per server inside a
/// `dmx_sim::partition::Partition` and drives them all under
/// conservative synchronization.
///
/// The caller's obligations mirror the engine's lookahead promise:
/// injections must be timestamped at or after every horizon already
/// pumped past (cross-partition messages delivered at window starts
/// satisfy this by construction).
pub struct Stepped<'a> {
    sim: Sim<'a>,
}

impl fmt::Debug for Stepped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stepped")
            .field("now", &self.sim.q.now())
            .field("outstanding", &self.sim.remaining)
            .finish_non_exhaustive()
    }
}

impl<'a> Stepped<'a> {
    /// Builds the server simulation and seeds its fault/crash/degrade
    /// schedules. Arrivals are not seeded — inject them.
    ///
    /// # Errors
    ///
    /// `NoApps` without applications, `MalformedApp` for an app the
    /// engine cannot walk; `NoOverload` unless the config carries a
    /// non-inert overload section (the admission machinery is what
    /// receives injected arrivals).
    pub fn new(cfg: &'a SystemConfig) -> Result<Stepped<'a>, SimError> {
        check_apps(cfg)?;
        let mut sim = Sim::new(cfg, true);
        if sim.ov.is_none() {
            return Err(SimError::NoOverload);
        }
        sim.seed()?;
        Ok(Stepped { sim })
    }

    /// Timestamp of the next pending event while work is outstanding;
    /// `None` when every injected arrival has resolved (mirroring
    /// [`simulate`]'s early stop, so far-future bookkeeping events —
    /// scheduled deaths, retrain restores — don't keep a fleet alive).
    pub fn next_time(&self) -> Option<Time> {
        if self.sim.remaining > 0 {
            self.sim.q.peek_time()
        } else {
            None
        }
    }

    /// Timestamp of the earliest pending event of any kind, or `None`
    /// when the queue is empty. Unlike [`next_time`](Stepped::next_time)
    /// it includes the bookkeeping events (crashes, recoveries,
    /// degrades) that still run while no work is outstanding whenever
    /// a pump passes them.
    pub(crate) fn earliest_pending(&self) -> Option<Time> {
        self.sim.q.peek_time()
    }

    /// Current local simulation time.
    pub fn now(&self) -> Time {
        self.sim.q.now()
    }

    /// Schedules one arrival of tenant `app` at absolute time `at`
    /// (which must not precede any horizon already pumped past),
    /// stamped with an opaque caller `tag`. The arrival runs the full
    /// admission path and will resolve exactly once — as a completion
    /// or a shed — in [`drain_resolutions`], whose [`Resolution`]
    /// echoes `tag` verbatim. The fleet's load balancer stamps each
    /// dispatch attempt with a unique tag and matches every resolution
    /// to its attempt by it.
    ///
    /// [`drain_resolutions`]: Stepped::drain_resolutions
    pub fn inject_arrival_tagged(&mut self, app: usize, at: Time, tag: u64) {
        self.sim.remaining += 1;
        self.sim.q.schedule_at(at, Ev::Arrival(app, tag));
    }

    /// Processes every pending event strictly before `horizon`. The
    /// ticks of every resource those events changed are scheduled
    /// before it returns, so [`next_time`](Stepped::next_time) sees
    /// them.
    ///
    /// # Errors
    ///
    /// Propagates engine errors ([`SimError`]) from event handlers.
    pub fn pump_until(&mut self, horizon: Time) -> Result<(), SimError> {
        while self.sim.q.peek_time().is_some_and(|t| t < horizon) {
            let ev = self.sim.q.pop().expect("peeked event");
            self.sim.handle(ev)?;
        }
        Ok(())
    }

    /// Takes the resolutions recorded since the last call, in
    /// resolution (time) order.
    pub fn drain_resolutions(&mut self) -> Vec<Resolution> {
        std::mem::take(&mut self.sim.resolutions)
    }

    /// [`drain_resolutions`](Stepped::drain_resolutions) in place: the
    /// buffer keeps its capacity, so a caller that forwards each
    /// resolution allocates nothing in steady state.
    pub(crate) fn resolutions_drain(&mut self) -> std::vec::Drain<'_, Resolution> {
        self.sim.resolutions.drain(..)
    }

    /// Engine events this server has processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.q.events_processed()
    }

    /// Finishes the run and produces the server's [`RunResult`].
    pub fn finish(self) -> RunResult {
        self.sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::BenchmarkId;
    use dmx_sim::CrashTarget;
    use integrity::ChecksumMode;

    fn apps(n: usize) -> Vec<BenchmarkRef> {
        (0..n).map(|i| BenchmarkId::FIVE[i % 5].build()).collect()
    }

    fn quick(mode: Mode, n: usize) -> RunResult {
        let mut cfg = SystemConfig::latency(mode, apps(n));
        cfg.requests_per_app = 3;
        simulate(&cfg)
    }

    #[test]
    fn all_requests_complete() {
        for mode in [
            Mode::AllCpu,
            Mode::MultiAxl,
            Mode::Dmx(Placement::BumpInTheWire),
            Mode::Dmx(Placement::Integrated),
            Mode::Dmx(Placement::Standalone),
            Mode::Dmx(Placement::PcieIntegrated),
        ] {
            let r = quick(mode, 2);
            for a in &r.apps {
                assert_eq!(a.completed, 3, "{} under {:?}", a.name, mode);
                assert!(a.latency > Time::ZERO);
            }
            assert!(r.makespan > Time::ZERO);
            assert!(r.energy.total() > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let a = quick(Mode::MultiAxl, 3);
        let b = quick(Mode::MultiAxl, 3);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.mean_latency(), b.mean_latency());
    }

    #[test]
    fn dmx_is_faster_than_baseline() {
        let base = quick(Mode::MultiAxl, 1);
        let dmx = quick(Mode::Dmx(Placement::BumpInTheWire), 1);
        let speedup = base.mean_latency().as_secs_f64() / dmx.mean_latency().as_secs_f64();
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn baseline_restructure_dominates() {
        // Fig. 3/12a: restructuring is 57.7-73.2% of Multi-Axl runtime.
        let r = quick(Mode::MultiAxl, 1);
        let b = r.mean_breakdown();
        let frac = b.restructure.as_secs_f64() / b.total().as_secs_f64();
        assert!(frac > 0.4, "restructure fraction {frac}");
    }

    #[test]
    fn dmx_restructure_share_is_small() {
        let r = quick(Mode::Dmx(Placement::BumpInTheWire), 1);
        let b = r.mean_breakdown();
        let frac = b.restructure.as_secs_f64() / b.total().as_secs_f64();
        assert!(frac < 0.35, "restructure fraction {frac}");
    }

    #[test]
    fn concurrency_slows_the_baseline_more() {
        let base1 = quick(Mode::MultiAxl, 1).mean_latency().as_secs_f64();
        let base10 = quick(Mode::MultiAxl, 10).mean_latency().as_secs_f64();
        let dmx1 = quick(Mode::Dmx(Placement::BumpInTheWire), 1)
            .mean_latency()
            .as_secs_f64();
        let dmx10 = quick(Mode::Dmx(Placement::BumpInTheWire), 10)
            .mean_latency()
            .as_secs_f64();
        let base_blowup = base10 / base1;
        let dmx_blowup = dmx10 / dmx1;
        assert!(
            base_blowup > 1.5 * dmx_blowup,
            "baseline {base_blowup} vs dmx {dmx_blowup}"
        );
    }

    #[test]
    fn all_cpu_is_slowest() {
        let allcpu = quick(Mode::AllCpu, 1).mean_latency();
        let base = quick(Mode::MultiAxl, 1).mean_latency();
        assert!(allcpu > base);
    }

    #[test]
    fn throughput_mode_pipelines() {
        let mut lat = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), apps(1));
        lat.requests_per_app = 8;
        let mut thr = SystemConfig::throughput(Mode::Dmx(Placement::BumpInTheWire), apps(1));
        thr.requests_per_app = 8;
        let rl = simulate(&lat);
        let rt = simulate(&thr);
        assert!(
            rt.total_throughput() > 1.3 * rl.total_throughput(),
            "{} vs {}",
            rt.total_throughput(),
            rl.total_throughput()
        );
    }

    fn crash_cfg(mode: Mode, n: usize, crashes: Vec<CrashEvent>) -> SystemConfig {
        let mut cfg = SystemConfig::latency(mode, apps(n));
        cfg.requests_per_app = 3;
        cfg.faults = Some(FaultConfig {
            crashes,
            ..FaultConfig::none()
        });
        cfg
    }

    #[test]
    fn device_crash_with_recovery_completes_everything() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let half = clean.makespan.scale(0.5);
        let r = simulate(&crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![CrashEvent {
                target: CrashTarget::Device(units::bitw(0, 0)),
                at: half,
                down_for: Some(clean.makespan),
            }],
        ));
        for a in &r.apps {
            assert_eq!(a.completed, 3, "{}", a.name);
        }
        assert_eq!(r.crashes.crashes, 1);
        assert_eq!(r.crashes.crash_killed, 0);
        // A surprise removal mid-run must cost something somewhere:
        // either batches migrated off the unit or later batches ran on
        // the host fallback path.
        assert!(
            r.crashes.migrations > 0 || r.faults.rerouted_batches > 0,
            "crash had no observable effect: {:?}",
            r.crashes
        );
        assert!(r.makespan >= clean.makespan);
    }

    #[test]
    fn permanent_driver_crash_accounts_every_request() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let r = simulate(&crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![CrashEvent {
                target: CrashTarget::Driver,
                at: clean.makespan.scale(0.5),
                down_for: None,
            }],
        ));
        let completed: usize = r.apps.iter().map(|a| a.completed).sum();
        // Conservation: every launched request either finished before
        // the driver died or is accounted as crash-killed.
        assert_eq!(completed as u64 + r.crashes.crash_killed, 6);
        assert!(r.crashes.crash_killed > 0, "{:?}", r.crashes);
        assert_eq!(r.crashes.readmissions, 0);
    }

    #[test]
    fn driver_crash_restart_recovers() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let r = simulate(&crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![CrashEvent {
                target: CrashTarget::Driver,
                at: clean.makespan.scale(0.5),
                down_for: Some(clean.makespan.scale(0.25)),
            }],
        ));
        for a in &r.apps {
            assert_eq!(a.completed, 3, "{}", a.name);
        }
        assert_eq!(r.crashes.crash_killed, 0);
        assert!(r.crashes.migrations > 0, "{:?}", r.crashes);
        assert_eq!(r.crashes.readmissions, 1);
        assert!(r.makespan > clean.makespan);
    }

    #[test]
    fn subtree_crash_blocks_then_recovers() {
        let clean = quick(Mode::Dmx(Placement::PcieIntegrated), 2);
        let r = simulate(&crash_cfg(
            Mode::Dmx(Placement::PcieIntegrated),
            2,
            vec![CrashEvent {
                target: CrashTarget::Subtree(0),
                at: clean.makespan.scale(0.5),
                down_for: Some(clean.makespan.scale(0.5)),
            }],
        ));
        for a in &r.apps {
            assert_eq!(a.completed, 3, "{}", a.name);
        }
        assert_eq!(r.crashes.crashes, 1);
        assert_eq!(r.crashes.crash_killed, 0);
        assert!(
            r.crashes.migrations > 0 || r.crashes.crash_stalls > 0,
            "dark subtree had no observable effect: {:?}",
            r.crashes
        );
    }

    #[test]
    fn future_crash_never_fires() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let r = simulate(&crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![CrashEvent {
                target: CrashTarget::Driver,
                at: clean.makespan + Time::from_secs(1),
                down_for: None,
            }],
        ));
        // The run ends before the scheduled crash: timing matches the
        // clean run exactly (checkpoints are bookkeeping, not time),
        // and nothing beyond checkpointing happened.
        assert_eq!(r.makespan, clean.makespan);
        assert!(r.crashes.checkpoints > 0);
        assert_eq!(r.crashes.crashes, 0);
        assert_eq!(r.crashes.migrations, 0);
        assert_eq!(r.crashes.crash_killed, 0);
        assert_eq!(r.crashes.crash_stalls, 0);
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let cfg = crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![
                CrashEvent {
                    target: CrashTarget::Device(units::bitw(0, 0)),
                    at: clean.makespan.scale(0.3),
                    down_for: Some(clean.makespan.scale(0.2)),
                },
                CrashEvent {
                    target: CrashTarget::Driver,
                    at: clean.makespan.scale(0.6),
                    down_for: Some(clean.makespan.scale(0.1)),
                },
            ],
        );
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(format!("{:?}", a.crashes), format!("{:?}", b.crashes));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.mean_latency(), b.mean_latency());
    }

    #[test]
    fn crash_discard_keeps_integrity_ledger_conserved() {
        let clean = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        let mut cfg = crash_cfg(
            Mode::Dmx(Placement::BumpInTheWire),
            2,
            vec![CrashEvent {
                target: CrashTarget::Driver,
                at: clean.makespan.scale(0.4),
                down_for: None,
            }],
        );
        if let Some(f) = cfg.faults.as_mut() {
            f.seed = 7;
            f.sdc.spad_flip_rate = 2e-7;
            f.sdc.dma_flip_rate = 1e-7;
        }
        cfg.integrity = Some(IntegrityConfig::checked(ChecksumMode::PerHop));
        let r = simulate(&cfg);
        let i = r.integrity;
        assert!(i.injected > 0, "raise the rates: nothing injected");
        assert_eq!(
            i.injected,
            i.detected + i.escaped + r.crashes.flips_discarded,
            "ledger leak: {i:?} {:?}",
            r.crashes
        );
    }

    #[test]
    fn seed_schedules_one_tick_per_changed_resource() {
        // Twelve closed-loop requests each start a host-pool kernel at
        // t = 0: the core pool changes twelve times in that instant and
        // gets one tick, not one per change.
        let mut cfg = SystemConfig::latency(Mode::AllCpu, apps(3));
        cfg.inflight_per_app = 4;
        let mut sim = Sim::new(&cfg, false);
        sim.seed().unwrap();
        assert_eq!(sim.cpu.active_jobs(), 12);
        assert_eq!(sim.q.len(), 1);
        assert!(matches!(sim.q.pop(), Some(Ev::Tick(Res::Cpu, _))));
    }

    #[test]
    fn run_constants_match_the_models() {
        // Every table entry is the model call the walk would make per
        // request, on the same inputs; DRX entries exist where a unit
        // restructures the edge.
        for mode in [
            Mode::AllCpu,
            Mode::MultiAxl,
            Mode::Dmx(Placement::Standalone),
            Mode::Dmx(Placement::BumpInTheWire),
        ] {
            let mut cfg = SystemConfig::latency(mode, apps(3));
            cfg.queue_bytes = 4 << 20;
            let sim = Sim::new(&cfg, false);
            for (a, app) in cfg.apps.iter().enumerate() {
                let costs = &sim.costs[a];
                for (stage, cost) in app.stages.iter().zip(&costs.stages) {
                    let model = stage.kind.model();
                    assert_eq!(cost.service, model.service_time(stage.input_bytes));
                    let work = model.cpu_time(stage.input_bytes).as_secs_f64() * KERNEL_CAP;
                    assert_eq!(cost.cpu_work, work);
                }
                for (e, (edge, cost)) in app.edges.iter().zip(&costs.edges).enumerate() {
                    assert_eq!(
                        cost.host_work,
                        cfg.cpu.restructure_core_seconds(&edge.profile)
                    );
                    assert_eq!(cost.host_cap, cfg.cpu.restructure_core_cap(&edge.profile));
                    let handshakes = |bytes: u64| match mode {
                        Mode::AllCpu | Mode::MultiAxl => Time::ZERO,
                        _ => cfg.driver.irq_latency * (bytes.div_ceil(4 << 20) - 1),
                    };
                    assert_eq!(cost.handshake_in, handshakes(edge.bytes_in));
                    assert_eq!(cost.handshake_out, handshakes(edge.bytes_out));
                    if sim.layout.unit_of(a, e).is_some() {
                        let drx = edge.drx_cost(&cfg.drx);
                        let energy = DrxEnergyModel::for_clock(cfg.drx.clock);
                        assert_eq!(cost.drx_time, drx.time);
                        assert_eq!(cost.drx_joules, drx.dynamic_joules(&energy));
                    } else {
                        assert_eq!((cost.drx_time, cost.drx_joules), (Time::ZERO, 0.0));
                    }
                }
            }
        }
    }

    #[test]
    fn events_stay_24_bytes() {
        // One tick variant carrying its resource costs no more than the
        // 16-byte payloads beside it.
        assert_eq!(std::mem::size_of::<Ev>(), 24);
    }

    #[test]
    fn marks_keep_last_change_order() {
        // Ticks flush in the order of each resource's last change: the
        // order ticks pushed at every change would have fired in when
        // two fall due at one instant.
        let cfg = SystemConfig::latency(Mode::Dmx(Placement::PcieIntegrated), apps(2));
        let mut sim = Sim::new(&cfg, false);
        for r in [Res::Cpu, Res::Flows, Res::Shared(0), Res::Cpu] {
            sim.mark(r);
        }
        sim.mark(Res::Flows);
        sim.mark(Res::Flows);
        assert_eq!(sim.dirty, [Res::Shared(0), Res::Cpu, Res::Flows]);
    }

    #[test]
    fn flow_retired_by_a_degrade_completes_in_that_instant() {
        // A link degrade delivered in the instant a transfer finishes,
        // ahead of the transfer's tick, retires the flow inside
        // `degrade_link`'s advance. Its completion must be handled in
        // that instant, not left for the next flow change: this run has
        // none, so the request would never finish.
        let mut cfg = SystemConfig::latency(Mode::MultiAxl, apps(1));
        cfg.requests_per_app = 1;
        cfg.faults = Some(FaultConfig {
            degrades: vec![DegradeEvent {
                target: DegradeTarget::Link(0),
                at: Time::ZERO,
                down_for: None,
                slowdown: 2.0,
                jitter: 0.0,
                duty: None,
            }],
            ..FaultConfig::none()
        });
        // Without the degrade: the first transfer, and the instant it
        // finishes computed on a clone of the network.
        let mut probe = Sim::new(&cfg, false);
        probe.degrade_sched.clear();
        probe.seed().unwrap();
        while probe.flows.active_flows() == 0 {
            let ev = probe.q.pop().expect("a transfer starts");
            probe.handle(ev).unwrap();
        }
        // The transfer holds the newest job id.
        let fid = probe.next_job;
        assert!(probe.jobs.contains_key(&fid));
        let mut net = probe.flows.clone();
        let done = net.next_event(probe.q.now()).unwrap();
        net.advance(done);
        assert_eq!(net.pop_finished(), Some(fid));
        // The same run with the degrade seeded at that instant, so it
        // is delivered before the transfer's tick.
        let mut sim = Sim::new(&cfg, false);
        sim.degrade_sched[0].at = done;
        sim.seed().unwrap();
        while sim.q.peek_time().is_some_and(|t| t <= done) {
            let ev = sim.q.pop().unwrap();
            sim.handle(ev).unwrap();
        }
        assert_eq!(sim.fsreport.link_degrades, 1);
        assert!(
            !sim.jobs.contains_key(&fid),
            "the finished transfer waits for a later flow change"
        );
        while let Some(ev) = sim.q.pop() {
            sim.handle(ev).unwrap();
        }
        assert_eq!(sim.remaining, 0, "a request never finished");
    }

    #[test]
    fn cancelled_jobs_finish_nothing_and_own_no_flow() {
        // A torn-down attempt's transfer: its completion must not finish
        // the step, and aborting its flow must not name the request as an
        // owner to tear down again.
        let mut cfg = SystemConfig::latency(Mode::MultiAxl, apps(1));
        cfg.requests_per_app = 1;
        let in_flight = |cfg| {
            let mut sim = Sim::new(cfg, false);
            sim.seed().unwrap();
            while sim.flows.active_flows() == 0 {
                let ev = sim.q.pop().expect("a transfer starts");
                sim.handle(ev).unwrap();
            }
            let step = sim.reqs.get(0).unwrap().step;
            sim.cancel_attempt(0);
            assert!(sim.jobs.is_empty());
            (sim, step)
        };
        let (mut sim, step) = in_flight(&cfg);
        while let Some(ev) = sim.q.pop() {
            sim.handle(ev).unwrap();
        }
        assert_eq!(sim.flows.active_flows(), 0, "the transfer finished");
        assert_eq!(sim.reqs.get(0).unwrap().step, step);
        assert_eq!(sim.remaining, 1);

        let (mut sim, _) = in_flight(&cfg);
        let links = sim.layout.topo.subtree_links(sim.layout.topo.root());
        assert_eq!(sim.abort_flows_on(&links).unwrap(), Vec::<u64>::new());
        assert_eq!(sim.flows.active_flows(), 0, "the transfer was aborted");
    }

    #[test]
    fn energy_components_present() {
        let r = quick(Mode::Dmx(Placement::BumpInTheWire), 2);
        assert!(r.energy.cpu_j > 0.0);
        assert!(r.energy.accel_j > 0.0);
        assert!(r.energy.drx_j > 0.0);
        assert!(r.energy.pcie_j > 0.0);
        let base = quick(Mode::MultiAxl, 2);
        assert_eq!(base.energy.drx_j, 0.0);
    }
}
