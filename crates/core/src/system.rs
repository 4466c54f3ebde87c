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

use crate::apps::{BenchmarkRef, DrxCost};
use crate::driver::DriverState;
use crate::failslow::{FailSlowConfig, FailSlowReport, HealthScorer};
use crate::integrity::{ChecksumMode, IntegrityConfig, IntegrityReport};
use crate::overload::{
    tenant_skeletons, Breaker, OverloadConfig, OverloadReport, ShedPolicy, TenantOverload,
    TokenBucket,
};
use crate::params::{
    DriverParams, DrxFleetParams, RecoveryParams, LATENCY_REQUESTS, THROUGHPUT_INFLIGHT,
    THROUGHPUT_REQUESTS,
};
use crate::placement::{build_layout, Mode, Placement, ServerLayout};
use dmx_cpu::{CpuEnergyModel, HostCpuConfig};
use dmx_drx::{Derate, DrxConfig, DrxEnergyModel};
use dmx_pcie::{
    transfer_faults, CreditGate, FabricError, FlowId, FlowNet, Gen, LinkId, NodeId,
    PcieEnergyModel, ReplayParams,
};
use dmx_sim::health::Route;
use dmx_sim::{
    ArrivalGen, BoundedQueue, CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, EventQueue,
    FastMap, FastSet, FaultConfig, FaultPlan, FifoServer, IdMap, Percentiles, PsJobId, PsPool,
    SdcDomain, SplitMix64, Time,
};
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
    /// Materialize one observation event per [`ReplayParams::chunk_bytes`]
    /// of DMA progress instead of fast-forwarding a transfer to its
    /// single closed-form completion event (the default). Chunk events
    /// are pure observations — they never advance the fluid accounting,
    /// so every result is bit-identical with the flag on or off; the
    /// mode exists to validate the fast-forward invariant and to give
    /// chunk-granular hooks (tracing, future per-chunk models) a place
    /// to attach. Costs one event per 256 KB in flight.
    pub chunk_exact: bool,
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
            chunk_exact: false,
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
    /// The layout is missing the DRX unit a step needs.
    MissingDrxUnit {
        /// Application index.
        app: usize,
        /// Pipeline edge index.
        stage: usize,
    },
    /// A routing or flow-network error from the PCIe fabric.
    Fabric(FabricError),
    /// A stepped (externally-driven) simulation needs a live overload
    /// section: the admission machinery is what accepts injections.
    NoOverload,
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
            SimError::MissingDrxUnit { app, stage } => {
                write!(f, "layout has no DRX unit for app {app} edge {stage}")
            }
            SimError::Fabric(e) => write!(f, "fabric error: {e}"),
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
    /// The bump-in-the-wire DRX serving `(app, stage)`.
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

    /// Inverse of [`bitw`]: the `(app, stage)` a bump-in-the-wire unit
    /// id names, or `None` for other unit kinds.
    pub fn bitw_of(unit: u64) -> Option<(usize, usize)> {
        if (0x0100_0000..0x0200_0000).contains(&unit) {
            let v = unit - 0x0100_0000;
            Some(((v / 256) as usize, (v % 256) as usize))
        } else {
            None
        }
    }

    /// Inverse of [`card`]: the app whose standalone card this unit id
    /// names, or `None` for other unit kinds.
    pub fn card_of(unit: u64) -> Option<usize> {
        if (0x0200_0000..0x0300_0000).contains(&unit) {
            Some((unit - 0x0200_0000) as usize)
        } else {
            None
        }
    }
}

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

/// What the crash-stop layer did during a run: surprise removals,
/// hot-plug re-admissions, checkpointed chain migrations, and the
/// requests no surviving path could save. All-zero when the fault
/// config schedules no crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Crash events that fired (device, subtree, or driver).
    pub crashes: u64,
    /// Outage windows that ended with the component re-admitted.
    pub readmissions: u64,
    /// Chain-hop checkpoints taken by the driver.
    pub checkpoints: u64,
    /// Requests torn off a crashed component and restarted from their
    /// last checkpoint on surviving resources.
    pub migrations: u64,
    /// Work those migrations threw away (time since the checkpoint).
    pub lost_progress: Time,
    /// Requests whose data died with a permanently-removed component.
    pub crash_killed: u64,
    /// Requests parked waiting out a finite outage window.
    pub crash_stalls: u64,
    /// Total time requests spent parked on crashed components.
    pub stall_time: Time,
    /// Pending silent flips that left the system inside crash-killed
    /// requests. Keeps the integrity ledger conserved under crashes:
    /// injected = detected + escaped + discarded.
    pub flips_discarded: u64,
}

impl CrashReport {
    /// True if any crash fired or any recovery action ran.
    pub fn any(&self) -> bool {
        *self != CrashReport::default()
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

#[derive(Debug)]
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
    /// each attempt re-rolls its exposure.
    reexecs: u32,
    /// Integrity checking disabled after `max_reexec` was exhausted;
    /// any further corruption escapes.
    unchecked: bool,
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
    CpuTick(u64),
    FlowTick(u64),
    /// Chunk-exact mode only: one in-flight transfer crossed a
    /// `chunk_bytes` delivery boundary (generation-tagged like
    /// `FlowTick`; stale ticks are dropped). Pure observation —
    /// the handler never advances the fluid accounting, which is
    /// what keeps chunk-exact runs bit-identical to fast ones.
    ChunkTick(u64),
    SharedTick(usize, u64),
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
    /// A re-execution backoff elapsed; the request restarts from its
    /// last verified boundary.
    Reexec(u64, u32),
    /// Crash event `i` of the schedule fires: surprise removal.
    Crash(usize),
    /// Crash event `i`'s outage window ends: hot-plug re-admission.
    CrashRecover(usize),
    /// A parked or migrated request resumes its chain (epoch-tagged
    /// like `StepDone`, so teardown invalidates stale resumes).
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

/// One open-loop tenant: its arrival stream, rate limiter, and
/// accounting.
#[derive(Debug)]
struct TenantState {
    /// Arrival-gap generator; `None` in closed-loop (breaker/gate-only)
    /// configs.
    arrivals: Option<ArrivalGen>,
    /// Token bucket; `None` when the rate is unlimited.
    bucket: Option<TokenBucket>,
    /// Arrivals still to generate.
    to_offer: usize,
    /// Counters destined for the report.
    stats: TenantOverload,
    /// End-to-end latencies of within-deadline completions.
    goodput_lat: Percentiles,
}

/// A request admitted but waiting for an inflight slot.
#[derive(Debug)]
struct Pending {
    app: usize,
    arrived: Time,
    deadline: Time,
    /// Caller's opaque arrival tag, echoed in the resolution.
    tag: u64,
}

/// Live state of the overload-control layer; `None` on `Sim` when the
/// config has no (or an inert) overload section, so the hot path is
/// byte-identical to the pre-overload simulator.
#[derive(Debug)]
struct OvState {
    cfg: OverloadConfig,
    /// Arrivals drive the run (vs closed-loop with breaker/gate only).
    open_loop: bool,
    tenants: Vec<TenantState>,
    /// Admitted-but-not-dispatched requests, EDF order (key =
    /// absolute deadline in ps).
    pending: BoundedQueue<Pending>,
    /// Requests currently dispatched into the chain.
    inflight: usize,
    /// Per-DRX-unit circuit breakers (created on first use).
    breakers: FastMap<u64, Breaker>,
    /// Ingress credit gate; `None` when backpressure is disabled.
    gate: Option<CreditGate>,
}

impl OvState {
    fn new(
        o: &OverloadConfig,
        apps: &[BenchmarkRef],
        requests_per_app: usize,
        external: bool,
    ) -> OvState {
        // Externally-driven simulations (fleet servers) receive every
        // arrival by injection: the admission/EDF/shed machinery runs,
        // but no tenant generates its own stream.
        let open_loop = external || !o.arrivals.is_empty();
        // Independent per-tenant sub-streams drawn from the root seed.
        let mut root = SplitMix64::new(o.seed);
        let tenants =
            tenant_skeletons(apps)
                .into_iter()
                .enumerate()
                .map(|(i, stats)| {
                    let sub = root.next_u64();
                    TenantState {
                        arrivals: (open_loop && !external).then(|| {
                            ArrivalGen::new(o.arrivals[i % o.arrivals.len()], SplitMix64::new(sub))
                        }),
                        bucket: o.admission.tokens_per_sec.is_finite().then(|| {
                            TokenBucket::new(o.admission.tokens_per_sec, o.admission.burst)
                        }),
                        to_offer: if external { 0 } else { requests_per_app },
                        stats,
                        goodput_lat: Percentiles::new(),
                    }
                })
                .collect();
        OvState {
            cfg: o.clone(),
            open_loop,
            tenants,
            pending: BoundedQueue::new(o.queue_capacity.max(1)),
            inflight: 0,
            breakers: FastMap::default(),
            gate: (o.ingress_queue_bytes > 0).then(|| CreditGate::new(o.ingress_queue_bytes)),
        }
    }
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

/// Moves every job of `jobs` that `owned` picks into `cancelled`, so
/// its completion is dropped when it arrives.
fn cancel_jobs<V>(
    jobs: &mut FastMap<u64, V>,
    cancelled: &mut FastSet<u64>,
    owned: impl Fn(&V) -> bool,
) {
    jobs.retain(|&j, v| {
        if owned(v) {
            cancelled.insert(j);
            return false;
        }
        true
    });
}

struct Sim<'a> {
    cfg: &'a SystemConfig,
    layout: ServerLayout,
    q: EventQueue<Ev>,
    flows: FlowNet,
    cpu: PsPool,
    accel: Vec<Vec<FifoServer>>,
    /// Bump-in-the-wire DRXs, one per (app, stage).
    bitw: Vec<Vec<FifoServer>>,
    /// Standalone cards, one per app.
    cards: Vec<FifoServer>,
    /// Shared DRX pools (Integrated: one; PCIe-Integrated: per switch).
    shared: Vec<PsPool>,
    driver: DriverState,
    reqs: IdMap<Req>,
    steps: Vec<Vec<Step>>,
    next_req: u64,
    next_job: u64,
    cpu_jobs: FastMap<PsJobId, (u64, Time)>,
    flow_jobs: FastMap<FlowId, (u64, Time)>,
    shared_jobs: Vec<FastMap<PsJobId, u64>>,
    stats: AppStatsCols,
    drx_dynamic_j: f64,
    /// Per-(app, edge) scaled DRX cost, filled on first submit. The
    /// global `Edge::drx_cost` cache is keyed by `DrxConfig` behind a
    /// mutex; within one run the config never changes, so this skips
    /// the hash + lock on the hot restructuring path.
    drx_costs: Vec<Vec<Option<DrxCost>>>,
    /// Per-(app, edge) in-order restructuring gate: the DRX/host data
    /// queues process one batch at a time, in arrival order (Sec. V).
    /// `Some(id)` is the request currently holding the gate.
    restr_active: Vec<Vec<Option<u64>>>,
    restr_queue: Vec<Vec<std::collections::VecDeque<u64>>>,
    /// Compiled fault schedule; `None` when the layer is disabled or
    /// the config is inert (so the zero-fault path is exactly the
    /// pre-fault-layer simulator).
    plan: Option<FaultPlan>,
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
    /// Fail-slow mitigation policy; `None` when disabled or inert (so
    /// the unwatched path is exactly the pre-fail-slow simulator).
    fs: Option<FailSlowConfig>,
    /// Per-device health scorer; `Some` exactly when `fs` is.
    scorer: Option<HealthScorer>,
    fsreport: FailSlowReport,
    /// Host-side hedge duplicates in flight: CPU job id → request id.
    /// (Peer-DRX hedges schedule `HedgeDone` directly and need no map.)
    hedge_jobs: FastMap<u64, u64>,
    /// Chunk-exact mode: the (time, generation) of the one
    /// scheduled `ChunkTick`, so re-arming after observation-free
    /// mutations cannot double-schedule the same boundary.
    chunk_sched: Option<(Time, u64)>,
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
    fn new(cfg: &'a SystemConfig) -> Sim<'a> {
        Sim::new_ext(cfg, false)
    }

    /// Timed wrapper around [`Sim::build`]: construction cost feeds the
    /// process-global setup counter so `repro bench` can report the
    /// event loop's events/sec undistorted by system setup.
    fn new_ext(cfg: &'a SystemConfig, external: bool) -> Sim<'a> {
        let t0 = std::time::Instant::now();
        let sim = Sim::build(cfg, external);
        dmx_sim::record_setup_nanos(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        sim
    }

    fn build(cfg: &'a SystemConfig, external: bool) -> Sim<'a> {
        let layout = build_layout(cfg.mode, &cfg.apps, cfg.gen);
        let flows = FlowNet::new(layout.topo.link_bandwidths());
        let accel = cfg
            .apps
            .iter()
            .map(|a| a.stages.iter().map(|_| FifoServer::new(1)).collect())
            .collect();
        let bitw = cfg
            .apps
            .iter()
            .map(|a| a.stages.iter().map(|_| FifoServer::new(1)).collect())
            .collect();
        let cards = cfg.apps.iter().map(|_| FifoServer::new(1)).collect();
        let shared = match cfg.mode {
            Mode::Dmx(Placement::Integrated) => vec![PsPool::new(cfg.fleet.integrated_units)],
            Mode::Dmx(Placement::PcieIntegrated) => (0..layout.switch_count())
                .map(|_| PsPool::new(cfg.fleet.pcie_integrated_units))
                .collect(),
            _ => Vec::new(),
        };
        let steps = cfg.apps.iter().map(|a| steps_for(a, cfg.mode)).collect();
        let shared_jobs = shared.iter().map(|_| FastMap::default()).collect();
        let plan = cfg
            .faults
            .as_ref()
            .filter(|f| !f.is_inert())
            .map(|f| FaultPlan::new(f.clone()));
        let crash_sched = plan
            .as_ref()
            .map(|p| p.crash_schedule())
            .unwrap_or_default();
        let degrade_sched = plan
            .as_ref()
            .map(|p| p.degrade_schedule())
            .unwrap_or_default();
        let fs = cfg.failslow.filter(|f| !f.is_inert());
        Sim {
            cfg,
            layout,
            q: EventQueue::new(),
            flows,
            cpu: PsPool::new(cfg.cpu.cores as f64),
            accel,
            bitw,
            cards,
            shared,
            driver: match cfg.forced_driver {
                Some(mode) => DriverState::forced(cfg.driver, mode),
                None => DriverState::new(cfg.driver),
            },
            reqs: IdMap::default(),
            steps,
            next_req: 0,
            next_job: 0,
            cpu_jobs: FastMap::default(),
            flow_jobs: FastMap::default(),
            shared_jobs,
            stats: AppStatsCols::new(cfg.apps.len()),
            drx_dynamic_j: 0.0,
            drx_costs: cfg.apps.iter().map(|a| vec![None; a.edges.len()]).collect(),
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
            scorer: fs.map(|f| HealthScorer::new(f.scorer)),
            fs,
            fsreport: FailSlowReport::default(),
            hedge_jobs: FastMap::default(),
            chunk_sched: None,
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

    fn reschedule_cpu(&mut self) {
        let now = self.q.now();
        if let Some(t) = self.cpu.next_event(now) {
            self.q.schedule_at(t, Ev::CpuTick(self.cpu.generation()));
        }
    }

    fn reschedule_flows(&mut self) {
        let now = self.q.now();
        if let Some(t) = self.flows.next_event(now) {
            self.q.schedule_at(t, Ev::FlowTick(self.flows.generation()));
        }
        if self.cfg.chunk_exact {
            self.reschedule_chunks();
        }
    }

    /// Chunk-exact mode: arms the next chunk-boundary observation
    /// event, unless the same (time, generation) tick is already in
    /// the queue.
    fn reschedule_chunks(&mut self) {
        let now = self.q.now();
        let gen = self.flows.generation();
        if let Some(t) = self
            .flows
            .next_chunk_event(now, self.cfg.replay.chunk_bytes)
        {
            if self.chunk_sched != Some((t, gen)) {
                self.chunk_sched = Some((t, gen));
                self.q.schedule_at(t, Ev::ChunkTick(gen));
            }
        }
    }

    fn reschedule_shared(&mut self, pool: usize) {
        let now = self.q.now();
        if let Some(t) = self.shared[pool].next_event(now) {
            self.q
                .schedule_at(t, Ev::SharedTick(pool, self.shared[pool].generation()));
        }
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
        self.cpu_jobs.insert(jid, (req, extra_latency));
        self.cpu
            .insert(now, jid, Time::from_secs_f64(work_secs), cap);
        // Zero-work jobs may complete instantly.
        self.drain_cpu_finished()?;
        self.reschedule_cpu();
        Ok(())
    }

    fn drain_cpu_finished(&mut self) -> Result<(), SimError> {
        let now = self.q.now();
        while let Some(jid) = self.cpu.pop_finished() {
            if self.cancelled_jobs.remove(&jid) {
                // A torn-down attempt's job: its owner restarted from a
                // checkpoint, so this completion means nothing.
                continue;
            }
            if let Some(req) = self.hedge_jobs.remove(&jid) {
                // A host-side hedge duplicate: race it against the
                // primary via an epoch-tagged completion.
                if let Some(r) = self.reqs.get(req) {
                    let ep = r.epoch;
                    self.q.schedule_at(now, Ev::HedgeDone(req, ep));
                }
                continue;
            }
            let (req, lat) = self
                .cpu_jobs
                .remove(&jid)
                .ok_or(SimError::UntrackedJob(jid))?;
            self.schedule_step_done(now + lat, req)?;
        }
        Ok(())
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
        let route = self.layout.topo.try_route_shared(from, to)?;
        let fid = self.job_id();
        let mut bytes = bytes;
        let mut extra = extra_latency;
        // PCIe bit errors: corrupted chunks replay (extra bytes on the
        // wire + turnaround latency); an error burst retrains the
        // transfer's first link at degraded bandwidth for a while.
        if let Some(plan) = &self.plan {
            let tf = transfer_faults(plan, &self.cfg.replay, fid, bytes);
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
                // Replays on a transfer into a DRX count against that
                // unit's circuit breaker.
                if let Some(unit) = fault_unit {
                    let app = self.reqs.get(req).map(|r| r.app);
                    if let Some(app) = app {
                        self.breaker_faults(unit, app, tf.replays);
                    }
                }
            }
        }
        self.flow_jobs.insert(fid, (req, route.latency + extra));
        self.flows.try_insert(now, fid, bytes, &route.links)?;
        self.drain_flow_finished()?;
        self.reschedule_flows();
        Ok(())
    }

    /// Feeds `count` fault events on `unit` into its circuit breaker,
    /// attributing any resulting trip to tenant `app`. No-op without an
    /// enabled breaker.
    fn breaker_faults(&mut self, unit: u64, app: usize, count: u64) {
        let now = self.q.now();
        let Some(ov) = self.ov.as_mut() else { return };
        if !ov.cfg.breaker.enabled {
            return;
        }
        let p = ov.cfg.breaker;
        let br = ov.breakers.entry(unit).or_default();
        let before = br.activations();
        for _ in 0..count {
            br.record_fault(now, &p);
        }
        let after = br.activations();
        ov.tenants[app].stats.breaker_activations += after - before;
    }

    /// Draws the silent bit flips batch `id` picks up while its
    /// current step exposes `bytes` bytes to `domain` on `device`, and
    /// poisons the request accordingly. Returns the flip count (for
    /// breaker attribution). SDC is *silent*: injection never perturbs
    /// timing — only the integrity layer's checks and re-executions do
    /// — so a fault plan whose only live rates are SDC is
    /// timing-identical to a clean run.
    fn inject_sdc(
        &mut self,
        id: u64,
        domain: SdcDomain,
        device: u64,
        bytes: u64,
        residency_secs: f64,
    ) -> u64 {
        let Some(plan) = &self.plan else { return 0 };
        let Some(r) = self.reqs.get_mut(id) else {
            return 0;
        };
        // One sub-stream per (request, step); the re-execution attempt
        // is part of the key so retries re-roll their exposure.
        let batch = id.wrapping_mul(1_000_003).wrapping_add(r.step as u64);
        // Crash migrations re-roll exposure too, without consuming the
        // integrity layer's re-execution budget.
        let attempt = r.reexecs.wrapping_add(r.crash_rewinds);
        let n = plan.sdc_flip_count(domain, device, batch, attempt, bytes, residency_secs);
        if n == 0 {
            return 0;
        }
        self.ireport.injected += n;
        if r.flips == 0 {
            self.ireport.poisoned_batches += 1;
        }
        r.flips += n;
        n
    }

    /// Extra latency from segmenting a batch across DRX data-queue
    /// refills: each additional segment costs one driver handshake
    /// (Fig. 10 steps 3-4 re-run per segment). With the paper's 100 MB
    /// queues and 6-16 MB batches this is zero.
    fn queue_handshake_latency(&self, bytes: u64) -> Time {
        if matches!(self.cfg.mode, Mode::AllCpu | Mode::MultiAxl) {
            return Time::ZERO;
        }
        let segments = bytes.div_ceil(self.cfg.queue_bytes.max(1));
        self.cfg.driver.irq_latency * segments.saturating_sub(1)
    }

    fn drain_flow_finished(&mut self) -> Result<(), SimError> {
        let now = self.q.now();
        while let Some(fid) = self.flows.pop_finished() {
            if self.cancelled_jobs.remove(&fid) {
                continue;
            }
            let (req, lat) = self
                .flow_jobs
                .remove(&fid)
                .ok_or(SimError::UntrackedJob(fid))?;
            self.schedule_step_done(now + lat, req)?;
        }
        Ok(())
    }

    /// The node where this edge's restructuring happens. Once the
    /// edge's DRX unit is dead, restructuring falls back to the host
    /// CPU, so data stages through host memory at the root.
    fn restr_node(&self, app: usize, stage: usize) -> Result<NodeId, SimError> {
        if self
            .unit_for(app, stage)
            .is_some_and(|u| self.dead_units.contains(&u))
        {
            return Ok(self.layout.topo.root());
        }
        match self.cfg.mode {
            Mode::AllCpu | Mode::MultiAxl | Mode::Dmx(Placement::Integrated) => {
                Ok(self.layout.topo.root())
            }
            Mode::Dmx(Placement::BumpInTheWire) => {
                self.layout.drx_nodes[app][stage].ok_or(SimError::MissingDrxUnit { app, stage })
            }
            Mode::Dmx(Placement::Standalone) => {
                self.layout.card_nodes[app].ok_or(SimError::MissingDrxUnit { app, stage })
            }
            Mode::Dmx(Placement::PcieIntegrated) => Ok(self.layout.switch_of[app][stage]),
        }
    }

    /// The DRX unit serving restructuring of `(app, e)`, if the mode
    /// uses one.
    fn unit_for(&self, app: usize, e: usize) -> Option<u64> {
        match self.cfg.mode {
            Mode::AllCpu | Mode::MultiAxl => None,
            Mode::Dmx(Placement::BumpInTheWire) => Some(units::bitw(app, e)),
            Mode::Dmx(Placement::Standalone) => Some(units::card(app)),
            Mode::Dmx(Placement::Integrated) => Some(units::pool(0)),
            Mode::Dmx(Placement::PcieIntegrated) => Some(units::pool(
                self.layout.switch_index(self.layout.switch_of[app][e]),
            )),
        }
    }

    /// All DRX units the current mode deploys (for death scheduling).
    fn deployed_units(&self) -> Vec<u64> {
        let mut out = Vec::new();
        match self.cfg.mode {
            Mode::AllCpu | Mode::MultiAxl => {}
            Mode::Dmx(Placement::BumpInTheWire) => {
                for (app, bench) in self.cfg.apps.iter().enumerate() {
                    for e in 0..bench.edges.len() {
                        out.push(units::bitw(app, e));
                    }
                }
            }
            Mode::Dmx(Placement::Standalone) => {
                for app in 0..self.cfg.apps.len() {
                    out.push(units::card(app));
                }
            }
            Mode::Dmx(Placement::Integrated) | Mode::Dmx(Placement::PcieIntegrated) => {
                for pool in 0..self.shared.len() {
                    out.push(units::pool(pool));
                }
            }
        }
        out
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
                let stage = bench.stages[s];
                let model = stage.kind.model();
                if self.cfg.mode == Mode::AllCpu {
                    let wall = model.cpu_time(stage.input_bytes).as_secs_f64();
                    self.cpu_job(id, wall * KERNEL_CAP, KERNEL_CAP, Time::ZERO)?;
                } else {
                    let done =
                        self.accel[app][s].submit(now, model.service_time(stage.input_bytes));
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
                let from = self.restr_node(app, e)?;
                let to = self.layout.accel_nodes[app][e + 1];
                let bytes = bench.edges[e].bytes_out;
                // Staged again on the way out to the next accelerator.
                let unit = self
                    .unit_for(app, e)
                    .filter(|u| !self.dead_units.contains(u));
                self.inject_sdc(id, SdcDomain::DmaStaging, unit.unwrap_or(0), bytes, 0.0);
                let extra = self.queue_handshake_latency(bytes);
                self.start_flow_with_extra(id, from, to, bytes, extra, None)?;
            }
        }
        Ok(())
    }

    /// Starts the DMA into the restructuring engine for `id`'s edge `e`
    /// (possibly after a backpressure stall).
    fn flow_to_restr(&mut self, id: u64, app: usize, e: usize) -> Result<(), SimError> {
        let from = self.layout.accel_nodes[app][e];
        let to = self.restr_node(app, e)?;
        let bytes = self.cfg.apps[app].edges[e].bytes_in;
        let extra = self.queue_handshake_latency(bytes);
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
        let edge = &self.cfg.apps[app].edges[e];
        let work = self.cfg.cpu.restructure_core_seconds(&edge.profile);
        let cap = self.cfg.cpu.restructure_core_cap(&edge.profile);
        // Host-path restructuring stages the batch in (non-ECC) DDR;
        // its exposure window is the nominal core-seconds of the pass —
        // a deterministic proxy for wall residency, which would depend
        // on event order.
        self.inject_sdc(id, SdcDomain::Ddr, 0, edge.bytes_in, work);
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
        self.cpu_job(id, work, cap, extra_latency)
    }

    /// Dispatches one restructuring batch to the mode's engine. Callers
    /// hold the per-(app, edge) gate.
    fn submit_restr(&mut self, id: u64, app: usize, e: usize) -> Result<(), SimError> {
        let now = self.q.now();
        if matches!(self.cfg.mode, Mode::AllCpu | Mode::MultiAxl) {
            return self.submit_restr_cpu(id, app, e, Time::ZERO, false);
        }
        let Mode::Dmx(p) = self.cfg.mode else {
            unreachable!("host modes handled above")
        };
        // Graceful degradation: a dead unit's batches reroute to host
        // cores (the Multi-Axl path) while healthy apps keep their DRXs.
        let unit = self.unit_for(app, e);
        if unit.is_some_and(|u| self.dead_units.contains(&u)) {
            return self.submit_restr_cpu(id, app, e, Time::ZERO, true);
        }
        // Circuit breaker: an open unit's batches reroute to host cores
        // without touching the unit; once the cooldown elapses a single
        // probe batch tests whether it recovered.
        let breaker = match (unit, self.ov.as_mut()) {
            (Some(u), Some(ov)) if ov.cfg.breaker.enabled => {
                let route = ov.breakers.entry(u).or_default().route(now);
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
        if let (Some(u), Some(fs), Some(sc)) = (unit, self.fs, self.scorer.as_mut()) {
            if fs.demote && sc.route(now, u, id) == Route::Fallback {
                self.fsreport.demoted_batches += 1;
                if let Some(peer) = self.healthy_peer(u, id) {
                    let done = self.peer_restr_done(id, app, e, peer, true);
                    if let Some(r) = self.reqs.get_mut(id) {
                        r.restr_unit = None;
                    }
                    self.schedule_step_done(done, id)?;
                    return Ok(());
                }
                // Not `degraded`: like breaker reroutes, scorer
                // demotions are policy, not fault recovery.
                return self.submit_restr_cpu(id, app, e, Time::ZERO, false);
            }
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
            if let Some(u) = unit {
                self.breaker_faults(u, app, stall_events);
            }
        }
        if breaker == Route::Probe {
            if let (Some(u), Some(ov)) = (unit, self.ov.as_mut()) {
                let p = ov.cfg.breaker;
                let br = ov.breakers.entry(u).or_default();
                let before = br.activations();
                br.probe_result(now, stall_events == 0, &p);
                let after = br.activations();
                ov.tenants[app].stats.breaker_activations += after - before;
            }
        }
        if exhausted {
            return self.submit_restr_cpu(id, app, e, stall_penalty, true);
        }
        let edge = &self.cfg.apps[app].edges[e];
        // The batch streams through the DRX's (ECC-less) scratchpad.
        // Repeated silent corruption on one unit trips its breaker —
        // but only when the integrity layer is on: with checksums off
        // nothing in the system can observe a silent flip.
        if let Some(u) = unit {
            let n = self.inject_sdc(id, SdcDomain::Scratchpad, u, edge.bytes_in, 0.0);
            if n > 0 && self.integ.is_some() {
                self.breaker_faults(u, app, n);
            }
        }
        let cost = self.edge_drx_cost(app, e);
        let energy_model = DrxEnergyModel::for_clock(self.cfg.drx.clock);
        self.drx_dynamic_j += (cost.lane_ops * energy_model.pj_per_lane_op
            + cost.spad_bytes * energy_model.pj_per_spad_byte
            + cost.dram_bytes * energy_model.pj_per_dram_byte)
            * 1e-12;
        // Nominal per-placement service; active degrade windows stretch
        // it (gray devices complete work, just slower).
        let nominal = match p {
            Placement::Standalone => cost.time.scale(self.cfg.fleet.standalone_slowdown),
            _ => cost.time,
        };
        let service = match unit {
            Some(u) => self.derated_service(u, id, e, nominal),
            None => nominal,
        } + stall_penalty;
        // Record the dispatch for the health scorer and arm the hedge
        // timer: a batch whose *service* runs past the threshold gets
        // a speculative duplicate. The clock starts when the engine
        // starts, not at submit — a healthy unit finishes at exactly
        // 1.0x nominal and never hedges, however deep its queue.
        let hedge_after = self.fs.and_then(|fs| {
            if fs.hedge_multiplier > 0.0 {
                Some(stall_penalty + nominal.scale(fs.hedge_multiplier).max(fs.hedge_floor))
            } else {
                None
            }
        });
        if let Some(r) = self.reqs.get_mut(id) {
            r.restr_unit = unit;
            r.restr_nominal = nominal;
            r.restr_seq = r.restr_seq.wrapping_add(1);
        }
        match p {
            Placement::BumpInTheWire => {
                let done = self.bitw[app][e].submit(now, service);
                self.arm_hedge(id, done.saturating_sub(service), hedge_after);
                self.schedule_step_done(done, id)?;
            }
            Placement::Standalone => {
                let done = self.cards[app].submit(now, service);
                self.arm_hedge(id, done.saturating_sub(service), hedge_after);
                self.schedule_step_done(done, id)?;
            }
            Placement::Integrated => {
                self.arm_hedge(id, now, hedge_after);
                let jid = self.job_id();
                self.shared_jobs[0].insert(jid, id);
                self.shared[0].insert(now, jid, service, 1.0);
                self.drain_shared_finished(0)?;
                self.reschedule_shared(0);
            }
            Placement::PcieIntegrated => {
                self.arm_hedge(id, now, hedge_after);
                let sw = self.layout.switch_of[app][e];
                let pool = self.layout.switch_index(sw);
                let jid = self.job_id();
                self.shared_jobs[pool].insert(jid, id);
                self.shared[pool].insert(now, jid, service, 1.0);
                self.drain_shared_finished(pool)?;
                self.reschedule_shared(pool);
            }
        }
        Ok(())
    }

    /// Anchors the in-flight batch's fail-slow clock at `start` (the
    /// engine-start instant for FIFO units, submit time for shared
    /// pools) and schedules its hedge timer from there.
    fn arm_hedge(&mut self, id: u64, start: Time, hedge_after: Option<Time>) {
        let Some(r) = self.reqs.get_mut(id) else {
            return;
        };
        r.restr_submitted = start;
        if r.restr_unit.is_some() {
            if let Some(after) = hedge_after {
                let seq = r.restr_seq;
                self.q.schedule_at(start + after, Ev::HedgeCheck(id, seq));
            }
        }
    }

    /// Composed device-target degrade factor on `unit` at the current
    /// instant, applied to a nominal service time with fail-slow
    /// accounting. Jitter draws come from the plan's dedicated
    /// sub-stream keyed on (schedule index, batch), so they are
    /// order-independent.
    fn derated_service(&mut self, unit: u64, id: u64, e: usize, nominal: Time) -> Time {
        if self.degrade_sched.is_empty() {
            return nominal;
        }
        let Some(plan) = &self.plan else {
            return nominal;
        };
        let now = self.q.now();
        let key = id
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(e as u64);
        let mut derate = Derate::none();
        for (i, ev) in self.degrade_sched.iter().enumerate() {
            if ev.target == DegradeTarget::Device(unit) && ev.active_at(now) {
                let jitter = if ev.jitter > 0.0 {
                    ev.jitter * plan.degrade_jitter(i as u64, key)
                } else {
                    0.0
                };
                derate.compose(ev.slowdown * (1.0 + jitter));
            }
        }
        if derate.is_unity() {
            return nominal;
        }
        let service = derate.apply(nominal);
        self.fsreport.slowed_batches += 1;
        self.fsreport.slow_extra_time += service.saturating_sub(nominal);
        service
    }

    /// A healthy same-kind peer DRX that demoted/hedged batches of
    /// `unit` can run on. Only node-owning kinds (bump-in-the-wire,
    /// standalone cards) are redirect targets — shared pools already
    /// spread load internally, so their batches fall back to the host.
    /// The pick rotates deterministically by `key`.
    fn healthy_peer(&self, unit: u64, key: u64) -> Option<u64> {
        let kind = unit >> 24;
        if kind != 1 && kind != 2 {
            return None;
        }
        let peers: Vec<u64> = self
            .deployed_units()
            .into_iter()
            .filter(|&u| u >> 24 == kind && u != unit)
            .filter(|u| !self.dead_units.contains(u))
            .filter(|&u| !self.scorer.as_ref().is_some_and(|s| s.suspected(u)))
            .collect();
        if peers.is_empty() {
            None
        } else {
            Some(peers[(key % peers.len() as u64) as usize])
        }
    }

    /// DRX cost of `(app, e)` on the configured engine, memoized per run.
    fn edge_drx_cost(&mut self, app: usize, e: usize) -> DrxCost {
        if let Some(c) = self.drx_costs[app][e] {
            return c;
        }
        let c = self.cfg.apps[app].edges[e].drx_cost(&self.cfg.drx);
        self.drx_costs[app][e] = Some(c);
        c
    }

    /// Services a restructure batch of `(app, e)` on peer DRX `peer`:
    /// redirect handshake, the peer's own degrade factor, dynamic
    /// energy, and (for demoted primaries, not hedge duplicates —
    /// those re-read the checkpointed staging copy) scratchpad SDC
    /// exposure. Returns the completion instant.
    fn peer_restr_done(&mut self, id: u64, app: usize, e: usize, peer: u64, expose: bool) -> Time {
        let now = self.q.now();
        let edge = &self.cfg.apps[app].edges[e];
        if expose {
            let n = self.inject_sdc(id, SdcDomain::Scratchpad, peer, edge.bytes_in, 0.0);
            if n > 0 && self.integ.is_some() {
                self.breaker_faults(peer, app, n);
            }
        }
        let cost = self.edge_drx_cost(app, e);
        let energy_model = DrxEnergyModel::for_clock(self.cfg.drx.clock);
        self.drx_dynamic_j += (cost.lane_ops * energy_model.pj_per_lane_op
            + cost.spad_bytes * energy_model.pj_per_spad_byte
            + cost.dram_bytes * energy_model.pj_per_dram_byte)
            * 1e-12;
        let nominal = if units::card_of(peer).is_some() {
            cost.time.scale(self.cfg.fleet.standalone_slowdown)
        } else {
            cost.time
        };
        let service = self.derated_service(peer, id, e, nominal);
        let done = if let Some((a2, e2)) = units::bitw_of(peer) {
            self.bitw[a2][e2].submit(now, service)
        } else if let Some(a2) = units::card_of(peer) {
            self.cards[a2].submit(now, service)
        } else {
            unreachable!("healthy_peer only returns node-owning units")
        };
        done + self.cfg.driver.irq_latency
    }

    /// The hedge timer fired: if the batch dispatched under `seq` is
    /// still stuck on its unit, launch a speculative duplicate on a
    /// healthy peer DRX (host cores when none exists). First completion
    /// wins; the loser is invalidated by the winner's epoch bump.
    fn hedge_check(&mut self, id: u64, seq: u32) -> Result<(), SimError> {
        let now = self.q.now();
        let (app, e, unit, epoch) = {
            let Some(r) = self.reqs.get(id) else {
                return Ok(());
            };
            if r.restr_seq != seq || r.hedge {
                return Ok(());
            }
            let Some(u) = r.restr_unit else {
                return Ok(());
            };
            let Step::Restr(e) = self.steps[r.app][r.step] else {
                return Ok(());
            };
            (r.app, e, u, r.epoch)
        };
        if let Some(r) = self.reqs.get_mut(id) {
            r.hedge = true;
        }
        self.fsreport.hedged += 1;
        if let Some(peer) = self.healthy_peer(unit, id) {
            let done = self.peer_restr_done(id, app, e, peer, false);
            self.q.schedule_at(done, Ev::HedgeDone(id, epoch));
        } else {
            // Host duplicate, re-reading the checkpointed staging copy
            // (no fresh DDR exposure — the integrity ledger must not
            // depend on which arm wins).
            let edge = &self.cfg.apps[app].edges[e];
            let work = self.cfg.cpu.restructure_core_seconds(&edge.profile);
            let cap = self.cfg.cpu.restructure_core_cap(&edge.profile);
            let jid = self.job_id();
            self.hedge_jobs.insert(jid, id);
            self.cpu.insert(now, jid, Time::from_secs_f64(work), cap);
            self.drain_cpu_finished()?;
            self.reschedule_cpu();
        }
        Ok(())
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
        cancel_jobs(&mut self.cpu_jobs, cancelled, |&(r, _)| r == id);
        cancel_jobs(&mut self.flow_jobs, cancelled, |&(r, _)| r == id);
        for jobs in &mut self.shared_jobs {
            cancel_jobs(jobs, cancelled, |&r| r == id);
        }
        cancel_jobs(&mut self.hedge_jobs, cancelled, |&r| r == id);
    }

    /// Returns `id`'s held ingress `credit` — parked or granted — to
    /// the gate, and resumes the transfers that now fit.
    fn cancel_credit(&mut self, id: u64, credit: Option<(u64, u64)>) -> Result<(), SimError> {
        let Some((unit, bytes)) = credit else {
            return Ok(());
        };
        let now = self.q.now();
        let woken = self
            .ov
            .as_mut()
            .and_then(|ov| ov.gate.as_mut())
            .map(|g| g.cancel(now, unit, id, bytes))
            .unwrap_or_default();
        for token in woken {
            self.resume_to_restr(token)?;
        }
        Ok(())
    }

    fn drain_shared_finished(&mut self, pool: usize) -> Result<(), SimError> {
        let now = self.q.now();
        while let Some(jid) = self.shared[pool].pop_finished() {
            if self.cancelled_jobs.remove(&jid) {
                continue;
            }
            let req = self.shared_jobs[pool]
                .remove(&jid)
                .ok_or(SimError::UntrackedJob(jid))?;
            self.schedule_step_done(now, req)?;
        }
        Ok(())
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
                step: 0,
                step_started: now,
                breakdown: Breakdown::default(),
                epoch: 0,
                degraded: false,
                deadline,
                credit: None,
                flips: 0,
                poison_hops: 0,
                verified_step: 0,
                verified_at: now,
                reexecs: 0,
                unchecked: false,
                ckpt_step: 0,
                ckpt_at: now,
                crash_rewinds: 0,
                restr_unit: None,
                restr_submitted: now,
                restr_nominal: Time::ZERO,
                restr_seq: 0,
                hedge: false,
                tag,
            },
        );
        self.begin_or_park(id)
    }

    /// One open-loop arrival of tenant `app`: count it, schedule the
    /// next one, then run it through admission — token bucket, inflight
    /// slot, bounded EDF queue — shedding it if every stage refuses.
    fn arrival(&mut self, app: usize, tag: u64) -> Result<(), SimError> {
        enum Verdict {
            Start(Time),
            Queued,
            Shed,
        }
        let now = self.q.now();
        let quarantined = now < self.quarantine_until[app];
        let external = self.external;
        let (next_gap, verdict) = {
            let ov = self.ov.as_mut().expect("arrival without overload state");
            let ts = &mut ov.tenants[app];
            ts.stats.offered += 1;
            // Externally-injected arrivals have no generator stream or
            // offer budget; the front end decides when the next one
            // lands.
            let next_gap = if external {
                None
            } else {
                ts.to_offer -= 1;
                if ts.to_offer > 0 {
                    Some(ts.arrivals.as_mut().expect("open-loop tenant").next_gap())
                } else {
                    None
                }
            };
            let admitted = !quarantined && ts.bucket.as_mut().is_none_or(|b| b.try_take(now));
            let verdict = if quarantined {
                // Tenant is quarantined after a poisoned batch: shed
                // before admission (no token is consumed; counted in
                // the integrity report, not the tenant's overload
                // stats, so the two causes stay distinguishable).
                self.ireport.quarantine_shed += 1;
                Verdict::Shed
            } else if !admitted {
                ts.stats.rejected_admission += 1;
                Verdict::Shed
            } else {
                ts.stats.admitted += 1;
                let deadline = now.checked_add(ov.cfg.deadline).unwrap_or(Time::MAX);
                if ov.inflight < ov.cfg.admission.max_inflight {
                    ov.inflight += 1;
                    Verdict::Start(deadline)
                } else if ov.pending.try_push(
                    now,
                    deadline.as_ps(),
                    Pending {
                        app,
                        arrived: now,
                        deadline,
                        tag,
                    },
                ) {
                    Verdict::Queued
                } else {
                    ov.tenants[app].stats.rejected_queue_full += 1;
                    Verdict::Shed
                }
            };
            (next_gap, verdict)
        };
        if let Some(gap) = next_gap {
            self.q.schedule_at(now + gap, Ev::Arrival(app, 0));
        }
        match verdict {
            Verdict::Start(deadline) => self.start_request_at(app, now, deadline, tag)?,
            Verdict::Queued => {}
            Verdict::Shed => {
                self.remaining = self.remaining.saturating_sub(1);
                self.resolve(app, tag, Outcome::Shed);
            }
        }
        Ok(())
    }

    /// Bookkeeping after an open-loop request finishes: classify it
    /// against its deadline, free its inflight slot, and dispatch from
    /// the EDF queue — shedding (under `ShedPolicy::Reject`) requests
    /// whose deadlines already passed while they waited.
    fn open_loop_completion(&mut self, r: &Req, now: Time) -> Result<(), SimError> {
        {
            let ov = self.ov.as_mut().expect("open-loop completion");
            let ts = &mut ov.tenants[r.app];
            if now <= r.deadline {
                ts.stats.goodput += 1;
                ts.goodput_lat.record((now - r.start).as_secs_f64());
            } else {
                ts.stats.late += 1;
            }
        }
        self.free_slot_and_dispatch(now)
    }

    /// Frees one inflight slot and dispatches from the EDF queue,
    /// shedding (under `ShedPolicy::Reject`) requests whose deadlines
    /// already passed while they waited.
    fn free_slot_and_dispatch(&mut self, now: Time) -> Result<(), SimError> {
        let mut to_start: Vec<(usize, Time, Time, u64)> = Vec::new();
        let mut shed_apps: Vec<(usize, u64)> = Vec::new();
        {
            let Some(ov) = self.ov.as_mut() else {
                return Ok(());
            };
            ov.inflight = ov.inflight.saturating_sub(1);
            while ov.inflight < ov.cfg.admission.max_inflight {
                let Some((_, p, _)) = ov.pending.pop_min(now) else {
                    break;
                };
                if now > p.deadline && ov.cfg.shed == ShedPolicy::Reject {
                    ov.tenants[p.app].stats.shed_deadline += 1;
                    shed_apps.push((p.app, p.tag));
                    continue;
                }
                ov.inflight += 1;
                to_start.push((p.app, p.arrived, p.deadline, p.tag));
            }
        }
        self.remaining = self.remaining.saturating_sub(shed_apps.len());
        for (app, tag) in shed_apps {
            self.resolve(app, tag, Outcome::Shed);
        }
        for (app, arrived, deadline, tag) in to_start {
            self.start_request_at(app, arrived, deadline, tag)?;
        }
        Ok(())
    }

    fn step_done(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        self.step_advance(id, epoch, false)
    }

    /// A hedge duplicate finished. The request advances exactly as on a
    /// primary completion — whichever arm lands first wins.
    fn hedge_done(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        self.step_advance(id, epoch, true)
    }

    fn step_advance(&mut self, id: u64, epoch: u32, via_hedge: bool) -> Result<(), SimError> {
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
        if let (Some(sc), Some((u, submitted, nominal))) = (self.scorer.as_mut(), fs_obs) {
            if !nominal.is_zero() {
                sc.observe(now, u, id, now.saturating_sub(submitted).ratio(nominal));
            }
        }
        if let Some((unit, bytes)) = credit {
            let woken = self
                .ov
                .as_mut()
                .and_then(|ov| ov.gate.as_mut())
                .map(|g| g.release(now, unit, bytes))
                .unwrap_or_default();
            for token in woken {
                self.resume_to_restr(token)?;
            }
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

    /// Bytes to digest if the step just completed lands on an integrity
    /// boundary: each chain hop's arrival in per-hop mode, and the
    /// final result in both checking modes. `None` = no check here.
    fn check_bytes(&self, id: u64, app: usize, prev_step: Step, finished: bool) -> Option<u64> {
        let integ = self.integ.as_ref()?;
        let r = self.reqs.get(id)?;
        if r.unchecked {
            return None;
        }
        match (integ.mode, prev_step) {
            (ChecksumMode::PerHop, Step::ToNext(e)) => Some(self.cfg.apps[app].edges[e].bytes_out),
            _ if finished => {
                // The final result: its size is the last stage's batch.
                self.cfg.apps[app].stages.last().map(|s| s.input_bytes)
            }
            _ => None,
        }
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
        if self.ov.as_ref().is_some_and(|o| o.open_loop) {
            self.open_loop_completion(&r, now)?;
        } else if self.stats.launched[r.app] < self.cfg.requests_per_app {
            self.start_request(r.app)?;
        }
        Ok(())
    }

    /// A chain-boundary checksum finished. Clean digest: the boundary
    /// becomes the request's verified rewind point and it advances.
    /// Mismatch: the batch is poisoned — account the detection, trip
    /// the tenant's quarantine, and re-execute from the last verified
    /// boundary after the recovery layer's exponential backoff.
    fn integrity_done(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        let now = self.q.now();
        let integ = self.integ.expect("integrity event without config");
        enum Next {
            Complete,
            Continue,
            Rewind(Time),
        }
        let (app, next) = {
            let Some(r) = self.reqs.get_mut(id) else {
                return Ok(());
            };
            if r.epoch != epoch {
                return Ok(());
            }
            // The digest itself is data-motion overhead.
            r.breakdown.movement += now - r.step_started;
            let finished = r.step == self.steps[r.app].len();
            let next = if r.flips == 0 {
                r.verified_step = r.step;
                r.verified_at = now;
                if !self.crash_sched.is_empty() {
                    // A verified boundary is the best possible crash
                    // checkpoint: refresh it so a later migration
                    // restarts from known-clean state.
                    r.ckpt_step = r.step;
                    r.ckpt_at = now;
                }
                if finished {
                    Next::Complete
                } else {
                    Next::Continue
                }
            } else {
                self.ireport.detected += r.flips;
                self.ireport.poison_hops += r.poison_hops;
                self.ireport.max_blast = self.ireport.max_blast.max(r.poison_hops);
                r.flips = 0;
                r.poison_hops = 0;
                r.reexecs += 1;
                if r.reexecs > integ.max_reexec {
                    // Give up: pass the known-bad batch through and stop
                    // checking; any further corruption escapes.
                    self.ireport.reexec_giveups += 1;
                    r.unchecked = true;
                    if finished {
                        Next::Complete
                    } else {
                        Next::Continue
                    }
                } else {
                    self.ireport.reexecs += 1;
                    // Work since the verified boundary is thrown away.
                    self.ireport.reexec_time += now - r.verified_at;
                    r.step = r.verified_step;
                    if r.ckpt_step > r.step {
                        // The crash checkpoint cannot sit ahead of the
                        // rewound cursor.
                        r.ckpt_step = r.step;
                        r.ckpt_at = now;
                    }
                    // Invalidate anything still in flight for the
                    // discarded attempt.
                    r.epoch += 1;
                    Next::Rewind(self.cfg.recovery.backoff(r.reexecs - 1))
                }
            };
            (r.app, next)
        };
        match next {
            Next::Complete => self.complete_request(id),
            Next::Continue => self.begin_or_park(id),
            Next::Rewind(delay) => {
                self.quarantine_tenant(app, now);
                if let Some(r) = self.reqs.get(id) {
                    self.q.schedule_at(now + delay, Ev::Reexec(id, r.epoch));
                }
                Ok(())
            }
        }
    }

    /// Opens (or extends) tenant `app`'s quarantine window after one of
    /// its batches was found poisoned. Only meaningful open-loop, where
    /// arrivals exist to shed.
    fn quarantine_tenant(&mut self, app: usize, now: Time) {
        let Some(integ) = &self.integ else { return };
        if integ.quarantine == Time::ZERO || !self.ov.as_ref().is_some_and(|o| o.open_loop) {
            return;
        }
        self.ireport.quarantines += 1;
        let until = now + integ.quarantine;
        if until > self.quarantine_until[app] {
            self.quarantine_until[app] = until;
        }
    }

    /// Resumes a re-execution whose backoff elapsed.
    fn reexec_resume(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        let Some(r) = self.reqs.get(id) else {
            return Ok(());
        };
        if r.epoch != epoch {
            return Ok(());
        }
        self.begin_or_park(id)
    }

    // ------------------------------------------------------ crash-stop

    /// True when crash event `i`'s outage window covers `now`.
    fn crash_live(&self, i: usize, now: Time) -> bool {
        let ev = &self.crash_sched[i];
        ev.at <= now && ev.recovers_at().is_none_or(|r| now < r)
    }

    /// The crash event (if any) whose live outage window blocks `id`
    /// from starting its next step: a down driver blocks everything, a
    /// dark subtree blocks steps whose data would have to enter it.
    /// Device crashes never block — their work reroutes to the host-CPU
    /// fallback instead.
    fn crash_block(&self, id: u64) -> Option<usize> {
        if self.crash_sched.is_empty() {
            return None;
        }
        let now = self.q.now();
        let r = self.reqs.get(id)?;
        let step = *self.steps[r.app].get(r.step)?;
        (0..self.crash_sched.len()).find(|&i| {
            self.crash_live(i, now)
                && match self.crash_sched[i].target {
                    CrashTarget::Driver => true,
                    CrashTarget::Subtree(s) => self.step_in_subtree(r.app, step, s),
                    CrashTarget::Device(_) => false,
                }
        })
    }

    /// True when `step`'s work would have to enter the subtree of
    /// switch `s`: a kernel or restructure resident there, or a DMA
    /// with an endpoint inside it. Driver steps run on the host and
    /// never enter a switch subtree.
    fn step_in_subtree(&self, app: usize, step: Step, s: usize) -> bool {
        let Some(&root) = self.layout.switches.get(s) else {
            return false;
        };
        let within = |n: NodeId| self.layout.topo.in_subtree(n, root);
        match step {
            Step::Kernel(k) => within(self.layout.accel_nodes[app][k]),
            Step::ToRestr(e) => {
                within(self.layout.accel_nodes[app][e]) || self.restr_node(app, e).is_ok_and(within)
            }
            Step::Restr(e) => self.restr_node(app, e).is_ok_and(within),
            Step::ToNext(e) => {
                self.restr_node(app, e).is_ok_and(within)
                    || within(self.layout.accel_nodes[app][e + 1])
            }
            Step::DriverPost(_) | Step::DriverPre(_) => false,
        }
    }

    /// Starts `id`'s next step unless a live outage blocks it, in which
    /// case the request parks until the window closes — or dies with a
    /// permanent one.
    fn begin_or_park(&mut self, id: u64) -> Result<(), SimError> {
        if let Some(i) = self.crash_block(id) {
            return self.park_or_kill(id, i);
        }
        self.begin_step(id)
    }

    /// Parks `id` until crash event `i`'s outage ends; a permanent
    /// outage that blocks the chain kills the request outright.
    fn park_or_kill(&mut self, id: u64, i: usize) -> Result<(), SimError> {
        let now = self.q.now();
        match self.crash_sched[i].recovers_at() {
            Some(at) => {
                self.creport.crash_stalls += 1;
                self.creport.stall_time += at.saturating_sub(now);
                let Some(r) = self.reqs.get(id) else {
                    return Ok(());
                };
                let ep = r.epoch;
                self.q
                    .schedule_at(at + self.cfg.driver.irq_latency, Ev::Resume(id, ep));
                Ok(())
            }
            None => self.crash_kill(id),
        }
    }

    /// A parked or migrated request resumes. Re-checks the schedule:
    /// another outage window may have opened meanwhile.
    fn resume(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        let Some(r) = self.reqs.get(id) else {
            return Ok(());
        };
        if r.epoch != epoch {
            return Ok(());
        }
        self.begin_or_park(id)
    }

    /// Crash event `i` fires: surprise removal of its target.
    fn crash(&mut self, i: usize) -> Result<(), SimError> {
        self.creport.crashes += 1;
        match self.crash_sched[i].target {
            CrashTarget::Device(u) => self.crash_device(u),
            CrashTarget::Subtree(s) => self.crash_subtree(s),
            CrashTarget::Driver => self.crash_driver(),
        }
    }

    /// Surprise removal of DRX unit `unit`: it leaves routing, every
    /// flow touching its point-to-point links dies, and in-flight
    /// batches on it migrate to surviving resources from their last
    /// checkpoint.
    fn crash_device(&mut self, unit: u64) -> Result<(), SimError> {
        *self.down_devices.entry(unit).or_insert(0) += 1;
        if !self.dead_units.insert(unit) {
            // Already out of routing (overlapping window or permanent
            // death): nothing is running on it.
            return Ok(());
        }
        let mut torn: Vec<u64> = Vec::new();
        // Bump-in-the-wire engines and standalone cards own a fabric
        // node; DMA over its links dies with the device. Pool units
        // live on switches/root and keep the fabric.
        if let Some(node) = self.unit_node(unit) {
            let links = self.layout.topo.subtree_links(node);
            torn.extend(self.abort_flows_on(&links));
        }
        for (id, r) in self.reqs.iter() {
            if r.step >= self.steps[r.app].len() {
                continue;
            }
            // Anything whose data sits in (or is headed into / parked
            // for) the removed unit is torn; batches already rerouted
            // to the host fallback are unaffected.
            let on_unit = match self.steps[r.app][r.step] {
                Step::ToRestr(e) | Step::DriverPre(e) => self.unit_for(r.app, e) == Some(unit),
                Step::Restr(e) => !r.degraded && self.unit_for(r.app, e) == Some(unit),
                _ => false,
            };
            if on_unit {
                torn.push(id);
            }
        }
        self.tear_requests(torn)
    }

    /// Power loss on switch subtree `s`: every unit under it goes down,
    /// every flow crossing into it dies, and requests resident inside
    /// migrate from their last checkpoint.
    fn crash_subtree(&mut self, s: usize) -> Result<(), SimError> {
        let Some(&root) = self.layout.switches.get(s) else {
            // Schedules may name more subtrees than the layout has.
            return Ok(());
        };
        for unit in self.units_in_subtree(root) {
            *self.down_devices.entry(unit).or_insert(0) += 1;
            self.dead_units.insert(unit);
        }
        let links = self.layout.topo.subtree_links(root);
        let mut torn = self.abort_flows_on(&links);
        for (id, r) in self.reqs.iter() {
            if r.step >= self.steps[r.app].len() {
                continue;
            }
            let step = self.steps[r.app][r.step];
            if r.degraded && matches!(step, Step::Restr(_)) {
                continue;
            }
            if self.step_in_subtree(r.app, step, s) {
                torn.push(id);
            }
        }
        self.tear_requests(torn)
    }

    /// Host driver crash-restart: descriptor rings and completion
    /// queues are gone, so every in-flight request re-plans from its
    /// last checkpoint once the restarted driver re-enumerates.
    fn crash_driver(&mut self) -> Result<(), SimError> {
        self.driver.restart();
        let torn: Vec<u64> = self.reqs.keys().collect();
        self.tear_requests(torn)
    }

    /// The fabric node a DRX unit occupies, when it has one of its own.
    fn unit_node(&self, unit: u64) -> Option<NodeId> {
        match self.cfg.mode {
            Mode::Dmx(Placement::BumpInTheWire) => {
                for (app, bench) in self.cfg.apps.iter().enumerate() {
                    for e in 0..bench.edges.len() {
                        if units::bitw(app, e) == unit {
                            return self.layout.drx_nodes[app][e];
                        }
                    }
                }
                None
            }
            Mode::Dmx(Placement::Standalone) => {
                for app in 0..self.cfg.apps.len() {
                    if units::card(app) == unit {
                        return self.layout.card_nodes[app];
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// Every deployed DRX unit living under `root` — node-owning units
    /// by ancestry, shared pools by their switch.
    fn units_in_subtree(&self, root: NodeId) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .deployed_units()
            .into_iter()
            .filter(|&u| {
                self.unit_node(u)
                    .is_some_and(|n| self.layout.topo.in_subtree(n, root))
            })
            .collect();
        if self.cfg.mode == Mode::Dmx(Placement::PcieIntegrated) {
            for (i, &sw) in self.layout.switches.iter().enumerate() {
                if self.layout.topo.in_subtree(sw, root) {
                    out.push(units::pool(i));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Kills every in-flight flow crossing `links` and returns the ids
    /// of the requests that owned them.
    fn abort_flows_on(&mut self, links: &[LinkId]) -> Vec<u64> {
        let now = self.q.now();
        let mut owners = Vec::new();
        for fid in self.flows.abort_flows(now, links) {
            if let Some((id, _)) = self.flow_jobs.remove(&fid) {
                owners.push(id);
            }
        }
        self.reschedule_flows();
        owners
    }

    /// Migrates every request in `ids` off its crashed component. The
    /// set is sorted and deduplicated first — teardown order must not
    /// depend on map iteration order — and every torn request leaves
    /// the restructure gates *before* any freed gate re-dispatches, so
    /// a gate can never hand itself to a batch that is also being torn.
    fn tear_requests(&mut self, mut ids: Vec<u64>) -> Result<(), SimError> {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Ok(());
        }
        let mut refill: Vec<(usize, usize)> = Vec::new();
        for app in 0..self.restr_active.len() {
            for e in 0..self.restr_active[app].len() {
                if self.restr_active[app][e].is_some_and(|a| ids.binary_search(&a).is_ok()) {
                    self.restr_active[app][e] = None;
                    refill.push((app, e));
                }
                self.restr_queue[app][e].retain(|q| ids.binary_search(q).is_err());
            }
        }
        for &id in &ids {
            self.migrate_one(id)?;
        }
        for (app, e) in refill {
            self.restr_active[app][e] = self.restr_queue[app][e].pop_front();
            if let Some(next) = self.restr_active[app][e] {
                self.submit_restr(next, app, e)?;
            }
        }
        Ok(())
    }

    /// Tears one request off a crashed component: cancel its in-flight
    /// work and held credit, rewind to the last checkpoint, and re-plan
    /// onto surviving resources after the driver re-enumerates.
    fn migrate_one(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        // Neither arm of a live hedge can win the discarded attempt.
        self.cancel_attempt(id);
        let credit = self.reqs.get_mut(id).and_then(|r| r.credit.take());
        self.cancel_credit(id, credit)?;
        let Some(r) = self.reqs.get_mut(id) else {
            return Ok(());
        };
        self.creport.migrations += 1;
        self.creport.lost_progress += now.saturating_sub(r.ckpt_at);
        r.epoch += 1;
        r.crash_rewinds += 1;
        r.degraded = false;
        r.restr_unit = None;
        r.step = r.ckpt_step;
        // The restored snapshot is materialized now; a second crash
        // before the next checkpoint only loses work from here.
        r.ckpt_at = now;
        let ep = r.epoch;
        self.q
            .schedule_at(now + self.cfg.driver.irq_latency, Ev::Resume(id, ep));
        Ok(())
    }

    /// Removes `id` outright: its data died with a permanently-removed
    /// component and no surviving path can recreate it. The request is
    /// fully accounted — its flips move to the discard ledger, its slot
    /// frees, and closed-loop apps launch their next request.
    fn crash_kill(&mut self, id: u64) -> Result<(), SimError> {
        let now = self.q.now();
        // The hedge dies with the request; its accounting survives.
        self.cancel_attempt(id);
        let Some(r) = self.reqs.remove(id) else {
            return Ok(());
        };
        self.creport.crash_killed += 1;
        self.creport.flips_discarded += r.flips;
        self.remaining = self.remaining.saturating_sub(1);
        self.resolve(r.app, r.tag, Outcome::Shed);
        self.cancel_credit(id, r.credit)?;
        if self.ov.as_ref().is_some_and(|o| o.open_loop) {
            self.free_slot_and_dispatch(now)?;
        } else if self.stats.launched[r.app] < self.cfg.requests_per_app {
            self.start_request(r.app)?;
        }
        Ok(())
    }

    /// Crash event `i`'s outage window ends: hot-plug re-admission.
    /// Devices rejoin routing unless a permanent death also claimed
    /// them; parked requests resume via their scheduled `Resume`s.
    fn crash_recover(&mut self, i: usize) -> Result<(), SimError> {
        self.creport.readmissions += 1;
        match self.crash_sched[i].target {
            CrashTarget::Device(u) => self.revive_unit(u),
            CrashTarget::Subtree(s) => {
                if let Some(&root) = self.layout.switches.get(s) {
                    for u in self.units_in_subtree(root) {
                        self.revive_unit(u);
                    }
                }
            }
            CrashTarget::Driver => {}
        }
        Ok(())
    }

    /// Closes one crash window on `unit`; at zero open windows it
    /// rejoins routing — unless permanently dead.
    fn revive_unit(&mut self, unit: u64) {
        if let Some(n) = self.down_devices.get_mut(&unit) {
            *n -= 1;
            if *n == 0 {
                self.down_devices.remove(&unit);
                if !self.perma_dead.contains(&unit) {
                    self.dead_units.remove(&unit);
                }
            }
        }
    }

    /// The links degrade event `i` covers: one for a link target, the
    /// whole subtree below a switch for a subtree target, none for
    /// device targets (those derate service at submit instead).
    fn degrade_links_of(&self, i: usize) -> Vec<LinkId> {
        match self.degrade_sched[i].target {
            DegradeTarget::Link(l) if l < self.layout.topo.link_count() => {
                vec![LinkId::from_index(l)]
            }
            DegradeTarget::Link(_) => Vec::new(),
            DegradeTarget::Subtree(s) => self
                .layout
                .switches
                .get(s)
                .map(|&root| self.layout.topo.subtree_links(root))
                .unwrap_or_default(),
            DegradeTarget::Device(_) => Vec::new(),
        }
    }

    /// Applies degrade event `i`'s bandwidth cut to its links (stacking
    /// with retrains and other degrades, like overlapping real faults).
    fn degrade_apply(&mut self, i: usize) {
        if self.degrade_on[i] {
            return;
        }
        let now = self.q.now();
        let scale = 1.0 / self.degrade_sched[i].slowdown;
        for link in self.degrade_links_of(i) {
            self.flows.degrade_link(now, link, scale);
            self.fsreport.link_degrades += 1;
        }
        self.degrade_on[i] = true;
        self.reschedule_flows();
    }

    /// Lifts degrade event `i`'s bandwidth cut.
    fn degrade_lift(&mut self, i: usize) -> Result<(), SimError> {
        if !self.degrade_on[i] {
            return Ok(());
        }
        let now = self.q.now();
        for link in self.degrade_links_of(i) {
            self.flows.restore_link(now, link);
        }
        self.degrade_on[i] = false;
        self.drain_flow_finished()?;
        self.reschedule_flows();
        Ok(())
    }

    /// Degrade event `i`'s window opens: cut bandwidth, start its duty
    /// cycle (if any), and arm the window end.
    fn degrade_start(&mut self, i: usize) {
        let ev = self.degrade_sched[i];
        self.degrade_apply(i);
        if let Some(d) = ev.duty {
            if !d.period.is_zero() && d.on_fraction < 1.0 {
                let off_at = ev.at + d.period.scale(d.on_fraction);
                if ev.ends_at().map(|end| off_at < end).unwrap_or(true) {
                    self.q.schedule_at(off_at, Ev::DegradeToggle(i));
                }
            }
        }
        if let Some(end) = ev.ends_at() {
            self.q.schedule_at(end, Ev::DegradeEnd(i));
        }
    }

    /// Degrade event `i`'s duty cycle flips phase: lift or re-apply the
    /// cut and arm the next flip (the window end wins ties).
    fn degrade_toggle(&mut self, i: usize) -> Result<(), SimError> {
        let now = self.q.now();
        let ev = self.degrade_sched[i];
        if let Some(end) = ev.ends_at() {
            if now >= end {
                // The window closed first; `DegradeEnd` owns cleanup.
                return Ok(());
            }
        }
        let Some(d) = ev.duty else {
            return Ok(());
        };
        let next = if self.degrade_on[i] {
            self.degrade_lift(i)?;
            // Next on-phase starts at the next period boundary.
            let elapsed = (now - ev.at).as_ps();
            let k = elapsed / d.period.as_ps() + 1;
            ev.at + Time::from_ps(k * d.period.as_ps())
        } else {
            self.degrade_apply(i);
            now + d.period.scale(d.on_fraction)
        };
        if ev.ends_at().map(|end| next < end).unwrap_or(true) {
            self.q.schedule_at(next, Ev::DegradeToggle(i));
        }
        Ok(())
    }

    /// Horizon past which scheduled unit deaths are ignored: far beyond
    /// any experiment here, well inside the `Time` range.
    const DEATH_HORIZON: Time = Time::from_secs(600);

    /// Seeds the event queue: fault/crash/degrade schedules, then
    /// either the open-loop arrival streams or the closed-loop initial
    /// requests (external mode seeds neither — arrivals are injected).
    fn seed(&mut self) -> Result<(), SimError> {
        if let Some(plan) = &self.plan {
            for unit in self.deployed_units() {
                if let Some(t) = plan.death_time(unit) {
                    if t <= Self::DEATH_HORIZON {
                        self.q.schedule_at(t, Ev::UnitDeath(unit));
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
        if self.external {
            // Arrivals come from the fleet front end via
            // `Stepped::inject_arrival_tagged`; nothing to seed.
        } else if self.ov.as_ref().is_some_and(|o| o.open_loop) {
            // Open loop: tenants submit on their own schedule — seed
            // each arrival stream instead of pre-launching requests.
            for app in 0..self.cfg.apps.len() {
                let gap = self.ov.as_mut().and_then(|ov| {
                    let ts = &mut ov.tenants[app];
                    if ts.to_offer > 0 {
                        Some(ts.arrivals.as_mut().expect("open-loop tenant").next_gap())
                    } else {
                        None
                    }
                });
                if let Some(gap) = gap {
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
        Ok(())
    }

    /// Dispatches one popped event — the engine's single step, shared
    /// by [`Sim::run`] and the stepped (fleet-partition) driver.
    fn handle(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::StepDone(id, epoch) => self.step_done(id, epoch)?,
            Ev::Arrival(app, tag) => self.arrival(app, tag)?,
            Ev::CpuTick(gen) => {
                if gen == self.cpu.generation() {
                    self.cpu.advance(self.q.now());
                    self.drain_cpu_finished()?;
                    self.reschedule_cpu();
                }
            }
            Ev::FlowTick(gen) => {
                if gen == self.flows.generation() {
                    self.flows.advance(self.q.now());
                    self.drain_flow_finished()?;
                    self.reschedule_flows();
                }
            }
            Ev::ChunkTick(gen) => {
                // Observation only: the fluid state is untouched, so
                // a chunk-exact run computes bit-identical results.
                if gen == self.flows.generation() {
                    self.chunk_sched = None;
                    self.reschedule_chunks();
                }
            }
            Ev::SharedTick(pool, gen) => {
                if gen == self.shared[pool].generation() {
                    self.shared[pool].advance(self.q.now());
                    self.drain_shared_finished(pool)?;
                    self.reschedule_shared(pool);
                }
            }
            Ev::UnitDeath(unit) => self.unit_death(unit)?,
            Ev::IntegrityDone(id, epoch) => self.integrity_done(id, epoch)?,
            Ev::Reexec(id, epoch) => self.reexec_resume(id, epoch)?,
            Ev::Crash(i) => self.crash(i)?,
            Ev::CrashRecover(i) => self.crash_recover(i)?,
            Ev::Resume(id, epoch) => self.resume(id, epoch)?,
            Ev::LinkRestore(l) => {
                self.flows.restore_link(self.q.now(), LinkId::from_index(l));
                self.drain_flow_finished()?;
                self.reschedule_flows();
            }
            Ev::DegradeStart(i) => self.degrade_start(i),
            Ev::DegradeToggle(i) => self.degrade_toggle(i)?,
            Ev::DegradeEnd(i) => self.degrade_lift(i)?,
            Ev::HedgeCheck(id, seq) => self.hedge_check(id, seq)?,
            Ev::HedgeDone(id, epoch) => self.hedge_done(id, epoch)?,
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
        if let Some(sc) = &self.scorer {
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
/// Panics if the config has no applications or requests; use
/// [`try_simulate`] to handle invalid configs as errors.
pub fn simulate(cfg: &SystemConfig) -> RunResult {
    match try_simulate(cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`simulate`].
pub fn try_simulate(cfg: &SystemConfig) -> Result<RunResult, SimError> {
    if cfg.apps.is_empty() {
        return Err(SimError::NoApps);
    }
    if cfg.requests_per_app == 0 {
        return Err(SimError::NoRequests);
    }
    if cfg.inflight_per_app == 0 {
        return Err(SimError::NoInflight);
    }
    Sim::new(cfg).run()
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
/// pumped past (cross-partition messages delivered at window barriers
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
    /// `NoApps` without applications; `NoOverload` unless the config
    /// carries a non-inert overload section (the admission machinery
    /// is what receives injected arrivals).
    pub fn new(cfg: &'a SystemConfig) -> Result<Stepped<'a>, SimError> {
        if cfg.apps.is_empty() {
            return Err(SimError::NoApps);
        }
        let mut sim = Sim::new_ext(cfg, true);
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

    /// Processes every pending event strictly before `horizon`.
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
