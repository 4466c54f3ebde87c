//! Chaos sweep: crash-stop failures composed with overload and silent
//! corruption.
//!
//! Not a figure from the paper — the capstone robustness study of the
//! reproduced system. Five open-loop tenants offer 1.5x the server's
//! measured capacity while silent bit flips land in DRX scratchpads
//! and DMA staging buffers, per-hop checksums guard every chain
//! boundary, and a seeded schedule of crash-stop events — surprise
//! device removal, a PCIe subtree going dark, driver crash-restarts —
//! fires mid-run. Every layer of the recovery stack is live at once:
//! admission control, EDF shedding, circuit breakers, backpressure,
//! quarantine/re-execution, and checkpointed crash migration.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro chaos` invocation:
//!
//! * request conservation under every sampled crash schedule — every
//!   offered arrival completes (in or out of deadline), is shed at
//!   admission / queue / deadline / quarantine, or is accounted to a
//!   crash; none lost or duplicated;
//! * the integrity ledger stays conserved with the crash discard
//!   account: injected = detected + escaped + discarded-with-kills;
//! * zero escaped flips while checking is active;
//! * the crash machinery demonstrably fired (migrations or stalls, and
//!   a hot-plug re-admission) somewhere in the sweep;
//! * a composed run with an *empty* crash schedule reports an all-zero
//!   [`CrashReport`];
//! * an inert fault config reproduces the layer-absent run
//!   byte-identically (the zero-overhead path);
//! * two same-seed runs render byte-identically;
//! * a degrade → crash → hot-plug composition on one device (gray,
//!   then removed, then back) balances the full extended conservation
//!   ledger: requests, integrity flips with the crash discard account,
//!   and hedges with their teardown cancellations.

use super::{Calibration, Checks, Suite, TENANTS};
use crate::failslow::{FailSlowConfig, FailSlowReport, HealthParams};
use crate::integrity::{ChecksumMode, IntegrityConfig, IntegrityReport};
use crate::overload::OverloadReport;
use crate::report::{ms, Table};
use crate::system::{simulate, units, CrashReport, SystemConfig};
use dmx_sim::{
    par_map, CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, FaultConfig, SplitMix64, Time,
};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0xC4A05;

/// Crash schedules sampled per sweep.
pub const SCENARIOS: usize = 4;

/// Arrivals each tenant offers per run.
const ARRIVALS_PER_TENANT: usize = 16;

/// Offered load as a multiple of measured capacity.
const LOAD: f64 = 1.5;

/// One sampled crash schedule and the composed run it produced.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario index (keys its schedule sub-stream).
    pub index: usize,
    /// Human-readable schedule, e.g. `driver@12ms+3ms`.
    pub schedule: String,
    /// Crash-stop accounting.
    pub crashes: CrashReport,
    /// Overload accounting.
    pub overload: OverloadReport,
    /// Integrity accounting.
    pub integrity: IntegrityReport,
}

impl Scenario {
    /// Request conservation: offered = completed + shed + quarantined
    /// + crash-killed.
    fn conserved(&self) -> bool {
        self.overload
            .conserved_with(self.integrity.quarantine_shed + self.crashes.crash_killed)
    }
}

/// Full chaos-sweep results.
#[derive(Debug, Clone)]
pub struct Chaos {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Capacity calibration: clean cross-tenant mean latency.
    pub clean_mean: Time,
    /// One entry per sampled crash schedule.
    pub scenarios: Vec<Scenario>,
    /// Fail-slow accounting of the degrade → crash → hot-plug
    /// composition (the same device goes gray, dies, and returns).
    pub composed_failslow: FailSlowReport,
    /// Crash accounting of that composition.
    pub composed_crashes: CrashReport,
    /// Merged robustness table of the first scenario (all four layers
    /// in one block).
    pub merged_summary: String,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

/// Silent-corruption rates for the sweep: high enough that every run
/// sees poison, low enough that goodput survives.
fn sdc_faults(seed: u64) -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = seed;
    f.sdc.spad_flip_rate = 3e-7;
    f.sdc.dma_flip_rate = 1e-7;
    f
}

/// Draws scenario `scen`'s crash schedule from its own sub-stream.
/// Times scale with the calibrated clean latency so the schedule lands
/// mid-run at any capacity. Driver and subtree outages are always
/// finite (they block chains); a device removal may be permanent — its
/// batches reroute to the host fallback instead of dying.
fn schedule(seed: u64, scen: usize, mean: Time) -> Vec<CrashEvent> {
    let mut rng = SplitMix64::new(seed ^ (scen as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let horizon = mean * (ARRIVALS_PER_TENANT as u64);
    let frac = |rng: &mut SplitMix64, lo: f64, hi: f64| {
        Time::from_secs_f64(horizon.as_secs_f64() * (lo + (hi - lo) * rng.next_f64()))
    };
    let events = 1 + (rng.next_u64() % 3) as usize;
    (0..events)
        .map(|_| {
            let at = frac(&mut rng, 0.05, 0.45);
            match rng.next_u64() % 4 {
                0 => CrashEvent {
                    target: CrashTarget::Driver,
                    at,
                    down_for: Some(frac(&mut rng, 0.02, 0.10)),
                },
                1 => CrashEvent {
                    target: CrashTarget::Subtree((rng.next_u64() % 2) as usize),
                    at,
                    down_for: Some(frac(&mut rng, 0.02, 0.12)),
                },
                _ => CrashEvent {
                    target: CrashTarget::Device(units::bitw(
                        (rng.next_u64() % TENANTS as u64) as usize,
                        0,
                    )),
                    at,
                    // One in four device removals never comes back.
                    down_for: (!rng.next_u64().is_multiple_of(4))
                        .then(|| frac(&mut rng, 0.03, 0.15)),
                },
            }
        })
        .collect()
}

fn describe(sched: &[CrashEvent]) -> String {
    let one = |ev: &CrashEvent| {
        let target = match ev.target {
            CrashTarget::Device(u) => format!("dev:{u:#x}"),
            CrashTarget::Subtree(s) => format!("subtree:{s}"),
            CrashTarget::Driver => "driver".to_string(),
        };
        match ev.down_for {
            Some(d) => format!("{target}@{}+{}", ms(ev.at), ms(d)),
            None => format!("{target}@{}+forever", ms(ev.at)),
        }
    };
    sched.iter().map(one).collect::<Vec<_>>().join(" ")
}

/// The fully-composed config: open-loop overload at [`LOAD`] (the
/// same envelope as `repro overload`, so differences here are
/// attributable to crashes and SDC) + SDC + per-hop checksums + the
/// given crash schedule.
fn composed(cal: &Calibration, seed: u64, crashes: Vec<CrashEvent>) -> SystemConfig {
    let mut faults = sdc_faults(seed);
    faults.crashes = crashes;
    let mut integ = IntegrityConfig::checked(ChecksumMode::PerHop);
    integ.max_reexec = 8;
    SystemConfig {
        requests_per_app: ARRIVALS_PER_TENANT,
        faults: Some(faults),
        overload: Some(cal.open_loop(seed, LOAD, cal.slowest * 4)),
        integrity: Some(integ),
        ..cal.cfg.clone()
    }
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> Chaos {
    let cal = Calibration::new(suite);
    let mean = cal.mean;
    let scenario = |scen: usize| {
        let sched = schedule(seed, scen, mean);
        let r = simulate(&composed(&cal, seed, sched.clone()));
        let merged = r.robustness_summary();
        let scenario = Scenario {
            index: scen,
            schedule: describe(&sched),
            crashes: r.crashes,
            overload: r.overload.expect("open-loop run must report"),
            integrity: r.integrity,
        };
        (scenario, merged)
    };

    // Scenarios only depend on the calibration, so they fan out.
    let indices: Vec<usize> = (0..SCENARIOS).collect();
    let scenarios: Vec<Scenario> = par_map(&indices, |_, &scen| scenario(scen).0);

    // Same-seed determinism on the first scenario, re-simulated from
    // scratch; the Debug render covers every counter.
    let (again, merged_summary) = scenario(0);
    let deterministic = format!("{again:?}") == format!("{:?}", scenarios[0]);

    // Empty crash schedule, everything else composed: the crash layer
    // must be invisible (no checkpoints, no events, no accounting).
    let pure = simulate(&composed(&cal, seed, Vec::new()));

    // Degrade → crash → hot-plug on one device: tenant 0's edge-0 DRX
    // goes gray early, is surprise-removed mid-run, and hot-plugs back
    // later — with SDC, checksums, overload, and fail-slow mitigation
    // all live. The full conservation ledger must balance: every
    // request resolves exactly once, the integrity ledger closes with
    // the crash discard account, and the hedge ledger closes with the
    // teardown cancellations.
    let horizon = mean * (ARRIVALS_PER_TENANT as u64);
    let gray_unit = units::bitw(0, 0);
    let mut gcfg = composed(
        &cal,
        seed,
        vec![CrashEvent {
            target: CrashTarget::Device(gray_unit),
            at: horizon.scale(0.25),
            down_for: Some(horizon.scale(0.20)),
        }],
    );
    if let Some(f) = gcfg.faults.as_mut() {
        f.degrades = vec![DegradeEvent {
            target: DegradeTarget::Device(gray_unit),
            at: Time::ZERO,
            down_for: None,
            slowdown: 4.0,
            jitter: 0.0,
            duty: None,
        }];
    }
    gcfg.failslow = Some(FailSlowConfig {
        scorer: HealthParams {
            window: 8,
            min_samples: 2,
            outlier_factor: 2.0,
            probation: mean,
        },
        demote: true,
        hedge_multiplier: 1.2,
        hedge_floor: Time::from_us(1),
    });
    let g = simulate(&gcfg);
    let g_overload = g.overload.as_ref().expect("open-loop run must report");

    let checks = Checks(vec![
        (
            "request conservation in every scenario",
            scenarios.iter().all(Scenario::conserved),
        ),
        (
            "integrity ledger conserved incl. crash discard",
            scenarios.iter().all(|s| {
                s.integrity
                    .conserved_with_discarded(s.crashes.flips_discarded)
            }),
        ),
        (
            "zero escaped flips under checking",
            scenarios.iter().all(|s| s.integrity.escaped == 0),
        ),
        (
            "crash recovery demonstrably exercised",
            scenarios.iter().any(|s| {
                s.crashes.crashes > 0
                    && s.crashes.migrations + s.crashes.crash_stalls + s.crashes.crash_killed > 0
            }) && scenarios.iter().any(|s| s.crashes.readmissions > 0),
        ),
        (
            "empty crash schedule leaves no trace",
            pure.crashes == CrashReport::default(),
        ),
        (
            "inert config identical to no layer",
            cal.inert_identical(|c| c.faults = Some(FaultConfig::none())),
        ),
        ("same-seed runs byte-identical", deterministic),
        (
            "degrade→crash→hot-plug ledger balances",
            g_overload.conserved_with(g.integrity.quarantine_shed + g.crashes.crash_killed)
                && g.integrity
                    .conserved_with_discarded(g.crashes.flips_discarded)
                && g.failslow.hedge_conserved()
                && g.crashes.crashes > 0
                && g.crashes.readmissions > 0
                && g.failslow.slowed_batches > 0,
        ),
    ]);

    Chaos {
        seed,
        clean_mean: mean,
        scenarios,
        composed_failslow: g.failslow,
        composed_crashes: g.crashes,
        merged_summary,
        checks,
    }
}

impl Chaos {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            [
                "scenario",
                "crashes",
                "readmit",
                "migrations",
                "stalls",
                "killed",
                "offered",
                "goodput",
                "shed",
                "injected",
                "detected",
                "discarded",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for s in &self.scenarios {
            let shed = s.overload.shed() + s.integrity.quarantine_shed;
            t.row(vec![
                format!("#{} {}", s.index, s.schedule),
                s.crashes.crashes.to_string(),
                s.crashes.readmissions.to_string(),
                s.crashes.migrations.to_string(),
                s.crashes.crash_stalls.to_string(),
                s.crashes.crash_killed.to_string(),
                s.overload.offered().to_string(),
                s.overload.goodput().to_string(),
                shed.to_string(),
                s.integrity.injected.to_string(),
                s.integrity.detected.to_string(),
                s.crashes.flips_discarded.to_string(),
            ]);
        }
        format!(
            "repro chaos — crash-stop sweep composed with overload + SDC (seed {seed:#x})\n\
             Five open-loop tenants at {load:.1}x capacity (clean mean\n\
             {mean}); per-hop checksums on; {n} seeded crash schedules\n\
             of surprise device removal, dark subtrees, and driver\n\
             crash-restarts with checkpointed chain migration.\n\n\
             {table}\n\
             Degrade → crash → hot-plug on one device (4x gray, then\n\
             removed, then back): {slowed} batches slowed, {hedged}\n\
             hedged ({cancelled} cancelled at teardown), {crashes}\n\
             crash(es), {readmit} re-admission(s).\n\n\
             Merged robustness summary of scenario #0 (all layers, one\n\
             table):\n\n{merged}\n\
             {checks}",
            seed = self.seed,
            load = LOAD,
            mean = ms(self.clean_mean),
            n = self.scenarios.len(),
            table = t.render(),
            merged = self.merged_summary,
            slowed = self.composed_failslow.slowed_batches,
            hedged = self.composed_failslow.hedged,
            cancelled = self.composed_failslow.cancelled,
            crashes = self.composed_crashes.crashes,
            readmit = self.composed_crashes.readmissions,
            checks = self.checks.render(48),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_keeps_goodput() {
        let a = run_with_seed(&Suite::new(), SEED);
        assert_eq!(a.scenarios.len(), SCENARIOS);
        for s in &a.scenarios {
            assert!(s.overload.goodput() > 0, "scenario {} starved", s.index);
        }
        assert!(!a.merged_summary.is_empty(), "merged summary missing");
    }
}
