//! Fail-slow sweep: gray devices composed with open-loop overload.
//!
//! Not a figure from the paper — the gray-failure study of the
//! reproduced system. One bump-in-the-wire DRX (tenant 0, edge 0) runs
//! slower than nominal with no fault signal at all, across a
//! slowdown x duty-cycle grid, while five open-loop tenants offer 1.5x
//! the server's measured capacity. Each cell runs three ways at the
//! same seed: healthy (no degradation), mitigation-off (gray device,
//! fail-slow layer absent), and mitigation-on (health scorer demotes
//! the suspect to healthy peers and stuck batches launch hedged
//! duplicates). A windowed, duty-cycled subtree degradation exercises
//! the link-bandwidth side of the injection layer.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro failslow` invocation:
//!
//! * request conservation in every run — every offered arrival
//!   completes or is shed; none lost or duplicated;
//! * the hedge conservation law in every run:
//!   `hedged == won_primary + won_hedge + cancelled`, no
//!   double-completions;
//! * detection and mitigation demonstrably fired (gray flags, demoted
//!   batches, hedges, probes) somewhere in the sweep;
//! * the link/subtree injection path fired (bandwidth windows applied);
//! * mitigation-on recovers at least half of the mitigation-off p99
//!   degradation in the 4x continuous cell, at identical seeds;
//! * an inert fail-slow config reproduces the layer-absent run
//!   byte-identically (the zero-overhead path);
//! * two same-seed runs are byte-identical (so `--threads N` cannot
//!   change results — every cell is a pure function of the seed).

use super::{Calibration, Checks, Suite};
use crate::failslow::{FailSlowConfig, FailSlowReport, HealthParams};
use crate::report::{ms, Table};
use crate::system::{simulate, units, RunResult, SystemConfig};
use dmx_sim::{par_map, DegradeEvent, DegradeTarget, DutyCycle, FaultConfig, Time};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0xF510;

/// Arrivals each tenant offers per run.
const ARRIVALS_PER_TENANT: usize = 16;

/// Offered load as a multiple of measured capacity.
const LOAD: f64 = 1.5;

/// The tenant whose edge-0 DRX goes gray.
const GRAY_APP: usize = 0;

/// The (slowdown, duty on-fraction, jitter) grid. `None` duty =
/// continuous. The 4x continuous cell carries the recovery acceptance
/// criterion, so it stays jitter-free.
const CELLS: [(f64, Option<f64>, f64); 4] = [
    (2.0, None, 0.25),
    (4.0, None, 0.0),
    (2.0, Some(0.5), 0.0),
    (4.0, Some(0.5), 0.0),
];

/// One slowdown x duty cell: the same seed run healthy, unwatched, and
/// mitigated.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Device service-time multiplier.
    pub slowdown: f64,
    /// Duty-cycle on-fraction (`None` = continuous).
    pub duty: Option<f64>,
    /// Gray tenant's p99 latency with no degradation.
    pub healthy_p99: Time,
    /// Gray tenant's p99 latency with the degradation and no
    /// fail-slow layer.
    pub off_p99: Time,
    /// Gray tenant's p99 latency with the degradation and mitigation.
    pub on_p99: Time,
    /// Fraction of the p99 degradation mitigation clawed back.
    pub recovered: f64,
    /// Fail-slow accounting of the mitigation-off run (injection
    /// visibility only).
    pub off_report: FailSlowReport,
    /// Fail-slow accounting of the mitigation-on run.
    pub on_report: FailSlowReport,
    /// Request conservation held in both degraded runs.
    pub conserved: bool,
    /// Hedge conservation law held in both degraded runs.
    pub hedges_conserved: bool,
    /// Debug signature of the mitigated run (determinism check).
    on_sig: String,
}

/// Full fail-slow sweep results.
#[derive(Debug, Clone)]
pub struct FailSlow {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Capacity calibration: clean cross-tenant mean latency.
    pub clean_mean: Time,
    /// One entry per slowdown x duty cell.
    pub cells: Vec<Cell>,
    /// Fail-slow accounting of the subtree-degradation run.
    pub link_report: FailSlowReport,
    /// Merged robustness table of the 4x continuous mitigated run
    /// (all five layers in one block).
    pub merged_summary: String,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

/// Mitigation tuning for the sweep: flag fast (small fleet, short
/// runs), hedge early (a 4x-slowed batch is past 1.2x nominal long
/// before it completes; a healthy batch never is). Probation scales
/// with the calibrated clean mean so a flagged device actually sits
/// out demoted batches before its half-open probe.
fn mitigation(mean: Time) -> FailSlowConfig {
    FailSlowConfig {
        scorer: HealthParams {
            window: 8,
            min_samples: 2,
            outlier_factor: 2.0,
            probation: mean,
        },
        demote: true,
        hedge_multiplier: 1.2,
        hedge_floor: Time::from_us(1),
    }
}

/// A device-target degrade schedule: tenant [`GRAY_APP`]'s edge-0 DRX
/// runs `slowdown`x slow from t=0, forever, optionally duty-cycled
/// with period ~ one clean request.
fn gray_device(slowdown: f64, duty: Option<f64>, jitter: f64, mean: Time) -> Vec<DegradeEvent> {
    vec![DegradeEvent {
        target: DegradeTarget::Device(units::bitw(GRAY_APP, 0)),
        at: Time::ZERO,
        down_for: None,
        slowdown,
        jitter,
        duty: duty.map(|on_fraction| DutyCycle {
            period: mean,
            on_fraction,
        }),
    }]
}

/// The composed config: open-loop overload at [`LOAD`] (the same
/// envelope as `repro chaos`, so differences here are attributable to
/// the gray device) + the given degrade schedule + the given fail-slow
/// policy. The deadline is generous: gray-slowed requests should
/// complete late rather than be shed, so p99 measures the slowness
/// itself.
fn composed(
    cal: &Calibration,
    seed: u64,
    degrades: Vec<DegradeEvent>,
    failslow: Option<FailSlowConfig>,
) -> SystemConfig {
    let mut faults = FaultConfig::none();
    faults.seed = seed;
    faults.degrades = degrades;
    SystemConfig {
        requests_per_app: ARRIVALS_PER_TENANT,
        faults: Some(faults),
        overload: Some(cal.open_loop(seed, LOAD, cal.slowest * 12)),
        failslow,
        ..cal.cfg.clone()
    }
}

/// Request conservation of one run: offered = completed (in or out of
/// deadline) + shed.
fn conserved(r: &RunResult) -> bool {
    r.overload
        .as_ref()
        .expect("open-loop run")
        .conserved_with(0)
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> FailSlow {
    let cal = Calibration::new(suite);
    let mean = cal.mean;

    // The healthy baseline is shared by every cell (no degradation, no
    // fail-slow layer — same seed, same arrivals).
    let healthy = simulate(&composed(&cal, seed, Vec::new(), None));
    let healthy_p99 = healthy.apps[GRAY_APP].latency_p99;

    // Cells only depend on the calibration, so they fan out.
    let cells: Vec<Cell> = par_map(&CELLS, |_, &(slowdown, duty, jitter)| {
        let sched = gray_device(slowdown, duty, jitter, mean);
        let off = simulate(&composed(&cal, seed, sched.clone(), None));
        let on = simulate(&composed(&cal, seed, sched, Some(mitigation(mean))));
        let off_p99 = off.apps[GRAY_APP].latency_p99;
        let on_p99 = on.apps[GRAY_APP].latency_p99;
        let gap = off_p99.as_secs_f64() - healthy_p99.as_secs_f64();
        let recovered = if gap > 0.0 {
            (off_p99.as_secs_f64() - on_p99.as_secs_f64()) / gap
        } else {
            1.0
        };
        Cell {
            slowdown,
            duty,
            healthy_p99,
            off_p99,
            on_p99,
            recovered,
            off_report: off.failslow,
            on_report: on.failslow,
            conserved: conserved(&off) && conserved(&on),
            hedges_conserved: off.failslow.hedge_conserved() && on.failslow.hedge_conserved(),
            on_sig: format!("{:?} {:?}", on.failslow, on.apps),
        }
    });

    // The link-bandwidth side: a windowed, duty-cycled subtree
    // degradation (every link under switch 0 at half bandwidth).
    let horizon = mean * (ARRIVALS_PER_TENANT as u64);
    let link_sched = vec![DegradeEvent {
        target: DegradeTarget::Subtree(0),
        at: horizon.scale(0.1),
        down_for: Some(horizon.scale(0.4)),
        slowdown: 2.0,
        jitter: 0.0,
        duty: Some(DutyCycle {
            period: mean,
            on_fraction: 0.5,
        }),
    }];
    let link = simulate(&composed(&cal, seed, link_sched, Some(mitigation(mean))));

    // Same-seed determinism on the 4x continuous mitigated run,
    // re-simulated from scratch. Every cell is a pure function of
    // (config, seed), so thread fan-out cannot change results; the
    // Debug render covers every counter.
    let four_x = &cells[1];
    let again = simulate(&composed(
        &cal,
        seed,
        gray_device(4.0, None, 0.0, mean),
        Some(mitigation(mean)),
    ));

    let fired = |f: fn(&FailSlowReport) -> u64| cells.iter().any(|c| f(&c.on_report) > 0);
    let checks = Checks(vec![
        (
            "request conservation in every run",
            conserved(&healthy)
                && conserved(&link)
                && link.failslow.hedge_conserved()
                && cells.iter().all(|c| c.conserved),
        ),
        (
            "hedge ledger conserved (no double completions)",
            cells.iter().all(|c| c.hedges_conserved),
        ),
        (
            "detection + mitigation demonstrably fired",
            fired(|r| r.gray_flags)
                && fired(|r| r.demoted_batches)
                && fired(|r| r.hedged)
                && fired(|r| r.probes),
        ),
        (
            "link-bandwidth injection fired",
            link.failslow.link_degrades > 0,
        ),
        ("4x cell p99 recovery >= 50%", four_x.recovered >= 0.5),
        (
            "inert config identical to no layer",
            cal.inert_identical(|c| {
                c.faults = Some(FaultConfig::none());
                c.failslow = Some(FailSlowConfig::none());
            }),
        ),
        (
            "same-seed runs byte-identical",
            format!("{:?} {:?}", again.failslow, again.apps) == four_x.on_sig,
        ),
    ]);

    FailSlow {
        seed,
        clean_mean: mean,
        link_report: link.failslow,
        merged_summary: again.robustness_summary(),
        cells,
        checks,
    }
}

impl FailSlow {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            [
                "cell",
                "healthy p99",
                "off p99",
                "on p99",
                "recovered",
                "flags",
                "demoted",
                "hedged",
                "won p/h",
                "cancelled",
                "slowed",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for c in &self.cells {
            let duty = match c.duty {
                Some(f) => format!("duty {f:.1}"),
                None => "cont".to_string(),
            };
            let on = &c.on_report;
            t.row(vec![
                format!("{:.0}x {duty}", c.slowdown),
                ms(c.healthy_p99),
                ms(c.off_p99),
                ms(c.on_p99),
                format!("{:.0}%", c.recovered * 100.0),
                on.gray_flags.to_string(),
                on.demoted_batches.to_string(),
                on.hedged.to_string(),
                format!("{}/{}", on.won_primary, on.won_hedge),
                on.cancelled.to_string(),
                on.slowed_batches.to_string(),
            ]);
        }
        format!(
            "repro failslow — gray-failure sweep composed with overload (seed {seed:#x})\n\
             Five open-loop tenants at {load:.1}x capacity (clean mean\n\
             {mean}); tenant {app}'s edge-0 DRX runs slow with no fault\n\
             signal across a slowdown x duty grid; each cell compares\n\
             healthy / mitigation-off / mitigation-on at the same seed.\n\n\
             {table}\n\
             Subtree link degradation (windowed, 50% duty): {lnk} link\n\
             windows applied, {slow} batches slowed.\n\n\
             Merged robustness summary of the 4x mitigated run (all\n\
             five layers, one table):\n\n{merged}\n\
             {checks}",
            seed = self.seed,
            load = LOAD,
            mean = ms(self.clean_mean),
            app = GRAY_APP,
            table = t.render(),
            lnk = self.link_report.link_degrades,
            slow = self.link_report.slowed_batches,
            merged = self.merged_summary,
            checks = self.checks.render(49),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_runs_and_the_merged_summary_renders() {
        let a = run_with_seed(&Suite::new(), SEED);
        assert_eq!(a.cells.len(), CELLS.len());
        assert!(!a.merged_summary.is_empty(), "merged summary missing");
    }
}
