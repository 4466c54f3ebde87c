//! Failover sweep: fleet-level fault tolerance under whole-server
//! failures.
//!
//! Not a figure from the paper — the robustness study of the fleet
//! layer grown on top of it. A rack of 2/4 DMX servers behind the
//! failover-aware load balancer (`dmx_core::fleet::failover`) runs
//! five open-loop tenants at half the per-server capacity bound while
//! a [`FleetFaultPlan`] takes whole servers away mid-run:
//!
//! * **kill** — server 0 crash-stops permanently; its crash layer
//!   sheds everything it holds, and the LB re-dispatches each shed;
//! * **kill+recover** — the same crash, but the server restarts after
//!   a quarter of the run;
//! * **gray** — every PCIe link in server 0 runs 8x slower; nothing
//!   fails outright, latency just grows — the classic gray failure;
//! * **dark** — server 0's network hop drops every message both ways;
//!   only per-request LB timeouts notice.
//!
//! Each fault crosses three per-class retry policies: `no-retry`
//! (timeouts shed at the LB), `retry` (bounded cross-server
//! re-dispatch with exponential backoff), and `retry+hedge` (retry
//! plus a duplicate dispatch for the latency-sensitive class). The
//! embedded checks re-verify, on every invocation:
//!
//! * the duplicates-aware conservation ledger on every cell
//!   (`offered == goodput + late + shed`,
//!   `resolutions_received == (offered − lb_shed) + duplicates_cancelled`);
//! * zero stranded requests under every kill schedule × retry budget;
//! * recovery is actually exercised: faulted cells with a retry budget
//!   re-dispatch, cancel duplicates, and demote/darken servers, and
//!   re-dispatch recovers sheds the no-retry policy eats on the kill
//!   cell;
//! * the inert failover config and fault plan are byte-identical to
//!   the layer-absent fleet;
//! * a same-seed serial re-run of a faulted, hedged cell reproduces it
//!   exactly.

use super::{Calibration, Checks, Suite};
use crate::fleet::{
    run_fleet, ClassPolicy, FailoverConfig, FleetConfig, FleetFaultPlan, FleetResult,
    LbHealthParams, RequestClass, ServerGray, ServerKill, ServerOutage,
};
use crate::report::{ms, Table};
use dmx_sim::{par_map, Time};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0xFA11;

/// Fleet sizes swept.
pub const SERVERS: [usize; 2] = [2, 4];

/// Offered load per server as a multiple of the optimistic capacity
/// bound — low enough that the *surviving* servers can absorb a killed
/// peer's work, so the sweep measures fault recovery, not overload
/// (the `overload` experiment owns that regime).
pub const LOAD: f64 = 0.5;

/// Arrivals per tenant per server.
const ARRIVALS_PER_TENANT_PER_SERVER: usize = 6;

/// The whole-server fault scenario of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fleet-level fault.
    None,
    /// Server 0 crash-stops permanently at a quarter of the run.
    Kill,
    /// Server 0 crash-stops at a quarter of the run and restarts a
    /// quarter later.
    KillRecover,
    /// Server 0's links run 8x slower from 20% to 60% of the run.
    Gray,
    /// Server 0's network hop drops everything from 20% to 50% of the
    /// run.
    Dark,
}

impl Fault {
    /// All scenarios, in sweep order.
    pub const ALL: [Fault; 5] = [
        Fault::None,
        Fault::Kill,
        Fault::KillRecover,
        Fault::Gray,
        Fault::Dark,
    ];

    fn label(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Kill => "kill",
            Fault::KillRecover => "kill+recover",
            Fault::Gray => "gray 8x",
            Fault::Dark => "dark",
        }
    }

    /// The fault plan for this scenario over a run of length `span`.
    fn plan(self, span: Time) -> FleetFaultPlan {
        let mut plan = FleetFaultPlan::none();
        match self {
            Fault::None => {}
            Fault::Kill => plan.kills.push(ServerKill {
                server: 0,
                at: span.scale(0.25),
                down_for: None,
            }),
            Fault::KillRecover => plan.kills.push(ServerKill {
                server: 0,
                at: span.scale(0.25),
                down_for: Some(span.scale(0.25)),
            }),
            Fault::Gray => plan.grays.push(ServerGray {
                server: 0,
                at: span.scale(0.2),
                down_for: Some(span.scale(0.4)),
                slowdown: 8.0,
            }),
            Fault::Dark => plan.outages.push(ServerOutage {
                server: 0,
                at: span.scale(0.2),
                down_for: Some(span.scale(0.3)),
            }),
        }
        plan
    }
}

/// The per-class retry policy of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retry {
    /// No re-dispatch: a timed-out or shed request is shed at the LB.
    NoRetry,
    /// Bounded cross-server re-dispatch with exponential backoff.
    Retry,
    /// Re-dispatch plus a hedged duplicate for the latency-sensitive
    /// class.
    RetryHedge,
}

impl Retry {
    /// All policies, in sweep order.
    pub const ALL: [Retry; 3] = [Retry::NoRetry, Retry::Retry, Retry::RetryHedge];

    fn label(self) -> &'static str {
        match self {
            Retry::NoRetry => "no-retry",
            Retry::Retry => "retry",
            Retry::RetryHedge => "retry+hedge",
        }
    }

    /// The failover config: two classes (tenants alternate), LB
    /// timeouts far above healthy resolution latency so they fire only
    /// for genuinely lost or crawling attempts.
    fn failover(self) -> FailoverConfig {
        let retries = match self {
            Retry::NoRetry => 0,
            Retry::Retry | Retry::RetryHedge => 3,
        };
        let hedge = matches!(self, Retry::RetryHedge);
        FailoverConfig {
            health: LbHealthParams::default(),
            classes: vec![
                ClassPolicy {
                    class: RequestClass::LatencySensitive,
                    slo: Time::from_secs_f64(60.0),
                    timeout: Time::from_secs_f64(5.0),
                    retries,
                    hedge_after: hedge.then(|| Time::from_ms(50)),
                },
                ClassPolicy {
                    class: RequestClass::Batch,
                    slo: Time::from_secs_f64(120.0),
                    timeout: Time::from_secs_f64(10.0),
                    retries,
                    hedge_after: None,
                },
            ],
        }
    }
}

/// One cell of the servers × fault × policy sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Fleet size.
    pub servers: usize,
    /// The whole-server fault scenario.
    pub fault: Fault,
    /// The retry policy.
    pub policy: Retry,
    /// The fleet run's results (failover report always present).
    pub result: FleetResult,
}

/// Full failover-sweep results.
#[derive(Debug, Clone)]
pub struct FailoverSweep {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Capacity calibration: clean closed-loop cross-tenant mean.
    pub clean_mean: Time,
    /// The servers × fault × policy grid.
    pub cells: Vec<Cell>,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

/// The fleet config of one cell; `fault`/`policy` as `None` build the
/// layer-absent config for the inert-identity check. Every tenant is
/// Poisson, and the arrival span of one tenant's stream anchors the
/// fault times.
fn cell_cfg(
    cal: &Calibration,
    seed: u64,
    servers: usize,
    fault: Option<Fault>,
    policy: Option<Retry>,
) -> FleetConfig {
    let cfg = cal.fleet_cell(seed, servers, LOAD, ARRIVALS_PER_TENANT_PER_SERVER, false);
    let span = Time::from_secs_f64(cfg.requests_per_tenant as f64 / cal.fleet_rate(servers, LOAD));
    FleetConfig {
        failover: policy.map(Retry::failover),
        fault_plan: fault.map(|f| f.plan(span)),
        ..cfg
    }
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> FailoverSweep {
    let cal = Calibration::new(suite);

    let grid: Vec<(usize, Fault, Retry)> = SERVERS
        .iter()
        .flat_map(|&s| {
            Fault::ALL
                .iter()
                .flat_map(move |&f| Retry::ALL.iter().map(move |&p| (s, f, p)))
        })
        .collect();
    let cells: Vec<Cell> = par_map(&grid, |_, &(servers, fault, policy)| Cell {
        servers,
        fault,
        policy,
        result: run_fleet(&cell_cfg(&cal, seed, servers, Some(fault), Some(policy))),
    });

    // ---- embedded checks ---------------------------------------------
    // Recovery exercised: over the faulted cells with a retry budget,
    // re-dispatch fired, duplicates were cancelled somewhere, and the
    // health scorer demoted or darkened servers.
    let faulted: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.fault != Fault::None && c.policy != Retry::NoRetry)
        .collect();
    let sum = |f: &dyn Fn(&crate::fleet::FailoverReport) -> u64| -> u64 {
        faulted
            .iter()
            .filter_map(|c| c.result.failover.as_ref())
            .map(f)
            .sum()
    };

    // Re-dispatch recovers: on the permanent kill at the largest
    // fleet, the no-retry policy sheds every crash-killed request;
    // with a budget those requests complete elsewhere.
    let kill_cell = |policy: Retry| {
        &cells
            .iter()
            .find(|c| c.servers == 4 && c.fault == Fault::Kill && c.policy == policy)
            .expect("kill cell")
            .result
    };
    let no_retry = kill_cell(Retry::NoRetry);
    let retry = kill_cell(Retry::Retry);

    // Inert identity: a fleet with `Some(inert)` layers is bit-identical
    // to the layer-absent fleet.
    let absent = cell_cfg(&cal, seed, 2, None, None);
    let inert = FleetConfig {
        failover: Some(FailoverConfig::none()),
        fault_plan: Some(FleetFaultPlan::none()),
        ..absent.clone()
    };

    // Same-seed determinism on a faulted, hedged cell: a serial re-run
    // of the (4, kill, retry+hedge) grid cell, outside the worker pool.
    let rerun = format!(
        "{:?}",
        run_fleet(&cell_cfg(
            &cal,
            seed,
            4,
            Some(Fault::Kill),
            Some(Retry::RetryHedge),
        ))
    );

    let checks = Checks(vec![
        (
            "duplicates-aware ledger on every cell",
            cells.iter().all(|c| c.result.conserved_with_duplicates()),
        ),
        (
            "zero stranded requests everywhere",
            cells
                .iter()
                .all(|c| c.result.failover.as_ref().is_some_and(|f| f.stranded == 0)),
        ),
        (
            "recovery machinery exercised",
            sum(&|f| f.retries) > 0
                && sum(&|f| f.duplicates_cancelled) > 0
                && sum(&|f| f.demotions + f.darks) > 0
                && sum(&|f| f.probes) > 0,
        ),
        (
            "re-dispatch recovers kill sheds",
            no_retry.shed > retry.shed
                && retry.goodput + retry.late > no_retry.goodput + no_retry.late,
        ),
        (
            "inert layers byte-identical to absent",
            format!("{:?}", run_fleet(&absent)) == format!("{:?}", run_fleet(&inert)),
        ),
        (
            "same-seed re-run byte-identical",
            format!("{:?}", kill_cell(Retry::RetryHedge)) == rerun,
        ),
    ]);

    FailoverSweep {
        seed,
        clean_mean: cal.mean,
        cells,
        checks,
    }
}

impl FailoverSweep {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report (deterministic: identical for any host or
    /// `--threads`).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            [
                "servers", "fault", "policy", "offered", "goodput", "late", "shed", "timeout",
                "retry", "hedge", "dup", "dark", "recov", "e2e p50",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for c in &self.cells {
            let r = &c.result;
            let f = r.failover.as_ref().expect("failover report");
            t.row(vec![
                c.servers.to_string(),
                c.fault.label().to_string(),
                c.policy.label().to_string(),
                r.offered.to_string(),
                r.goodput.to_string(),
                r.late.to_string(),
                r.shed.to_string(),
                f.timeouts.to_string(),
                f.retries.to_string(),
                f.hedges.to_string(),
                f.duplicates_cancelled.to_string(),
                f.darks.to_string(),
                f.recoveries.to_string(),
                ms(r.e2e_p50),
            ]);
        }
        format!(
            "repro failover — whole-server faults vs LB failover (seed {seed:#x})\n\
             2/4 servers at {load}x per-server load; server 0 is killed,\n\
             killed-and-restarted, grayed 8x, or cut off the network while\n\
             the balancer runs health scoring (Healthy→Suspected→Dark,\n\
             half-open probes), per-request timeouts with cross-server\n\
             re-dispatch, attempt-tagged first-wins dedup, and per-class\n\
             SLO retry/hedge (clean mean {mean}).\n\n\
             {t}\n\
             {checks}",
            seed = self.seed,
            load = LOAD,
            mean = ms(self.clean_mean),
            t = t.render(),
            checks = self.checks.render(40),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_hurt_noretry_more_than_retry() {
        let r = run_with_seed(&Suite::new(), SEED);
        assert_eq!(
            r.cells.len(),
            SERVERS.len() * Fault::ALL.len() * Retry::ALL.len()
        );
        // Aggregate across both fleet sizes: with a permanent kill, the
        // retry policies shed less than no-retry.
        let shed = |policy: Retry| -> u64 {
            r.cells
                .iter()
                .filter(|c| c.fault == Fault::Kill && c.policy == policy)
                .map(|c| c.result.shed)
                .sum()
        };
        assert!(
            shed(Retry::NoRetry) > shed(Retry::Retry),
            "no-retry {} vs retry {}",
            shed(Retry::NoRetry),
            shed(Retry::Retry)
        );
    }
}
