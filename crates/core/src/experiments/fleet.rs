//! Fleet sweep: a rack of DMX servers behind a load balancer.
//!
//! Not a figure from the paper — the cluster-scale study of the
//! reproduced system. Five open-loop tenants (one per Table I
//! benchmark; tenant 0 bursts MMPP, the rest Poisson) offer load at a
//! multiple of per-server capacity, scaled with the fleet size, to a
//! front-end load balancer dispatching over a 25GbE rack fabric to
//! 1/2/4 identical servers. Every server runs the full engine —
//! admission, EDF dispatch, chains, all five robustness layers — as
//! one partition of a single conservative window loop
//! (`dmx_sim::partition`), with the fabric's base latency as the
//! lookahead.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro fleet` invocation:
//!
//! * conservation: every arrival offered at the LB resolves exactly
//!   once (goodput + late + shed) on every cell;
//! * same-seed determinism: an independent serial re-run of the
//!   largest cell is byte-identical;
//! * fleet scaling: 4 servers at fixed per-server load complete at
//!   least 3x the goodput of 1 server;
//! * tenant affinity pins: tenant `t` dispatches only to server
//!   `t % servers`.

use super::{Calibration, Checks, Suite, TENANTS};
use crate::fleet::{run_fleet, FleetConfig, FleetResult, LbPolicy};
use crate::report::{ms, pct, Table};
use dmx_sim::{par_map, Time};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0xF1EE;

/// Fleet sizes swept.
pub const SERVERS: [usize; 3] = [1, 2, 4];

/// Offered load per server, as a multiple of the optimistic capacity
/// bound `MAX_INFLIGHT / clean_mean`. Accelerator contention puts real
/// capacity well below the bound, so 3.0x is solidly saturating.
pub const LOADS: [f64; 3] = [0.5, 1.5, 3.0];

/// Arrivals each tenant offers per server in the fleet (total offered
/// work scales with fleet size, keeping per-server work comparable).
const ARRIVALS_PER_TENANT_PER_SERVER: usize = 10;

/// Load used for the policy comparison and the same-seed check: the
/// middle of [`LOADS`], where queues are busy enough for dispatch
/// policy to matter but shedding is not dominant.
pub const POLICY_LOAD: f64 = 1.5;

/// One cell of the servers × load sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Fleet size.
    pub servers: usize,
    /// Per-server offered load multiple.
    pub load: f64,
    /// The fleet run's results.
    pub result: FleetResult,
}

/// One row of the policy comparison (largest fleet, [`POLICY_LOAD`]).
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The dispatch policy.
    pub policy: LbPolicy,
    /// The fleet run's results.
    pub result: FleetResult,
}

/// Full fleet-sweep results.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Capacity calibration: clean closed-loop cross-tenant mean.
    pub clean_mean: Time,
    /// The servers × load sweep under least-loaded dispatch.
    pub cells: Vec<Cell>,
    /// Policy comparison at the largest fleet, [`POLICY_LOAD`].
    pub policies: Vec<PolicyRow>,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

/// Runs the sweep under the default [`SEED`].
pub fn run(suite: &Suite) -> FleetSweep {
    run_with_seed(suite, SEED)
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> FleetSweep {
    let cal = Calibration::new(suite);
    let cell = |servers: usize, load: f64, policy: LbPolicy| FleetConfig {
        policy,
        ..cal.fleet_cell(seed, servers, load, ARRIVALS_PER_TENANT_PER_SERVER, true)
    };

    // The servers × load grid under least-loaded dispatch. Cells are
    // independent, so they fan out across the worker pool.
    let grid: Vec<(usize, f64)> = SERVERS
        .iter()
        .flat_map(|&s| LOADS.iter().map(move |&l| (s, l)))
        .collect();
    let cells: Vec<Cell> = par_map(&grid, |_, &(servers, load)| Cell {
        servers,
        load,
        result: run_fleet(&cell(servers, load, LbPolicy::LeastLoaded)),
    });

    // Policy comparison at the largest fleet, POLICY_LOAD.
    let policy_list = [
        LbPolicy::RoundRobin,
        LbPolicy::LeastLoaded,
        LbPolicy::TenantAffinity,
    ];
    let max_servers = *SERVERS.last().expect("fleet sizes");
    let policies: Vec<PolicyRow> = par_map(&policy_list, |_, &policy| PolicyRow {
        policy,
        result: run_fleet(&cell(max_servers, POLICY_LOAD, policy)),
    });

    // ---- embedded checks ---------------------------------------------
    // An independent same-seed re-simulation of the least-loaded
    // policy row, run serially outside the worker pool.
    let rerun = format!(
        "{:?}",
        run_fleet(&cell(max_servers, POLICY_LOAD, LbPolicy::LeastLoaded))
    );
    let row = |policy: LbPolicy| {
        &policies
            .iter()
            .find(|p| p.policy == policy)
            .expect("policy row")
            .result
    };

    // Fleet scaling at fixed 0.5x per-server load.
    let goodput_at = |servers: usize| {
        cells
            .iter()
            .find(|c| c.servers == servers && c.load == LOADS[0])
            .map(|c| c.result.goodput)
            .unwrap_or(0)
    };

    // Affinity pinning: tenant t only ever lands on server t % n, so
    // with 5 tenants on 4 servers, server 0 carries tenants 0 and 4.
    let per_tenant = ARRIVALS_PER_TENANT_PER_SERVER as u64 * max_servers as u64;
    let expected: Vec<u64> = (0..max_servers)
        .map(|s| (s..TENANTS).step_by(max_servers).count() as u64 * per_tenant)
        .collect();

    let checks = Checks(vec![
        (
            "every arrival resolved exactly once",
            cells
                .iter()
                .map(|c| &c.result)
                .chain(policies.iter().map(|p| &p.result))
                .all(FleetResult::conserved),
        ),
        (
            "same-seed re-run byte-identical",
            format!("{:?}", row(LbPolicy::LeastLoaded)) == rerun,
        ),
        (
            "4-server goodput >= 3x 1-server",
            goodput_at(4) >= 3 * goodput_at(1).max(1),
        ),
        (
            "tenant affinity pins to t mod n",
            row(LbPolicy::TenantAffinity).dispatched == expected,
        ),
    ]);

    FleetSweep {
        seed,
        clean_mean: cal.mean,
        cells,
        policies,
        checks,
    }
}

impl FleetSweep {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report (deterministic: identical for any host or
    /// `--threads`).
    pub fn render(&self) -> String {
        let mut sweep = Table::new(
            [
                "servers", "load", "offered", "goodput", "late", "shed", "balance", "e2e p50",
                "e2e p99", "windows", "msgs",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for c in &self.cells {
            let r = &c.result;
            sweep.row(vec![
                c.servers.to_string(),
                format!("{:.1}x", c.load),
                r.offered.to_string(),
                r.goodput.to_string(),
                r.late.to_string(),
                format!(
                    "{} ({})",
                    r.shed,
                    pct(r.shed as f64 / r.offered.max(1) as f64)
                ),
                format!("{:.2}", r.balance()),
                ms(r.e2e_p50),
                ms(r.e2e_p99),
                r.windows.windows.to_string(),
                r.windows.messages.to_string(),
            ]);
        }

        let mut pol = Table::new(
            [
                "policy", "goodput", "late", "shed", "balance", "e2e p50", "e2e p99", "e2e p999",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for p in &self.policies {
            let r = &p.result;
            pol.row(vec![
                p.policy.to_string(),
                r.goodput.to_string(),
                r.late.to_string(),
                r.shed.to_string(),
                format!("{:.2}", r.balance()),
                ms(r.e2e_p50),
                ms(r.e2e_p99),
                ms(r.e2e_p999),
            ]);
        }

        format!(
            "repro fleet — servers x load sweep behind a load balancer (seed {seed:#x})\n\
             Five open-loop tenants offer load at multiples of per-server\n\
             capacity (clean mean latency {mean}), scaled by fleet size,\n\
             through a 25us/25GbE rack fabric. One conservative partitioned\n\
             simulation per cell: each server is a partition, lookahead =\n\
             the fabric's base latency. Least-loaded dispatch.\n\n\
             {sweep}\n\
             Dispatch policies at {servers} servers, {pload}x load:\n\n{pol}\n\
             {checks}",
            seed = self.seed,
            mean = ms(self.clean_mean),
            sweep = sweep.render(),
            servers = SERVERS.last().expect("fleet sizes"),
            pload = POLICY_LOAD,
            pol = pol.render(),
            checks = self.checks.render(39),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shedding_grows_with_load() {
        let r = run(&Suite::new());
        assert_eq!(r.cells.len(), SERVERS.len() * LOADS.len());
        assert_eq!(r.policies.len(), 3);
        // At 4 servers, saturating load must shed more than light load.
        let shed_at = |load: f64| {
            r.cells
                .iter()
                .find(|c| c.servers == 4 && c.load == load)
                .map(|c| c.result.shed)
                .expect("cell")
        };
        assert!(shed_at(LOADS[2]) > shed_at(LOADS[0]));
    }
}
