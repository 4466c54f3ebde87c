//! Window invariance, the fleet's determinism oracle: a fleet run gives
//! the same results at any lookahead up to the fabric's base latency,
//! and only its [`WindowStats`] move. Random fleets under every fault
//! layer run at the fabric's lookahead `L`, at `L/2` and at `L/k` for a
//! random `k` in 3..=1000, and each keeps its conservation ledger.
//! Runs on the in-tree deterministic harness (`dmx_sim::check`).

use super::*;
use crate::experiments::Suite;
use crate::integrity::{ChecksumMode, IntegrityConfig};
use crate::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use crate::placement::{Mode, Placement};
use crate::system::{simulate, units};
use dmx_sim::{
    cases, run_cases, CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, FaultConfig, Gen,
};

const TENANTS: usize = 3;

fn n_cases() -> usize {
    cases(if cfg!(feature = "heavy-tests") { 24 } else { 8 })
}

/// Runs `cfg` at the fabric's lookahead `L` and at `L / k` for each
/// `k` in `divisors`. Asserts that every result field but `windows`
/// matches the run at `L`, and returns that run.
pub(super) fn window_invariant(cfg: &FleetConfig, divisors: &[u64]) -> FleetResult {
    let lookahead = cfg.fabric.lookahead();
    let without_windows = |r: &FleetResult| {
        format!(
            "{:?}",
            FleetResult {
                windows: WindowStats::default(),
                ..r.clone()
            }
        )
    };
    let base = run_at(cfg, lookahead).expect("fleet run");
    let want = without_windows(&base);
    for &k in divisors {
        let r = run_at(cfg, lookahead / k).expect("fleet run");
        assert_eq!(without_windows(&r), want, "lookahead L/{k} moved a result");
    }
    base
}

/// A random crash-stop schedule: up to two outages over the horizon.
fn gen_crashes(g: &mut Gen, horizon: Time) -> Vec<CrashEvent> {
    let n = g.usize_in(0, 3);
    (0..n)
        .map(|_| {
            let at = horizon.scale(g.f64_in(0.05, 0.5));
            let down_for = Some(horizon.scale(g.f64_in(0.02, 0.2)));
            let target = match g.usize_in(0, 3) {
                0 => CrashTarget::Driver,
                1 => CrashTarget::Subtree(g.usize_in(0, 2)),
                _ => CrashTarget::Device(units::bitw(g.usize_in(0, TENANTS), 0)),
            };
            CrashEvent {
                target,
                at,
                down_for,
            }
        })
        .collect()
}

/// A random fail-slow schedule: up to two degrade windows on a device,
/// a single PCIe link or a whole subtree.
fn gen_degrades(g: &mut Gen, horizon: Time) -> Vec<DegradeEvent> {
    let n = g.usize_in(0, 3);
    (0..n)
        .map(|_| DegradeEvent {
            target: match g.usize_in(0, 3) {
                0 => DegradeTarget::Device(units::bitw(g.usize_in(0, TENANTS), 0)),
                1 => DegradeTarget::Link(g.usize_in(0, 4)),
                _ => DegradeTarget::Subtree(g.usize_in(0, 2)),
            },
            at: horizon.scale(g.f64_in(0.05, 0.4)),
            down_for: Some(horizon.scale(g.f64_in(0.05, 0.3))),
            slowdown: g.f64_in(1.5, 6.0),
            jitter: if g.chance(0.5) {
                g.f64_in(0.0, 0.5)
            } else {
                0.0
            },
            duty: None,
        })
        .collect()
}

/// A per-server system with the full fault stack composed in: crashes,
/// degrades, SDC injection with per-hop integrity checks, admission
/// and EDF shedding.
fn server_cfg(
    suite: &Suite,
    seed: u64,
    slowest: Time,
    sdc_rate: f64,
    crashes: Vec<CrashEvent>,
    degrades: Vec<DegradeEvent>,
) -> SystemConfig {
    let mut faults = FaultConfig::none();
    faults.seed = seed;
    faults.sdc.spad_flip_rate = sdc_rate;
    faults.sdc.dma_flip_rate = sdc_rate / 2.0;
    faults.crashes = crashes;
    faults.degrades = degrades;
    let mut integ = IntegrityConfig::checked(ChecksumMode::PerHop);
    integ.max_reexec = 4;
    SystemConfig {
        faults: Some(faults),
        integrity: Some(integ),
        overload: Some(OverloadConfig {
            admission: AdmissionParams {
                tokens_per_sec: f64::INFINITY,
                burst: 1.0,
                max_inflight: 6,
            },
            deadline: slowest * 4,
            shed: ShedPolicy::Reject,
            queue_capacity: 6,
            ..OverloadConfig::none()
        }),
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS))
    }
}

/// The clean closed-loop mean and slowest app latency of the tenant
/// mix, which scale each case's offered load and deadlines.
fn calibrate(suite: &Suite) -> (Time, Time) {
    let clean = simulate(&SystemConfig::latency(
        Mode::Dmx(Placement::BumpInTheWire),
        suite.mix(TENANTS),
    ));
    let slowest = clean.apps.iter().map(|a| a.latency).max().unwrap();
    (clean.mean_latency(), slowest)
}

/// Offered load per tenant at `load` times a server's optimistic
/// capacity bound, scaled by the fleet size.
fn rate(mean: Time, load: f64, servers: usize) -> f64 {
    load * 6.0 / (mean.as_secs_f64() * TENANTS as f64) * servers as f64
}

/// The three lookaheads every case runs at: `L`, `L/2` and `L/k`.
fn divisors(g: &mut Gen) -> [u64; 2] {
    [2, g.u64_in(3, 1001)]
}

#[test]
fn fleet_window_invariant_under_faults() {
    let suite = Suite::new();
    let (mean, slowest) = calibrate(&suite);

    run_cases("fleet::window_invariance_under_chaos", n_cases(), |g| {
        let seed = g.u64_in(0, u64::MAX);
        let servers = g.usize_in(1, 4);
        let per_tenant = g.usize_in(3, 6);
        let load = g.f64_in(0.5, 2.5);
        let sdc_rate = if g.chance(0.3) {
            0.0
        } else {
            g.f64_in(1e-8, 5e-7)
        };
        // The schedule horizon covers the per-server request stream.
        let horizon = mean * (per_tenant as u64 * 3);
        let crashes = gen_crashes(g, horizon);
        let degrades = gen_degrades(g, horizon);
        let policy = *g.pick(&[
            LbPolicy::RoundRobin,
            LbPolicy::LeastLoaded,
            LbPolicy::TenantAffinity,
        ]);
        let cfg = FleetConfig {
            servers,
            server: server_cfg(&suite, seed, slowest, sdc_rate, crashes.clone(), degrades),
            policy,
            fabric: InterNodeFabric::default(),
            seed,
            arrivals: vec![
                ArrivalProcess::Poisson {
                    rate_rps: rate(mean, load, servers)
                };
                TENANTS
            ],
            requests_per_tenant: per_tenant * servers,
            request_bytes: 64 << 10,
            response_bytes: 16 << 10,
            failover: None,
            fault_plan: None,
        };
        let base = window_invariant(&cfg, &divisors(g));

        // Conservation under the full fault stack: every arrival the
        // LB offered resolves exactly once, even when crash-stop kills
        // requests mid-flight and integrity quarantines poisoned
        // tenants.
        assert!(
            base.conserved(),
            "conservation violated: offered {} goodput {} late {} shed {} \
             (servers {servers}, load {load:.2}, crashes {crashes:?})",
            base.offered,
            base.goodput,
            base.late,
            base.shed
        );
    });
}

/// A random fleet-level fault plan: up to two server kills, one gray
/// window, and one network cut, all inside the horizon.
fn gen_fleet_plan(g: &mut Gen, servers: usize, horizon: Time) -> FleetFaultPlan {
    let mut plan = FleetFaultPlan::none();
    for _ in 0..g.usize_in(0, 3) {
        plan.kills.push(ServerKill {
            server: g.usize_in(0, servers),
            at: horizon.scale(g.f64_in(0.05, 0.5)),
            down_for: g.chance(0.5).then(|| horizon.scale(g.f64_in(0.05, 0.3))),
        });
    }
    if g.chance(0.5) {
        plan.grays.push(ServerGray {
            server: g.usize_in(0, servers),
            at: horizon.scale(g.f64_in(0.0, 0.4)),
            down_for: g.chance(0.7).then(|| horizon.scale(g.f64_in(0.1, 0.4))),
            slowdown: g.f64_in(2.0, 30.0),
        });
    }
    if g.chance(0.5) {
        plan.outages.push(ServerOutage {
            server: g.usize_in(0, servers),
            at: horizon.scale(g.f64_in(0.0, 0.4)),
            down_for: g.chance(0.7).then(|| horizon.scale(g.f64_in(0.1, 0.4))),
        });
    }
    plan
}

/// A random per-class SLO/retry policy set. Timeouts sit well above
/// healthy resolution latency so they fire only on genuinely lost or
/// crawling attempts; sim time is free.
fn gen_failover(g: &mut Gen) -> FailoverConfig {
    let retries = g.usize_in(0, 4) as u32;
    FailoverConfig {
        health: LbHealthParams::default(),
        classes: vec![
            ClassPolicy {
                class: RequestClass::LatencySensitive,
                slo: Time::from_secs_f64(g.f64_in(60.0, 200.0)),
                timeout: Time::from_secs_f64(g.f64_in(10.0, 40.0)),
                retries,
                hedge_after: g.chance(0.5).then(|| Time::from_ms(g.u64_in(5, 50))),
            },
            ClassPolicy {
                class: RequestClass::Batch,
                slo: Time::from_secs_f64(g.f64_in(200.0, 500.0)),
                timeout: Time::from_secs_f64(g.f64_in(40.0, 80.0)),
                retries: g.usize_in(0, 4) as u32,
                hedge_after: None,
            },
        ],
    }
}

#[test]
fn failover_fleet_window_invariant_and_ledger_conserved() {
    // Random server counts x kill/gray/cut schedules x retry budgets x
    // hedge coins. Every draw must (a) be window-invariant, (b) keep
    // the duplicates-aware conservation ledger, and (c) strand nothing.
    let suite = Suite::new();
    let (mean, slowest) = calibrate(&suite);

    run_cases("fleet::failover_window_invariance", n_cases(), |g| {
        let seed = g.u64_in(0, u64::MAX);
        let servers = g.usize_in(2, 4);
        let per_tenant = g.usize_in(3, 6);
        let load = g.f64_in(0.3, 1.5);
        let horizon = mean * (per_tenant as u64 * 3);
        let policy = *g.pick(&[
            LbPolicy::RoundRobin,
            LbPolicy::LeastLoaded,
            LbPolicy::TenantAffinity,
        ]);
        let cfg = FleetConfig {
            servers,
            server: server_cfg(&suite, seed, slowest, 0.0, Vec::new(), Vec::new()),
            policy,
            fabric: InterNodeFabric::default(),
            seed,
            arrivals: vec![
                ArrivalProcess::Poisson {
                    rate_rps: rate(mean, load, servers)
                };
                TENANTS
            ],
            requests_per_tenant: per_tenant * servers,
            request_bytes: 64 << 10,
            response_bytes: 16 << 10,
            failover: Some(gen_failover(g)),
            fault_plan: Some(gen_fleet_plan(g, servers, horizon)),
        };
        let base = window_invariant(&cfg, &divisors(g));

        let f = base.failover.as_ref().expect("failover report");
        assert!(
            base.conserved_with_duplicates(),
            "ledger violated: offered {} goodput {} late {} shed {} report {f:?} \
             (servers {servers}, seed {seed:#x})",
            base.offered,
            base.goodput,
            base.late,
            base.shed,
        );
        assert_eq!(
            f.stranded, 0,
            "stranded requests under re-dispatch (servers {servers}, seed {seed:#x}): {f:?}"
        );
    });
}
