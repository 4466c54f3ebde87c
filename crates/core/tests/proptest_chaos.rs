//! Property suite of the crash-stop layer: random crash schedules
//! composed with random DRX placements, silent-corruption rates and
//! load factors must conserve every admitted request and every injected
//! flip, replay byte-identically under the same seed, and leave zero
//! trace when the schedule is empty. Runs on the in-tree deterministic
//! harness (`dmx_sim::check`).

use dmx_core::experiments::Suite;
use dmx_core::integrity::{ChecksumMode, IntegrityConfig};
use dmx_core::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{simulate, units, CrashReport, SystemConfig};
use dmx_sim::{cases, run_cases, ArrivalProcess, CrashEvent, CrashTarget, FaultConfig, Gen, Time};

const TENANTS: usize = 3;
const ARRIVALS_PER_TENANT: usize = 8;

fn n_cases() -> usize {
    cases(if cfg!(feature = "heavy-tests") { 32 } else { 8 })
}

/// A device id of any placement: a bump-in-the-wire DRX on one of the
/// first two edges, a standalone card, or one of the first two pools.
/// Ids the run's placement does not deploy stay in the draw: crashing
/// them must do nothing.
fn gen_device(g: &mut Gen) -> u64 {
    let tenant = g.usize_in(0, TENANTS);
    match g.usize_in(0, 3) {
        0 => units::bitw(tenant, g.usize_in(0, 2)),
        1 => units::card(tenant),
        _ => units::pool(g.usize_in(0, 2)),
    }
}

/// A random crash schedule: up to three events over the run horizon.
/// Driver and subtree outages stay finite; device removals may be
/// permanent (their batches reroute to the host fallback).
fn gen_schedule(g: &mut Gen, horizon: Time) -> Vec<CrashEvent> {
    let n = g.usize_in(0, 4);
    (0..n)
        .map(|_| {
            let at = horizon.scale(g.f64_in(0.05, 0.5));
            let outage = |g: &mut Gen| horizon.scale(g.f64_in(0.02, 0.2));
            match g.usize_in(0, 4) {
                0 => CrashEvent {
                    target: CrashTarget::Driver,
                    at,
                    down_for: Some(outage(g)),
                },
                1 => CrashEvent {
                    target: CrashTarget::Subtree(g.usize_in(0, 2)),
                    at,
                    down_for: Some(outage(g)),
                },
                _ => CrashEvent {
                    target: CrashTarget::Device(gen_device(g)),
                    at,
                    down_for: if g.chance(0.75) {
                        Some(outage(g))
                    } else {
                        None
                    },
                },
            }
        })
        .collect()
}

/// A DRX placement and the mean and slowest per-app latency of its
/// clean run, which calibrate its load and horizon.
#[derive(Clone, Copy)]
struct Calibrated {
    placement: Placement,
    mean: Time,
    slowest: Time,
}

/// The composed config under test: open-loop tenants at `load` times
/// capacity of `cal`'s placement, SDC at `rate`, per-hop checksums, and
/// `crashes`.
fn composed(
    suite: &Suite,
    cal: Calibrated,
    seed: u64,
    load: f64,
    rate: f64,
    crashes: Vec<CrashEvent>,
) -> SystemConfig {
    let rps = load / cal.mean.as_secs_f64();
    let mut faults = FaultConfig::none();
    faults.seed = seed;
    faults.sdc.spad_flip_rate = rate;
    faults.sdc.dma_flip_rate = rate / 2.0;
    faults.crashes = crashes;
    let mut integ = IntegrityConfig::checked(ChecksumMode::PerHop);
    integ.max_reexec = 8;
    SystemConfig {
        requests_per_app: ARRIVALS_PER_TENANT,
        faults: Some(faults),
        overload: Some(OverloadConfig {
            seed,
            arrivals: vec![ArrivalProcess::Poisson { rate_rps: rps }; TENANTS],
            admission: AdmissionParams {
                tokens_per_sec: 1.3 * rps,
                burst: 4.0,
                max_inflight: 8,
            },
            deadline: cal.slowest * 4,
            shed: ShedPolicy::Reject,
            queue_capacity: 8,
            ..OverloadConfig::none()
        }),
        integrity: Some(integ),
        ..SystemConfig::latency(Mode::Dmx(cal.placement), suite.mix(TENANTS))
    }
}

#[test]
fn random_chaos_conserves_requests_and_flips() {
    let suite = Suite::new();
    let calibrated = Placement::ALL.map(|placement| {
        let clean = simulate(&SystemConfig::latency(
            Mode::Dmx(placement),
            suite.mix(TENANTS),
        ));
        Calibrated {
            placement,
            mean: clean.mean_latency(),
            slowest: clean.apps.iter().map(|a| a.latency).max().unwrap(),
        }
    });

    run_cases("chaos_conservation", n_cases(), |g| {
        let cal = calibrated[g.usize_in(0, Placement::ALL.len())];
        let horizon = cal.mean * (ARRIVALS_PER_TENANT as u64);
        let seed = g.u64_in(0, u64::MAX);
        let load = g.f64_in(0.6, 2.0);
        let rate = if g.chance(0.25) {
            0.0
        } else {
            g.f64_in(1e-8, 5e-7)
        };
        let sched = gen_schedule(g, horizon);
        let cfg = composed(&suite, cal, seed, load, rate, sched.clone());

        let r = simulate(&cfg);
        let o = r.overload.as_ref().expect("open-loop run must report");

        // Every offered arrival is accounted for exactly once: it
        // completed (in or out of deadline), was shed at admission /
        // queue / deadline, was quarantine-shed, or died with a crash.
        let offered: u64 = o.tenants.iter().map(|t| t.offered).sum();
        let resolved: u64 = o
            .tenants
            .iter()
            .map(|t| {
                t.goodput + t.late + t.rejected_admission + t.rejected_queue_full + t.shed_deadline
            })
            .sum();
        assert_eq!(
            offered,
            resolved + r.integrity.quarantine_shed + r.crashes.crash_killed,
            "request conservation violated under {} (sched {sched:?}, load {load}, rate {rate})",
            cal.placement.name()
        );

        // Every injected flip is accounted for: detected, escaped, or
        // discarded with a crash-killed request.
        assert!(
            r.integrity
                .conserved_with_discarded(r.crashes.flips_discarded),
            "flip ledger violated: {:?} + discarded {}",
            r.integrity,
            r.crashes.flips_discarded
        );

        // Same seed, same schedule: byte-identical replay.
        let again = simulate(&cfg);
        assert_eq!(
            format!("{r:?}"),
            format!("{again:?}"),
            "nondeterministic replay (sched {sched:?})"
        );

        // The crash layer disabled (empty schedule) must leave no
        // trace: no checkpoints, no events, no accounting.
        let stripped = {
            let mut f = cfg.faults.clone().expect("composed sets faults");
            f.crashes.clear();
            SystemConfig {
                faults: Some(f),
                ..cfg.clone()
            }
        };
        let rs = simulate(&stripped);
        assert_eq!(
            rs.crashes,
            CrashReport::default(),
            "empty schedule left a trace"
        );
        if sched.is_empty() {
            // ... and when the schedule was already empty, stripping it
            // changes nothing at all.
            assert_eq!(format!("{r:?}"), format!("{rs:?}"));
        }

        // With the whole fault layer inert, the layer-absent path is
        // bit-identical (the zero-overhead guarantee).
        if rate == 0.0 && sched.is_empty() {
            let absent = SystemConfig {
                faults: None,
                ..cfg.clone()
            };
            let ra = simulate(&absent);
            assert_eq!(
                format!("{rs:?}"),
                format!("{ra:?}"),
                "inert fault config must match the layer-absent path"
            );
        }
    });
}
