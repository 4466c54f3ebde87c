//! The fleet inside the sweep worker pool: fleet runs fanned out by
//! `par_map` must be byte-identical to the same runs made serially.
//! The fleet's own determinism oracle, window invariance, is the
//! property suite in `dmx_core::fleet`'s unit tests.

use dmx_core::experiments::Suite;
use dmx_core::fleet::{run_fleet, FleetConfig, LbPolicy};
use dmx_core::integrity::{ChecksumMode, IntegrityConfig};
use dmx_core::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{simulate, SystemConfig};
use dmx_pcie::InterNodeFabric;
use dmx_sim::{ArrivalProcess, FaultConfig};

const TENANTS: usize = 3;

#[test]
fn fleet_identity_composes_with_par_map() {
    // Each pool task runs its own fleet; results stay byte-identical
    // with the pool on or off.
    let suite = Suite::new();
    let clean = simulate(&SystemConfig::latency(
        Mode::Dmx(Placement::BumpInTheWire),
        suite.mix(TENANTS),
    ));
    let mean = clean.mean_latency();
    let slowest = clean.apps.iter().map(|a| a.latency).max().unwrap();
    let rate = 6.0 / (mean.as_secs_f64() * TENANTS as f64);
    let mut faults = FaultConfig::none();
    faults.seed = 7;
    let mut integ = IntegrityConfig::checked(ChecksumMode::PerHop);
    integ.max_reexec = 4;
    let server = SystemConfig {
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
    };
    let cfg = |servers: usize| FleetConfig {
        servers,
        server: server.clone(),
        policy: LbPolicy::LeastLoaded,
        fabric: InterNodeFabric::default(),
        seed: 7,
        arrivals: vec![
            ArrivalProcess::Poisson {
                rate_rps: rate * servers as f64
            };
            TENANTS
        ],
        requests_per_tenant: 4 * servers,
        request_bytes: 64 << 10,
        response_bytes: 16 << 10,
        failover: None,
        fault_plan: None,
    };

    let prev = dmx_sim::par::set_threads(1);
    let serial: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&s| format!("{:?}", run_fleet(&cfg(s))))
        .collect();
    dmx_sim::par::set_threads(4);
    let pooled = dmx_sim::par_map(&[1usize, 2, 4], |_, &s| format!("{:?}", run_fleet(&cfg(s))));
    dmx_sim::par::set_threads(prev);
    assert_eq!(serial, pooled);
}
