//! Allocation budget (ROADMAP M(d)): a counting global allocator pins
//! the heap allocations of one fleet run and of the per-request event
//! path of an open-loop server, each at most its measured count.
//!
//! Release only: `FlowNet`'s debug cross-check allocates on every
//! solve. Run with `cargo test --release -p dmx-core --test
//! alloc_budget`.

use dmx_core::apps::BenchmarkId;
use dmx_core::fleet::{
    try_run_fleet, ClassPolicy, FailoverConfig, FleetConfig, LbHealthParams, LbPolicy, RequestClass,
};
use dmx_core::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use dmx_core::system::{Stepped, SystemConfig};
use dmx_core::{Mode, Placement};
use dmx_pcie::InterNodeFabric;
use dmx_sim::{ArrivalGen, ArrivalProcess, SplitMix64, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to `System`, counting this thread's allocations: the test
/// harness runs tests on parallel threads, which must not mix.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// An open-loop server of three apps behind EDF admission.
fn server() -> SystemConfig {
    let apps = (0..3).map(|i| BenchmarkId::FIVE[i].build()).collect();
    SystemConfig {
        overload: Some(OverloadConfig {
            admission: AdmissionParams {
                tokens_per_sec: f64::INFINITY,
                burst: 1.0,
                max_inflight: 4,
            },
            deadline: Time::from_ms(40),
            shed: ShedPolicy::Reject,
            queue_capacity: 16,
            ..OverloadConfig::none()
        }),
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), apps)
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fleet_run_allocations() {
    let cfg = FleetConfig {
        servers: 4,
        server: server(),
        policy: LbPolicy::LeastLoaded,
        fabric: InterNodeFabric::default(),
        seed: 0xF1EE7,
        arrivals: vec![ArrivalProcess::Poisson { rate_rps: 3000.0 }],
        requests_per_tenant: 40,
        request_bytes: 16 << 10,
        response_bytes: 4 << 10,
        failover: Some(FailoverConfig {
            health: LbHealthParams::default(),
            classes: vec![ClassPolicy {
                class: RequestClass::LatencySensitive,
                slo: Time::from_secs_f64(120.0),
                timeout: Time::from_secs_f64(30.0),
                retries: 2,
                hedge_after: Some(Time::from_ms(10)),
            }],
        }),
        fault_plan: None,
    };
    let before = allocs();
    let r = try_run_fleet(&cfg, 1).expect("a valid fleet");
    let n = allocs() - before;
    assert!(r.conserved_with_duplicates());
    println!("fleet run: {n} allocations for {} requests", r.offered);
    assert!(n <= BUDGET_FLEET, "{n} allocations, budget {BUDGET_FLEET}");
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pump_allocations_per_request() {
    let cfg = server();
    let mut sim = Stepped::new(&cfg).expect("a live overload section");
    let mut gen = ArrivalGen::new(
        ArrivalProcess::Poisson { rate_rps: 2000.0 },
        SplitMix64::new(7),
    );
    let (mut at, mut tag) = (Time::ZERO, 0u64);
    let window = Time::from_ms(5);
    let (mut counted, mut injected) = (0u64, 0u64);
    for w in 1..=40u64 {
        let horizon = Time::from_ps(window.as_ps() * w);
        let mut n = 0;
        while at < horizon {
            tag += 1;
            sim.inject_arrival_tagged((tag % 3) as usize, at, tag);
            at += gen.next_gap();
            n += 1;
        }
        let before = allocs();
        sim.pump_until(horizon).expect("the server runs");
        // The first windows warm the engine's buffers up.
        if w > 8 {
            counted += allocs() - before;
            injected += n;
        }
        let _ = sim.drain_resolutions();
    }
    let per_request = counted as f64 / injected as f64;
    println!("pump_until: {counted} allocations for {injected} requests");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.3} allocations per request, budget {BUDGET_PER_REQUEST}"
    );
}

/// Allocations of one `try_run_fleet` call on `fleet_run_allocations`'
/// config: 1,026 measured (4 servers, 120 requests, the plan built
/// once).
const BUDGET_FLEET: u64 = 1_026;
/// Allocations per injected request inside `Stepped::pump_until` after
/// the warm-up: 9 for 319 requests measured.
const BUDGET_PER_REQUEST: f64 = 0.03;
