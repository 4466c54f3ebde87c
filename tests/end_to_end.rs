//! Integration tests: the full-system simulator across modes and
//! workloads.

use dmx_core::apps::BenchmarkId;
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{simulate, SystemConfig};
use dmx_sim::Time;

fn quick(mode: Mode, n: usize, requests: usize) -> dmx_core::system::RunResult {
    // Arm the engine's no-progress watchdog: a simulation that stops
    // advancing time aborts with an event dump instead of hanging.
    dmx_sim::set_default_stall_limit(1_000_000);
    let apps = (0..n).map(|i| BenchmarkId::FIVE[i % 5].build()).collect();
    let mut cfg = SystemConfig::latency(mode, apps);
    cfg.requests_per_app = requests;
    simulate(&cfg)
}

#[test]
fn every_mode_completes_every_benchmark() {
    for mode in [
        Mode::AllCpu,
        Mode::MultiAxl,
        Mode::Dmx(Placement::Integrated),
        Mode::Dmx(Placement::Standalone),
        Mode::Dmx(Placement::BumpInTheWire),
        Mode::Dmx(Placement::PcieIntegrated),
    ] {
        let r = quick(mode, 5, 2);
        assert_eq!(r.apps.len(), 5);
        for a in &r.apps {
            assert_eq!(a.completed, 2, "{} under {:?}", a.name, mode);
            assert!(a.latency > Time::ZERO);
            assert!(
                a.breakdown.total().as_ps() > 0,
                "breakdown empty for {}",
                a.name
            );
        }
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let a = quick(Mode::Dmx(Placement::BumpInTheWire), 10, 3);
    let b = quick(Mode::Dmx(Placement::BumpInTheWire), 10, 3);
    assert_eq!(a.makespan, b.makespan);
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.latency, y.latency);
        assert_eq!(x.breakdown, y.breakdown);
    }
    assert_eq!(a.energy.total(), b.energy.total());
}

#[test]
fn latency_conservation_per_request() {
    // Mean breakdown components must sum to the mean latency: every
    // picosecond of a request's life is attributed to exactly one
    // bucket.
    let r = quick(Mode::MultiAxl, 3, 4);
    for a in &r.apps {
        let sum = a.breakdown.total().as_secs_f64();
        let lat = a.latency.as_secs_f64();
        assert!(
            (sum - lat).abs() < 1e-9 + lat * 1e-6,
            "{}: breakdown {sum} != latency {lat}",
            a.name
        );
    }
}

#[test]
fn dmx_beats_baseline_on_every_benchmark() {
    for id in BenchmarkId::FIVE {
        let app = id.build();
        let mut base = SystemConfig::latency(Mode::MultiAxl, vec![app.clone()]);
        base.requests_per_app = 2;
        let mut dmx = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![app]);
        dmx.requests_per_app = 2;
        let b = simulate(&base);
        let d = simulate(&dmx);
        let speedup = b.mean_latency().as_secs_f64() / d.mean_latency().as_secs_f64();
        assert!(speedup > 1.3, "{}: speedup {speedup}", id.name());
    }
}

#[test]
fn kernel_time_is_mode_invariant() {
    // "Kernel execution latencies are the same for both Multi-Axl and
    // DMX" (Sec. VII.A) — accelerators are untouched by DMX.
    let app = BenchmarkId::SoundDetection.build();
    let mut base = SystemConfig::latency(Mode::MultiAxl, vec![app.clone()]);
    base.requests_per_app = 2;
    let mut dmx = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![app]);
    dmx.requests_per_app = 2;
    let b = simulate(&base).apps[0].breakdown.kernel;
    let d = simulate(&dmx).apps[0].breakdown.kernel;
    assert_eq!(b, d);
}

#[test]
fn more_apps_never_reduce_baseline_latency() {
    let l1 = quick(Mode::MultiAxl, 5, 2).mean_latency();
    let l10 = quick(Mode::MultiAxl, 10, 2).mean_latency();
    let l15 = quick(Mode::MultiAxl, 15, 2).mean_latency();
    assert!(l10 >= l1, "{l1} -> {l10}");
    assert!(l15 >= l10, "{l10} -> {l15}");
}

#[test]
fn three_kernel_chain_runs() {
    let app = BenchmarkId::PirWithNer.build();
    assert_eq!(app.stages.len(), 3);
    let mut cfg = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![app]);
    cfg.requests_per_app = 2;
    let r = simulate(&cfg);
    assert_eq!(r.apps[0].completed, 2);
    // The NER kernel dominates with DMX (Fig. 16).
    let b = &r.apps[0].breakdown;
    assert!(b.kernel > b.restructure + b.movement);
}

#[test]
fn energy_reports_are_consistent() {
    let r = quick(Mode::Dmx(Placement::BumpInTheWire), 5, 2);
    let e = r.energy;
    assert!(e.cpu_j > 0.0 && e.accel_j > 0.0 && e.drx_j > 0.0 && e.pcie_j > 0.0);
    let total = e.cpu_j + e.accel_j + e.drx_j + e.pcie_j;
    assert!((e.total() - total).abs() < 1e-12);
    // Baselines have no DRX energy.
    assert_eq!(quick(Mode::MultiAxl, 5, 2).energy.drx_j, 0.0);
    assert_eq!(quick(Mode::AllCpu, 5, 2).energy.drx_j, 0.0);
}

#[test]
fn notify_counts_track_driver_activity() {
    let r = quick(Mode::MultiAxl, 10, 3);
    let (irq, poll) = r.notify_counts;
    // 10 apps x 3 requests x 2 notifications per edge.
    assert!(irq + poll >= 60, "only {} events", irq + poll);
}

#[test]
fn tail_latency_is_ordered() {
    let r = quick(Mode::MultiAxl, 10, 6);
    for a in &r.apps {
        assert!(a.latency_p50 <= a.latency_p99, "{}", a.name);
        assert!(a.latency_p99 >= a.latency, "{}: p99 below mean", a.name);
        assert!(a.latency_p50 > Time::ZERO);
    }
}

#[test]
fn tiny_data_queues_add_latency() {
    let app = BenchmarkId::DatabaseHashJoin.build();
    let mut big = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![app.clone()]);
    big.requests_per_app = 2;
    let mut small = big.clone();
    small.apps = vec![app];
    small.queue_bytes = 1 << 20; // 1 MiB queues vs 16 MB batches
    let lb = simulate(&big).mean_latency();
    let ls = simulate(&small).mean_latency();
    assert!(
        ls > lb,
        "segmented handover must cost something: {ls} vs {lb}"
    );
}

/// The request lifecycle mirrors Fig. 10's eleven steps: kernel (1),
/// interrupt to CPU (2), driver shares the RX queue offset and programs
/// the p2p DMA (3-4), transfer into the DRX (4), restructuring (5-7),
/// completion interrupt (8), p2p DMA setup (9), pass-through transfer
/// to the next accelerator (10), next kernel (11). This test pins the
/// model's step structure to that sequence.
#[test]
fn request_lifecycle_matches_fig10() {
    let app = BenchmarkId::SoundDetection.build();
    let mut cfg = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![app]);
    cfg.requests_per_app = 1;
    let r = simulate(&cfg);
    let a = &r.apps[0];
    // Exactly one request, fully attributed.
    assert_eq!(a.completed, 1);
    // Both kernels ran (step 1 and 11).
    assert!(a.breakdown.kernel > Time::ZERO);
    // The DRX restructured (steps 5-7).
    assert!(a.breakdown.restructure > Time::ZERO);
    // Movement includes both DMAs and both driver notifications
    // (steps 2-4 and 8-10): at least 2 interrupts were taken.
    assert!(a.breakdown.movement > Time::ZERO);
    let (irq, poll) = r.notify_counts;
    assert!(irq + poll >= 2, "steps 2 and 8 notify the CPU");
}

#[test]
#[should_panic(expected = "at least one application")]
fn empty_workload_is_rejected() {
    simulate(&SystemConfig::latency(Mode::MultiAxl, vec![]));
}

/// An app the engine cannot walk is an error from both entry points,
/// not a panic: one without stages, and one missing the edge between
/// its two stages. A standalone card also exercises the layout, which
/// indexes every app's stages.
#[test]
fn malformed_apps_are_errors_not_panics() {
    use dmx_accel::AccelKind;
    use dmx_core::apps::{Benchmark, Stage};
    use dmx_core::system::{try_simulate, SimError, Stepped};
    use std::sync::Arc;

    let stage = Stage {
        kind: AccelKind::Gzip,
        input_bytes: 1 << 20,
    };
    for stages in [vec![], vec![stage, stage]] {
        let bench = Arc::new(Benchmark {
            name: "malformed",
            stages,
            edges: Vec::new(),
        });
        let cfg = SystemConfig::latency(Mode::Dmx(Placement::Standalone), vec![bench]);
        assert_eq!(try_simulate(&cfg).err(), Some(SimError::MalformedApp(0)));
        assert_eq!(Stepped::new(&cfg).err(), Some(SimError::MalformedApp(0)));
    }
}

/// A unit id packs its edge index into 8 bits, so a chain with more
/// than 256 edges would alias other units' ids. It is a malformed app
/// from both entry points, not a panic; 256 edges still build.
#[test]
fn chains_past_256_edges_are_malformed() {
    use dmx_accel::AccelKind;
    use dmx_core::apps::{Benchmark, Edge, Stage};
    use dmx_core::overload::OverloadConfig;
    use dmx_core::system::{try_simulate, SimError, Stepped};
    use dmx_restructure::EndianSwap;
    use std::sync::Arc;

    let stage = Stage {
        kind: AccelKind::Gzip,
        input_bytes: 1 << 20,
    };
    let chain = |stages: usize| {
        let swap = || {
            Edge::new(
                "swap",
                vec![(Box::new(EndianSwap { words: 64 }), 1 << 20)],
                1 << 20,
                1 << 20,
            )
        };
        let bench = Arc::new(Benchmark {
            name: "long chain",
            stages: vec![stage; stages],
            edges: (1..stages).map(|_| swap()).collect(),
        });
        SystemConfig {
            overload: Some(OverloadConfig {
                deadline: Time::from_secs(1),
                ..OverloadConfig::none()
            }),
            ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![bench])
        }
    };
    let long = chain(300);
    assert_eq!(try_simulate(&long).err(), Some(SimError::MalformedApp(0)));
    assert_eq!(Stepped::new(&long).err(), Some(SimError::MalformedApp(0)));
    assert!(Stepped::new(&chain(257)).is_ok());
}

/// The system handles arbitrary chain lengths, not just the paper's 2-
/// and 3-kernel pipelines: build a custom 4-kernel chain and run it
/// under baseline and DMX.
#[test]
fn four_kernel_custom_chain() {
    use dmx_accel::AccelKind;
    use dmx_core::apps::{Benchmark, Edge, Stage};
    use dmx_restructure::{EndianSwap, QuantizeTensor, VecSum};
    use std::sync::Arc;

    const MB: u64 = 1 << 20;
    let bench = Arc::new(Benchmark {
        name: "Custom 4-kernel",
        stages: vec![
            Stage {
                kind: AccelKind::Gzip,
                input_bytes: 4 * MB,
            },
            Stage {
                kind: AccelKind::Fft,
                input_bytes: 8 * MB,
            },
            Stage {
                kind: AccelKind::Svm,
                input_bytes: 8 * MB,
            },
            Stage {
                kind: AccelKind::Regex,
                input_bytes: 6 * MB,
            },
        ],
        edges: vec![
            Edge::new(
                "swap",
                vec![(Box::new(EndianSwap { words: 65_536 }), 8 * MB)],
                8 * MB,
                8 * MB,
            ),
            Edge::new(
                "quantize",
                vec![(
                    Box::new(QuantizeTensor {
                        elems: 65_536,
                        scale: 16.0,
                    }),
                    8 * MB,
                )],
                8 * MB,
                8 * MB,
            ),
            Edge::new(
                "sum",
                vec![(Box::new(VecSum { elems: 65_536 }), 6 * MB)],
                6 * MB,
                6 * MB,
            ),
        ],
    });
    let mut base = SystemConfig::latency(Mode::MultiAxl, vec![bench.clone()]);
    base.requests_per_app = 2;
    let mut dmx = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), vec![bench]);
    dmx.requests_per_app = 2;
    let rb = simulate(&base);
    let rd = simulate(&dmx);
    assert_eq!(rb.apps[0].completed, 2);
    assert_eq!(rd.apps[0].completed, 2);
    assert!(
        rb.mean_latency() > rd.mean_latency(),
        "DMX wins on longer chains too"
    );
}

/// One open-loop server driven from outside `dmx-core` the way a
/// front end drives it: tagged arrivals injected a window at a time,
/// each window pumped and drained, then pumped to each next event
/// until nothing is outstanding. Faults, SDC under per-hop checksums,
/// a device and a driver crash and a fail-slow device all fire.
#[test]
fn stepped_server_resolves_every_tagged_arrival_once() {
    use dmx_core::failslow::FailSlowConfig;
    use dmx_core::integrity::{ChecksumMode, IntegrityConfig};
    use dmx_core::overload::{AdmissionParams, BreakerParams, OverloadConfig, ShedPolicy};
    use dmx_core::system::{units, Stepped};
    use dmx_sim::{CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, FaultConfig, SdcConfig};

    dmx_sim::set_default_stall_limit(1_000_000);
    let apps: Vec<_> = BenchmarkId::FIVE.iter().map(|b| b.build()).collect();
    // Eight arrivals per tenant, 6 ms apart, tenants 1 ms apart.
    let mut arrivals: Vec<(Time, usize)> = (0..8u64)
        .flat_map(|i| (0..5).map(move |t| (Time::from_us(6_000 * i + 1_000 * t as u64), t)))
        .collect();
    arrivals.sort();
    let cfg = SystemConfig {
        faults: Some(FaultConfig {
            seed: 7,
            bit_error_rate: 1e-9,
            lost_completion_rate: 0.02,
            stall_rate: 0.05,
            sdc: SdcConfig {
                spad_flip_rate: 3e-8,
                dma_flip_rate: 1e-8,
                ddr_flip_rate_per_sec: 0.0,
            },
            crashes: vec![
                CrashEvent {
                    target: CrashTarget::Device(units::bitw(1, 0)),
                    at: Time::from_ms(10),
                    down_for: Some(Time::from_ms(5)),
                },
                CrashEvent {
                    target: CrashTarget::Driver,
                    at: Time::from_ms(30),
                    down_for: Some(Time::from_ms(1)),
                },
            ],
            degrades: vec![DegradeEvent {
                target: DegradeTarget::Device(units::bitw(2, 0)),
                at: Time::ZERO,
                down_for: Some(Time::from_ms(20)),
                slowdown: 4.0,
                jitter: 0.0,
                duty: None,
            }],
            ..FaultConfig::none()
        }),
        overload: Some(OverloadConfig {
            admission: AdmissionParams {
                tokens_per_sec: 200.0,
                burst: 4.0,
                max_inflight: 8,
            },
            deadline: Time::from_ms(300),
            shed: ShedPolicy::Reject,
            queue_capacity: 8,
            breaker: BreakerParams {
                enabled: true,
                ..BreakerParams::default()
            },
            ..OverloadConfig::none()
        }),
        integrity: Some(IntegrityConfig::checked(ChecksumMode::PerHop)),
        failslow: Some(FailSlowConfig {
            demote: true,
            hedge_multiplier: 1.2,
            hedge_floor: Time::from_us(1),
            ..FailSlowConfig::none()
        }),
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), apps)
    };
    let mut sim = Stepped::new(&cfg).expect("a live overload section");
    let window = Time::from_ms(5);
    let (mut horizon, mut next, mut tags) = (Time::ZERO, 0, Vec::new());
    while next < arrivals.len() {
        horizon += window;
        while let Some(&(at, tenant)) = arrivals.get(next).filter(|a| a.0 < horizon) {
            sim.inject_arrival_tagged(tenant, at, next as u64 + 1);
            next += 1;
        }
        sim.pump_until(horizon).expect("pump a window");
        tags.extend(sim.drain_resolutions().iter().map(|r| r.tag));
    }
    while let Some(at) = sim.next_time() {
        sim.pump_until(at + Time::from_ps(1))
            .expect("pump an event");
        tags.extend(sim.drain_resolutions().iter().map(|r| r.tag));
    }
    let r = sim.finish();

    tags.sort_unstable();
    assert!(
        tags.iter().copied().eq(1..=arrivals.len() as u64),
        "{} arrivals, {} resolutions",
        arrivals.len(),
        tags.len()
    );
    let o = r.overload.as_ref().expect("overload report");
    let late: u64 = o.tenants.iter().map(|t| t.late).sum();
    assert_eq!(o.offered(), arrivals.len() as u64);
    assert_eq!(
        o.offered(),
        o.goodput() + late + o.shed() + r.integrity.quarantine_shed + r.crashes.crash_killed
    );
}
