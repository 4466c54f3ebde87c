//! `robust`: one bump-in-the-wire server driven open loop through
//! `Stepped`, with five robustness layers firing together: faults (bit
//! errors, lost completions, stalls), overload (admission, EDF,
//! breakers), integrity (SDC with per-hop checksums and re-execution),
//! crash (a device and a driver crash with hot-plug) and failslow (a
//! device degrade with demotion and hedging). It is the engine of
//! `sweep` with the layer hooks doing most of the work.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{digest, Cell, Done, Tally, CLEAN_MEAN_S, SLOWEST_S};
use dmx_core::apps::BenchmarkRef;
use dmx_core::failslow::{FailSlowConfig, HealthParams};
use dmx_core::integrity::{ChecksumMode, IntegrityConfig};
use dmx_core::overload::{AdmissionParams, BreakerParams, OverloadConfig, ShedPolicy};
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{units, Resolution, RunResult, Stepped, SystemConfig};
use dmx_sim::{CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, FaultConfig, SdcConfig, Time};

/// Open-loop tenants, one per Table I benchmark.
const TENANTS: usize = 5;

/// Arrivals each tenant offers per cell.
const ARRIVALS: usize = 16;

/// Offered load per tenant, as a multiple of `1 / CLEAN_MEAN_S`.
const LOAD: f64 = 0.6;

/// Pump windows per cell: arrivals are injected a window at a time.
const WINDOWS: u64 = 16;

/// Input sets (sub-seeds) a pass can draw; the reference file holds
/// every (variant, sub-seed) cell.
const SUBSEEDS: usize = 256;

/// Cells in one pass.
const PER_PASS: usize = 256;

/// Root of every sub-seed's inputs.
const INPUT_SEED: u64 = 0x0B05_7C0B;

/// The full composition, or the same cells with one layer's config
/// removed (to time that layer as `<layer>.active_s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Full,
    NoFaults,
    NoIntegrity,
    NoCrash,
    NoFailslow,
}

impl Variant {
    /// The layer-removed variants.
    pub const REMOVED: [Variant; 4] = [
        Variant::NoFaults,
        Variant::NoIntegrity,
        Variant::NoCrash,
        Variant::NoFailslow,
    ];

    /// Name in cell keys and plan labels.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::NoFaults => "no-faults",
            Variant::NoIntegrity => "no-integrity",
            Variant::NoCrash => "no-crash",
            Variant::NoFailslow => "no-failslow",
        }
    }

    /// The per-layer metric this variant's loop time feeds.
    pub fn active_metric(self) -> &'static str {
        match self {
            Variant::Full => "system.loop_s",
            Variant::NoFaults => "faults.active_s",
            Variant::NoIntegrity => "integrity.active_s",
            Variant::NoCrash => "crash.active_s",
            Variant::NoFailslow => "failslow.active_s",
        }
    }
}

struct RobustCell {
    sub: usize,
    variant: Variant,
}

/// Everything a sub-seed determines.
struct Inputs {
    /// `(time, tenant)`, in time order.
    arrivals: Vec<(Time, usize)>,
    faults: FaultConfig,
    horizon: Time,
}

fn secs(s: f64) -> Time {
    Time::from_secs_f64(s)
}

/// Poisson arrivals at `rate`, or a two-phase MMPP around it when
/// `bursty` (phases at 0.2x and 1.8x, mean dwell six slowest latencies).
fn arrival_times(r: &mut Rng, rate: f64, bursty: bool) -> Vec<f64> {
    let (mut t, mut out) = (0.0, Vec::with_capacity(ARRIVALS));
    let dwell = 6.0 * SLOWEST_S;
    let mut high = false;
    let mut phase_end = if bursty { r.exp(dwell) } else { f64::INFINITY };
    while out.len() < ARRIVALS {
        let now_rate = match (bursty, high) {
            (false, _) => rate,
            (true, false) => 0.2 * rate,
            (true, true) => 1.8 * rate,
        };
        let next = t + r.exp(1.0 / now_rate);
        if next > phase_end {
            t = phase_end;
            high = !high;
            phase_end = t + r.exp(dwell);
        } else {
            t = next;
            out.push(t);
        }
    }
    out
}

fn inputs(sub: usize) -> Inputs {
    let mut r = Rng::new(INPUT_SEED, sub as u64);
    let rate = LOAD / CLEAN_MEAN_S;
    let mut arrivals: Vec<(Time, usize)> = (0..TENANTS)
        .flat_map(|tenant| {
            arrival_times(&mut r, rate, tenant == 0)
                .into_iter()
                .map(move |s| (secs(s), tenant))
        })
        .collect();
    arrivals.sort();
    let horizon = arrivals.last().expect("arrivals").0;
    let h = horizon.as_secs_f64();
    let crashes = vec![
        CrashEvent {
            target: CrashTarget::Device(units::bitw(r.below(TENANTS), 0)),
            at: secs(h * r.range(0.1, 0.4)),
            down_for: Some(secs(h * r.range(0.05, 0.15))),
        },
        CrashEvent {
            target: CrashTarget::Driver,
            at: secs(h * r.range(0.5, 0.8)),
            down_for: Some(secs(h * r.range(0.01, 0.03))),
        },
    ];
    let degrades = vec![DegradeEvent {
        target: DegradeTarget::Device(units::bitw(r.below(TENANTS), 0)),
        at: secs(h * r.range(0.0, 0.1)),
        down_for: Some(secs(h * r.range(0.3, 0.5))),
        slowdown: 4.0,
        jitter: 0.0,
        duty: None,
    }];
    let faults = FaultConfig {
        seed: r.next_u64(),
        bit_error_rate: 1e-9,
        lost_completion_rate: 0.02,
        stall_rate: 0.05,
        sdc: SdcConfig {
            spad_flip_rate: 3e-8,
            dma_flip_rate: 1e-8,
            ddr_flip_rate_per_sec: 0.0,
        },
        crashes,
        degrades,
        ..FaultConfig::none()
    };
    Inputs {
        arrivals,
        faults,
        horizon,
    }
}

fn config(benches: &[BenchmarkRef], faults: FaultConfig, variant: Variant) -> SystemConfig {
    let rate = LOAD / CLEAN_MEAN_S;
    let mut faults = faults;
    let mut integrity = IntegrityConfig::checked(ChecksumMode::PerHop);
    integrity.max_reexec = 8;
    let mut integrity = Some(integrity);
    let mut failslow = Some(FailSlowConfig {
        scorer: HealthParams {
            window: 8,
            min_samples: 2,
            outlier_factor: 2.0,
            probation: secs(CLEAN_MEAN_S),
        },
        demote: true,
        hedge_multiplier: 1.2,
        hedge_floor: Time::from_us(1),
    });
    match variant {
        Variant::Full => {}
        Variant::NoFaults => {
            faults.bit_error_rate = 0.0;
            faults.lost_completion_rate = 0.0;
            faults.stall_rate = 0.0;
        }
        Variant::NoIntegrity => {
            faults.sdc = SdcConfig::none();
            integrity = None;
        }
        Variant::NoCrash => faults.crashes.clear(),
        Variant::NoFailslow => {
            faults.degrades.clear();
            failslow = None;
        }
    }
    SystemConfig {
        faults: Some(faults),
        overload: Some(OverloadConfig {
            admission: AdmissionParams {
                tokens_per_sec: 1.3 * rate,
                burst: 4.0,
                max_inflight: 8,
            },
            deadline: secs(4.0 * SLOWEST_S),
            shed: ShedPolicy::Reject,
            queue_capacity: 8,
            breaker: BreakerParams {
                enabled: true,
                ..BreakerParams::default()
            },
            ..OverloadConfig::none()
        }),
        integrity,
        failslow,
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), benches.to_vec())
    }
}

/// Adds `r`'s layer counts to `tally` and checks every ledger of a cell
/// that injected `injected` arrivals.
fn check(
    r: &RunResult,
    resolutions: &[Resolution],
    injected: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.run_result(r);
    // Every injected arrival resolves exactly once.
    let mut tags: Vec<u64> = resolutions.iter().map(|x| x.tag).collect();
    tags.sort_unstable();
    if !tags.iter().copied().eq(1..=injected as u64) {
        return Err(format!(
            "{injected} arrivals injected, {} resolutions, tags not 1..=n exactly once",
            resolutions.len()
        ));
    }
    let o = r.overload.as_ref().ok_or("no overload report")?;
    let late: u64 = o.tenants.iter().map(|x| x.late).sum();
    let accounted =
        o.goodput() + late + o.shed() + r.integrity.quarantine_shed + r.crashes.crash_killed;
    if o.offered() != accounted {
        return Err(format!(
            "request ledger: offered {} != accounted {accounted}",
            o.offered()
        ));
    }
    if !r
        .integrity
        .conserved_with_discarded(r.crashes.flips_discarded)
    {
        return Err(format!("integrity ledger: {:?}", r.integrity));
    }
    if !r.failslow.hedge_conserved() {
        return Err(format!("hedge ledger: {:?}", r.failslow));
    }
    Ok(())
}

impl Cell for RobustCell {
    fn key(&self) -> String {
        format!("robust/{}/sub{}", self.variant.label(), self.sub)
    }

    fn run(
        &self,
        benches: &[BenchmarkRef],
        t: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Done, String> {
        let (arrivals, end, cfg) = t.time("bench.inputs", || {
            let inp = inputs(self.sub);
            let cfg = config(benches, inp.faults, self.variant);
            (inp.arrivals, inp.horizon, cfg)
        });
        let mut sim = t
            .time("system.stepped_new", || Stepped::new(&cfg))
            .map_err(|e| format!("Stepped::new: {e}"))?;
        let window = Time::from_ps(end.as_ps() / WINDOWS + 1);
        let mut resolutions = Vec::with_capacity(arrivals.len());
        let mut next = 0;
        let mut horizon = Time::ZERO;
        let mut pumps = 0u64;
        loop {
            horizon += window;
            t.time("system.inject", || {
                while let Some(&(at, tenant)) = arrivals.get(next).filter(|a| a.0 < horizon) {
                    sim.inject_arrival_tagged(tenant, at, next as u64 + 1);
                    next += 1;
                }
            });
            t.time("system.pump_until", || sim.pump_until(horizon))
                .map_err(|e| format!("pump_until: {e}"))?;
            resolutions.extend(t.time("system.drain", || sim.drain_resolutions()));
            pumps += 1;
            if next == arrivals.len() {
                match t.time("system.next_time", || sim.next_time()) {
                    None => break,
                    Some(at) => horizon = horizon.max(at),
                }
            }
            if pumps > 1_000_000 {
                return Err("requests still outstanding after 10^6 pump windows".into());
            }
        }
        let r = t.time("system.finish", || sim.finish());
        t.time("bench.check", || {
            check(&r, &resolutions, arrivals.len(), tally)
        })?;
        Ok(Done {
            requests: arrivals.len() as u64,
            digest: digest(t, &(&r, &resolutions)),
        })
    }
}

/// One pass under `seed`: [`PER_PASS`] seeded input sets, all run as
/// `variant`.
pub fn pass(seed: u64, variant: Variant) -> Vec<Box<dyn Cell>> {
    let mut r = Rng::new(seed, 2);
    (0..PER_PASS)
        .map(|_| {
            Box::new(RobustCell {
                sub: r.below(SUBSEEDS),
                variant,
            }) as Box<dyn Cell>
        })
        .collect()
}

/// Every cell a pass can draw, in every variant.
pub fn universe() -> Vec<Box<dyn Cell>> {
    [Variant::Full]
        .into_iter()
        .chain(Variant::REMOVED)
        .flat_map(|variant| {
            (0..SUBSEEDS).map(move |sub| Box::new(RobustCell { sub, variant }) as Box<dyn Cell>)
        })
        .collect()
}
