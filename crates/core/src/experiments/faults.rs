//! Resilience sweep: deterministic fault injection across placements.
//!
//! Not a figure from the paper — a robustness study of the reproduced
//! system. Two parts:
//!
//! 1. **BER × placement sweep**: raise the PCIe bit-error rate from
//!    clean through pathological and measure how mean latency degrades
//!    per DRX placement as chunk replays and link retrains pile up.
//! 2. **DRX-kill scenario**: kill one bump-in-the-wire DRX mid-run and
//!    verify graceful degradation — every request still completes, the
//!    dead unit's batches reroute onto the host-CPU Multi-Axl path, and
//!    the [`FaultReport`] accounts for the rerouted time.

use super::{verdict, Calibration, Suite, TENANTS};
use crate::placement::{Mode, Placement};
use crate::report::{ms, ratio, Table};
use crate::system::{simulate, units, FaultReport, SystemConfig};
use dmx_sim::{par_map, FaultConfig, Time};

/// Seed for every run in this experiment.
pub const SEED: u64 = 0xD31A;

/// Bit-error rates swept (per bit; real links guarantee ~1e-12).
pub const BERS: [f64; 4] = [0.0, 1e-9, 1e-8, 1e-7];

/// One `(placement, BER)` point.
#[derive(Debug, Clone)]
pub struct BerPoint {
    /// Bit-error rate of every link.
    pub ber: f64,
    /// Mean latency across apps.
    pub latency: Time,
    /// Latency relative to the same placement at BER 0.
    pub slowdown: f64,
    /// Fault accounting for the run.
    pub faults: FaultReport,
}

/// The BER sweep of one placement.
#[derive(Debug, Clone)]
pub struct PlacementSweep {
    /// Placement under test.
    pub placement: Placement,
    /// One point per entry of [`BERS`].
    pub points: Vec<BerPoint>,
}

/// Outcome of the DRX-kill scenario.
#[derive(Debug, Clone)]
pub struct KillOutcome {
    /// Requests expected (apps × requests per app).
    pub expected: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Mean latency with the kill.
    pub latency: Time,
    /// Mean latency of the same config without faults.
    pub baseline_latency: Time,
    /// Fault accounting.
    pub faults: FaultReport,
}

/// Full resilience-sweep results.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// BER degradation curves, one per placement.
    pub sweeps: Vec<PlacementSweep>,
    /// The mid-run DRX-kill scenario.
    pub kill: KillOutcome,
    /// Whether a zero-fault plan reproduced the fault-layer-absent run
    /// bit-identically.
    pub zero_fault_identity: bool,
}

/// Runs the experiment under the default [`SEED`].
pub fn run(suite: &Suite) -> Faults {
    run_with_seed(suite, SEED)
}

/// Runs the experiment under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> Faults {
    // Every (placement, BER) point is an independent simulation, so
    // the grid is flattened and fanned across the worker pool; the
    // slowdown (relative to the same placement's BER-0 point) is
    // computed after collection, once each placement's clean latency
    // is known.
    let grid: Vec<(Placement, f64)> = Placement::ALL
        .iter()
        .flat_map(|&p| BERS.iter().map(move |&ber| (p, ber)))
        .collect();
    let cal = Calibration::new(suite);
    let raw = par_map(&grid, |_, &(p, ber)| {
        let r = simulate(&SystemConfig {
            mode: Mode::Dmx(p),
            faults: Some(FaultConfig {
                seed,
                bit_error_rate: ber,
                ..FaultConfig::none()
            }),
            ..cal.cfg.clone()
        });
        (r.mean_latency(), r.faults)
    });
    let sweeps = Placement::ALL
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            let row = &raw[pi * BERS.len()..(pi + 1) * BERS.len()];
            let clean = row[0].0; // BERS[0] is 0.0: the clean point
            let points = BERS
                .iter()
                .zip(row)
                .map(|(&ber, (latency, faults))| BerPoint {
                    ber,
                    latency: *latency,
                    slowdown: latency.as_secs_f64() / clean.as_secs_f64(),
                    faults: *faults,
                })
                .collect();
            PlacementSweep {
                placement: p,
                points,
            }
        })
        .collect();

    // Kill the DRX in front of app 0's first accelerator early in the
    // run; its restructuring must fall back to host cores while the
    // other four apps keep their DRXs.
    let killed = simulate(&SystemConfig {
        faults: Some(FaultConfig {
            seed,
            kills: vec![(units::bitw(0, 0), Time::from_us(100))],
            ..FaultConfig::none()
        }),
        ..cal.cfg.clone()
    });
    let expected = TENANTS * killed.apps[0].completed.max(1); // all apps share requests_per_app
    let kill = KillOutcome {
        expected,
        completed: killed.apps.iter().map(|a| a.completed).sum(),
        latency: killed.mean_latency(),
        baseline_latency: cal.mean,
        faults: killed.faults,
    };

    // The inert-plan invariant, re-checked on every repro run.
    let zero_fault_identity = cal.inert_identical(|c| c.faults = Some(FaultConfig::none()));

    Faults {
        seed,
        sweeps,
        kill,
        zero_fault_identity,
    }
}

impl Faults {
    /// True when the embedded determinism and completeness checks
    /// passed: the zero-fault plan took the bit-identical path and the
    /// DRX-kill scenario lost no requests.
    pub fn ok(&self) -> bool {
        self.zero_fault_identity && self.kill.completed == self.kill.expected
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut header = vec!["placement".to_string()];
        header.extend(BERS.iter().map(|b| format!("BER {b:.0e}")));
        header.push("replays".into());
        header.push("retrains".into());
        let mut t = Table::new(header);
        for sweep in &self.sweeps {
            let mut cells = vec![sweep.placement.name().to_string()];
            cells.extend(
                sweep
                    .points
                    .iter()
                    .map(|pt| format!("{} ({})", ms(pt.latency), ratio(pt.slowdown))),
            );
            let worst = sweep.points.last().expect("has points");
            cells.push(worst.faults.chunk_replays.to_string());
            cells.push(worst.faults.link_retrains.to_string());
            t.row(cells);
        }

        let k = &self.kill;
        format!(
            "repro faults — resilience sweep (seed {seed:#x})\n\
             Latency (slowdown vs clean) per placement as PCIe bit-error\n\
             rate rises; replay/retrain counts at the worst BER.\n\n\
             {table}\n\
             DRX-kill scenario (Bump-in-the-Wire, kill drx[app0.stage0] at 100us):\n\
             requests completed    {completed}/{expected}\n\
             mean latency          {lat} (clean {base}, {slow})\n\
             rerouted batches      {rerouted}\n\
             fallback time         {fallback}\n\
             unit deaths           {deaths}\n\n\
             zero-fault plan identical to fault-layer-absent run: {ident}\n",
            seed = self.seed,
            table = t.render(),
            completed = k.completed,
            expected = k.expected,
            lat = ms(k.latency),
            base = ms(k.baseline_latency),
            slow = ratio(k.latency.as_secs_f64() / k.baseline_latency.as_secs_f64()),
            rerouted = k.faults.rerouted_batches,
            fallback = ms(k.faults.fallback_time),
            deaths = k.faults.unit_deaths,
            ident = verdict(self.zero_fault_identity),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_completes_and_ber_slows_every_placement() {
        let a = run(&Suite::new());
        assert_eq!(a.sweeps.len(), Placement::ALL.len());
        assert!(a.kill.faults.unit_deaths >= 1);
        assert!(a.kill.faults.rerouted_batches > 0);
        assert!(a.kill.faults.fallback_time > Time::ZERO);
        // Higher BER never meaningfully speeds a placement up. Sub-
        // percent speedups at low BERs are legitimate: replay jitter
        // can shift an NAPI mode flip and shave an irq latency.
        for sweep in &a.sweeps {
            for pt in &sweep.points {
                assert!(
                    pt.slowdown >= 0.99,
                    "{:?}: {}",
                    sweep.placement,
                    pt.slowdown
                );
            }
            let worst = sweep.points.last().expect("points");
            assert!(
                worst.slowdown > 1.0,
                "{:?} ignored the worst BER",
                sweep.placement
            );
            assert!(worst.faults.chunk_replays > 0, "{:?}", sweep.placement);
        }
    }
}
