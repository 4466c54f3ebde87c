//! Integrity sweep: silent-corruption rate × checksum placement.
//!
//! Not a figure from the paper — a robustness study of the reproduced
//! system. Silent data corruption (SDC) is injected into the DRX
//! scratchpads, DMA staging buffers, and host DDR at a swept per-byte
//! rate, and the driver's integrity layer runs in each placement mode:
//!
//! * **none** — today's hardware: every flip escapes into the final
//!   result, at zero checksum cost (and, because SDC is *silent*,
//!   with timing identical to the clean run);
//! * **per-hop** — verify at every accelerator-to-accelerator
//!   boundary: smallest blast radius, cheapest rewind, most checks;
//! * **end-to-end** — verify only the final result: one check per
//!   request, but poison rides the whole chain and a detection
//!   re-executes it from the start.
//!
//! Embedded checks: the conservation invariant
//! (`injected == detected + escaped`) in every cell, zero escapes for
//! both checking modes at every rate, everything escaping under
//! `none` at the same seeds, and the inert-config identity.

use super::{verdict, Calibration, Suite};
use crate::integrity::{ChecksumMode, IntegrityConfig, IntegrityReport};
use crate::report::{ms, ratio, Table};
use crate::system::{simulate, SystemConfig};
use dmx_sim::{par_map, FaultConfig, SdcConfig, Time};

/// Seed for every run in this experiment.
pub const SEED: u64 = 0x51DC;

/// Per-byte SDC rates swept (DDR residency decay runs an order of
/// magnitude up, per second). Real silent-corruption rates are far
/// lower; these are accelerated so a five-app run sees flips at every
/// point while end-to-end re-execution still converges.
pub const RATES: [f64; 3] = [5e-9, 2e-8, 1e-7];

/// Checksum placements swept.
pub const MODES: [ChecksumMode; 3] = [
    ChecksumMode::None,
    ChecksumMode::PerHop,
    ChecksumMode::EndToEnd,
];

/// One `(mode, rate)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct IntegrityPoint {
    /// Swept per-byte SDC rate.
    pub rate: f64,
    /// Mean latency across apps.
    pub latency: Time,
    /// Latency relative to the clean (no-SDC, no-checksum) baseline:
    /// the goodput cost of this placement at this rate.
    pub slowdown: f64,
    /// Integrity accounting for the run.
    pub report: IntegrityReport,
}

/// The rate sweep of one checksum placement.
#[derive(Debug, Clone)]
pub struct ModeSweep {
    /// Placement under test.
    pub mode: ChecksumMode,
    /// One point per entry of [`RATES`].
    pub points: Vec<IntegrityPoint>,
}

/// Full integrity-sweep results.
#[derive(Debug, Clone)]
pub struct Integrity {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Mean latency of the clean baseline.
    pub clean_latency: Time,
    /// One sweep per entry of [`MODES`].
    pub sweeps: Vec<ModeSweep>,
    /// Whether an inert integrity config reproduced the layer-absent
    /// run bit-identically.
    pub inert_identity: bool,
}

fn mode_name(m: ChecksumMode) -> &'static str {
    match m {
        ChecksumMode::None => "none",
        ChecksumMode::PerHop => "per-hop",
        ChecksumMode::EndToEnd => "end-to-end",
    }
}

fn sdc(seed: u64, rate: f64) -> FaultConfig {
    FaultConfig {
        seed,
        sdc: SdcConfig {
            spad_flip_rate: rate,
            dma_flip_rate: rate,
            ddr_flip_rate_per_sec: rate * 10.0,
        },
        ..FaultConfig::none()
    }
}

/// Runs the experiment under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> Integrity {
    // Every (mode, rate) cell is an independent simulation.
    let cal = Calibration::new(suite);
    let grid: Vec<(ChecksumMode, f64)> = MODES
        .iter()
        .flat_map(|&m| RATES.iter().map(move |&r| (m, r)))
        .collect();
    let cells = par_map(&grid, |_, &(m, rate)| {
        let r = simulate(&SystemConfig {
            faults: Some(sdc(seed, rate)),
            integrity: Some(IntegrityConfig::checked(m)),
            ..cal.cfg.clone()
        });
        (r.mean_latency(), r.integrity)
    });
    let inert_identity = cal.inert_identical(|c| c.integrity = Some(IntegrityConfig::none()));
    let clean_latency = cal.mean;

    let sweeps = MODES
        .iter()
        .enumerate()
        .map(|(mi, &m)| {
            let row = &cells[mi * RATES.len()..(mi + 1) * RATES.len()];
            ModeSweep {
                mode: m,
                points: RATES
                    .iter()
                    .zip(row)
                    .map(|(&rate, (latency, report))| IntegrityPoint {
                        rate,
                        latency: *latency,
                        slowdown: latency.as_secs_f64() / clean_latency.as_secs_f64(),
                        report: *report,
                    })
                    .collect(),
            }
        })
        .collect();

    Integrity {
        seed,
        clean_latency,
        sweeps,
        inert_identity,
    }
}

impl Integrity {
    /// True when the embedded acceptance checks passed:
    ///
    /// * inert-config identity;
    /// * flips injected, and conservation (`injected == detected +
    ///   escaped`), in every cell;
    /// * `none` escapes every flip and detects nothing — and, SDC
    ///   being silent, runs at exactly the clean baseline's timing;
    /// * both checking modes report **zero** escapes at every rate.
    pub fn ok(&self) -> bool {
        self.inert_identity
            && self.sweeps.iter().all(|s| {
                s.points.iter().all(|p| {
                    let r = &p.report;
                    r.injected > 0
                        && r.conserved()
                        && match s.mode {
                            ChecksumMode::None => {
                                r.detected == 0
                                    && r.escaped == r.injected
                                    && p.latency == self.clean_latency
                            }
                            _ => r.escaped == 0 && r.checks > 0,
                        }
                })
            })
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut header = vec!["checksum".to_string()];
        header.extend(RATES.iter().map(|r| format!("SDC {r:.0e}/B")));
        header.push("slowdown".into());
        header.push("blast".into());
        let mut t = Table::new(header);
        for sweep in &self.sweeps {
            let mut cells = vec![mode_name(sweep.mode).to_string()];
            cells.extend(sweep.points.iter().map(|p| {
                format!(
                    "{}i {}d {}e",
                    p.report.injected, p.report.detected, p.report.escaped
                )
            }));
            let worst = sweep.points.last().expect("has points");
            cells.push(ratio(worst.slowdown));
            cells.push(format!("{:.1}", worst.report.mean_blast()));
            t.row(cells);
        }
        let worst_e2e = self
            .sweeps
            .iter()
            .find(|s| s.mode == ChecksumMode::EndToEnd)
            .and_then(|s| s.points.last())
            .expect("end-to-end sweep");
        format!(
            "repro integrity — SDC rate x checksum placement (seed {seed:#x})\n\
             Injected/detected/escaped flips per cell; slowdown vs the\n\
             clean baseline and mean poison blast radius (chain hops) at\n\
             the worst rate.\n\n\
             {table}\n\
             clean baseline latency   {clean}\n\
             worst-rate end-to-end:   {checks} checks, {reexecs} re-execs,\n\
             \x20                        {ctime} checksum time, {rtime} re-executed work\n\n\
             inert config identical to integrity-layer-absent run: {ident}\n\
             zero escapes under checking, total escape under none:  {ok}\n",
            seed = self.seed,
            table = t.render(),
            clean = ms(self.clean_latency),
            checks = worst_e2e.report.checks,
            reexecs = worst_e2e.report.reexecs,
            ctime = ms(worst_e2e.report.checksum_time),
            rtime = ms(worst_e2e.report.reexec_time),
            ident = verdict(self.inert_identity),
            ok = verdict(self.ok()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_grows_with_rate_and_checking_costs_time() {
        let a = run_with_seed(&Suite::new(), SEED);
        assert_eq!(a.sweeps.len(), MODES.len());
        for s in &a.sweeps {
            assert_eq!(s.points.len(), RATES.len());
            // Injection pressure grows with the rate.
            assert!(s.points[0].report.injected < s.points[2].report.injected);
        }
        // Checking costs something; detection costs more. The worst-
        // rate checking runs must be slower than the clean baseline.
        for s in &a.sweeps {
            if s.mode != ChecksumMode::None {
                assert!(s.points.last().expect("points").slowdown > 1.0);
            }
        }
    }
}
