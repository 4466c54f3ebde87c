//! `sweep`: closed-loop throughput cells over every execution mode at
//! 1, 4, 8 and 16 concurrent apps, the path of the paper's chain
//! sweeps (Figs. 11-19). No robustness layer is on, so the event loop
//! (queue, max-min flow solver, CPU pool, driver) does nearly all the
//! work.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{digest, Cell, Done, Tally};
use dmx_core::apps::BenchmarkRef;
use dmx_core::placement::{Mode, Placement};
use dmx_core::system::{try_simulate, SystemConfig};

/// Every execution mode, with its name in cell keys.
const MODES: [(&str, Mode); 6] = [
    ("allcpu", Mode::AllCpu),
    ("multiaxl", Mode::MultiAxl),
    ("integrated", Mode::Dmx(Placement::Integrated)),
    ("standalone", Mode::Dmx(Placement::Standalone)),
    ("bitw", Mode::Dmx(Placement::BumpInTheWire)),
    ("pcieint", Mode::Dmx(Placement::PcieIntegrated)),
];

/// Concurrent apps per cell.
const APPS: [usize; 4] = [1, 4, 8, 16];

/// Requests each app runs, and how many it keeps in flight.
const REQUESTS: usize = 24;
const INFLIGHT: usize = 4;

/// App mixes a cell can draw for each concurrency; the reference file
/// holds every (mode, apps, mix) cell.
const MIXES: usize = 32;

/// Cells per (mode, apps) pair in one pass.
const PER_SHAPE: usize = 16;

/// Seed of the mix table (fixed: the seed picks mixes, not their
/// contents, so every cell a seed can draw has a reference digest).
const MIX_TABLE_SEED: u64 = 0x005E_ED0F_1111;

struct SweepCell {
    mode: usize,
    apps: usize,
    mix: usize,
}

impl SweepCell {
    /// Benchmark index (into the five) of each app of the cell.
    fn benchmarks(&self) -> Vec<usize> {
        let mut r = Rng::new(MIX_TABLE_SEED, (self.apps * MIXES + self.mix) as u64);
        (0..self.apps).map(|_| r.below(5)).collect()
    }
}

impl Cell for SweepCell {
    fn key(&self) -> String {
        format!(
            "sweep/{}/{}apps/mix{}",
            MODES[self.mode].0, self.apps, self.mix
        )
    }

    fn run(
        &self,
        benches: &[BenchmarkRef],
        t: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Done, String> {
        let cfg = t.time("bench.inputs", || SystemConfig {
            requests_per_app: REQUESTS,
            inflight_per_app: INFLIGHT,
            ..SystemConfig::throughput(
                MODES[self.mode].1,
                self.benchmarks()
                    .iter()
                    .map(|&b| benches[b].clone())
                    .collect(),
            )
        });
        let r = t
            .time("system.try_simulate", || try_simulate(&cfg))
            .map_err(|e| format!("try_simulate: {e}"))?;
        t.time("bench.check", || {
            tally.run_result(&r);
            if r.apps.len() != self.apps || r.apps.iter().any(|a| a.completed != REQUESTS) {
                return Err(format!(
                    "closed-loop ledger: expected {} apps x {REQUESTS} completions, got {:?}",
                    self.apps,
                    r.apps.iter().map(|a| a.completed).collect::<Vec<_>>()
                ));
            }
            Ok(())
        })?;
        Ok(Done {
            requests: (self.apps * REQUESTS) as u64,
            digest: digest(t, &r),
        })
    }
}

/// One pass under `seed`: [`PER_SHAPE`] seeded mixes for every mode
/// and concurrency.
pub fn pass(seed: u64) -> Vec<Box<dyn Cell>> {
    let mut r = Rng::new(seed, 1);
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for mode in 0..MODES.len() {
        for &apps in &APPS {
            for _ in 0..PER_SHAPE {
                let mix = r.below(MIXES);
                cells.push(Box::new(SweepCell { mode, apps, mix }));
            }
        }
    }
    cells
}

/// Every cell a pass can draw.
pub fn universe() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for mode in 0..MODES.len() {
        for &apps in &APPS {
            for mix in 0..MIXES {
                cells.push(Box::new(SweepCell { mode, apps, mix }));
            }
        }
    }
    cells
}
