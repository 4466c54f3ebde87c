//! Set-up: building the five Table I benchmarks and measuring every
//! edge's DRX cost at the default configuration, the work
//! `Suite::new` does before the first simulation. Every repeat is cold,
//! because each `BenchmarkId::build` starts with empty cost caches.

use crate::trace::{self_secs_between, Tracer};
use crate::{median, Tally};
use dmx_core::apps::{BenchmarkId, BenchmarkRef, DrxCost};
use dmx_core::experiments::Suite;
use dmx_drx::{DrxConfig, Machine};
use dmx_restructure::RestructureOp;
use dmx_sim::Time;
use std::time::Instant;

/// Named per-layer values of one set-up.
pub type LayerValues = Vec<(&'static str, f64)>;

/// One cold `Suite::new`. Returns its seconds and the benchmarks,
/// whose cost caches stay warm for the cells.
pub fn untraced() -> (f64, Vec<BenchmarkRef>) {
    let t0 = Instant::now();
    let suite = Suite::new();
    (t0.elapsed().as_secs_f64(), suite.benchmarks().to_vec())
}

/// One traced cold set-up: builds the benchmarks and measures every
/// edge's DRX cost under spans, then lowers and executes every op of
/// the edge again under `drx.lower` and `drx.exec`, which
/// `Edge::drx_cost` does inside one call. The cost rebuilt from that
/// second execution must equal the one `Edge::drx_cost` returned, so
/// the layer times are of the same work. Returns the set-up's layer
/// metrics and the benchmarks.
pub fn traced(t: &mut Tracer) -> Result<(LayerValues, Vec<BenchmarkRef>), String> {
    let drx = DrxConfig::default();
    t.set_record(true);
    let before = t.self_totals();
    let mut counts = Tally::default();
    let open = t.begin("bench.setup");
    let benches: Vec<BenchmarkRef> = BenchmarkId::FIVE
        .iter()
        .map(|id| t.time("apps.build", || id.build()))
        .collect();
    for b in &benches {
        for (i, e) in b.edges.iter().enumerate() {
            let cost = t.time("apps.drx_cost", || e.drx_cost(&drx));
            let mut again = DrxCost {
                time: Time::ZERO,
                lane_ops: 0.0,
                dram_bytes: 0.0,
                spad_bytes: 0.0,
            };
            for (op, full_bytes) in &e.ops {
                execute(t, op.as_ref(), *full_bytes, &drx, &mut again, &mut counts)?;
            }
            if again != cost {
                return Err(format!(
                    "{} edge {i}: re-executed DRX cost {again:?} differs from \
                     Edge::drx_cost {cost:?}",
                    b.name
                ));
            }
        }
    }
    t.end(open);
    t.set_record(false);
    let selfs = self_secs_between(&before, &t.self_totals());
    let secs = |n: &str| selfs.iter().find(|(k, _)| *k == n).map_or(0.0, |(_, s)| *s);
    let layers = vec![
        ("apps.build_s", secs("apps.build")),
        ("apps.drx_cost_s", secs("apps.drx_cost")),
        ("drx.lower_s", secs("drx.lower")),
        ("drx.exec_s", secs("drx.exec")),
        ("drx.instrs", counts.get("instrs")),
        ("drx.cycles", counts.get("cycles")),
    ];
    Ok((layers, benches))
}

/// Lowers `op` and runs it on a DRX machine loaded the way
/// `Edge::drx_cost` loads it, adding its cost scaled to `full_bytes`
/// to `cost` the way `Edge::drx_cost` adds it.
fn execute(
    t: &mut Tracer,
    op: &dyn RestructureOp,
    full_bytes: u64,
    drx: &DrxConfig,
    cost: &mut DrxCost,
    counts: &mut Tally,
) -> Result<(), String> {
    let lowered = t
        .time("drx.lower", || op.lower(drx))
        .map_err(|e| format!("{}: lowering failed: {e}", op.name()))?;
    let open = t.begin("bench.drx_load");
    let mut cfg = *drx;
    cfg.dram.capacity_bytes = cfg.dram.capacity_bytes.max(lowered.dram_bytes + (1 << 20));
    let mut machine = Machine::new(cfg);
    for (addr, data) in &lowered.consts {
        machine.write_dram(*addr, data);
    }
    let mut cursor = 0u64;
    for &(addr, bytes) in &lowered.inputs {
        let filler: Vec<u8> = (0..bytes).map(|i| ((cursor + i) % 251) as u8).collect();
        machine.write_dram(addr, &filler);
        cursor += bytes;
    }
    t.end(open);
    let stats = t
        .time("drx.exec", || machine.run(&lowered.program))
        .map_err(|e| format!("{}: DRX run failed: {e}", op.name()))?;
    let scale = full_bytes as f64 / lowered.input_bytes() as f64;
    cost.time += stats.time(&cfg).scale(scale);
    cost.lane_ops += stats.lane_ops as f64 * scale;
    cost.dram_bytes += stats.dram_bytes as f64 * scale;
    cost.spad_bytes += stats.spad_bytes as f64 * scale;
    counts.add("instrs", (stats.vec_instrs + stats.scalar_instrs) as f64);
    counts.add("cycles", stats.cycles as f64);
    Ok(())
}

/// Median of each set-up layer metric over the repeats.
pub fn layer_medians(reps: &[LayerValues]) -> LayerValues {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, median(reps.iter().map(|r| r[i].1).collect())))
        .collect()
}
