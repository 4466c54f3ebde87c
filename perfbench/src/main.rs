//! Host-time benchmark of the DMX simulator.
//!
//! ```text
//! dmx-perfbench --workload <sweep|robust|fleet> --seed N --seconds S --trace <0|1>
//! dmx-perfbench --workload <sweep|robust|fleet> --write-reference
//! ```
//!
//! A run sets up the five Table I benchmarks, then repeats the seed's
//! list of cells ("a pass") until `--seconds` have gone by, checking
//! every cell against the reference digests in
//! `perfbench/reference/<workload>.txt`, which `--write-reference`
//! rewrites. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones from a traced run. The last line of standard
//! output is one JSON object. See `perfbench/README.md` for the
//! workloads and every metric.

mod fleet;
mod rng;
mod robust;
mod setup;
mod sweep;
mod trace;

use dmx_core::apps::BenchmarkRef;
use dmx_core::system::RunResult;
use std::collections::HashMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_secs_between, Tracer};

/// Rounds of passes a run makes at least, whatever `--seconds` says,
/// so that every median and fastest repeat has three samples.
const MIN_ROUNDS: usize = 3;

/// Failed cells described on standard error, at most.
const MAX_REPORTED_FAILURES: usize = 5;

/// Share of a traced pass's wall time the spans must explain.
const MIN_COVERAGE: f64 = 0.95;

/// Clean mean and slowest per-app latency (simulated seconds) of the
/// five Table I apps on one bump-in-the-wire server, measured once.
/// The open-loop rates and deadlines of `robust` and `fleet` are fixed
/// from them, so the inputs never depend on the program's output.
pub const CLEAN_MEAN_S: f64 = 0.029_73;
pub const SLOWEST_S: f64 = 0.075_44;

/// What a cell hands back when it ran and its ledgers held.
pub struct Done {
    /// Simulated requests the cell resolved.
    pub requests: u64,
    /// FNV-1a digest of the Debug render of every result.
    pub digest: u64,
}

/// One simulation the benchmark runs and checks.
pub trait Cell {
    /// The cell's name in the reference file.
    fn key(&self) -> String;
    /// Runs the cell, timing each simulator call as a span and adding
    /// layer counts to `tally`. `Err` names a broken ledger or an error
    /// the simulator returned.
    fn run(
        &self,
        benches: &[BenchmarkRef],
        t: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Done, String>;
}

/// Named per-pass counters.
#[derive(Debug, Clone, Default)]
pub struct Tally(Vec<(&'static str, f64)>);

impl Tally {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x += v,
            None => self.0.push((name, v)),
        }
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x = x.max(v),
            None => self.0.push((name, v)),
        }
    }

    /// Counter `name`, 0 if never touched.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, x)| *x)
    }

    /// Adds the driver and robustness-layer counters of one server run.
    pub fn run_result(&mut self, r: &RunResult) {
        self.add("driver.interrupts", r.notify_counts.0 as f64);
        self.add("driver.polls", r.notify_counts.1 as f64);
        self.add("faults.chunk_replays", r.faults.chunk_replays as f64);
        self.add("faults.retries", r.faults.retries as f64);
        if let Some(o) = &r.overload {
            self.add("overload.offered", o.offered() as f64);
            self.add("overload.shed", o.shed() as f64);
            self.max("overload.queue_peak", o.queue_peak as f64);
        }
        self.add("integrity.checks", r.integrity.checks as f64);
        self.add("integrity.reexecs", r.integrity.reexecs as f64);
        self.add("integrity.giveups", r.integrity.reexec_giveups as f64);
        self.add("integrity.poisoned", r.integrity.poisoned_batches as f64);
        self.add("crash.checkpoints", r.crashes.checkpoints as f64);
        self.add("crash.migrations", r.crashes.migrations as f64);
        self.add("failslow.hedged", r.failslow.hedged as f64);
        self.add("failslow.won_hedge", r.failslow.won_hedge as f64);
    }
}

/// FNV-1a digest of `value`'s Debug render, timed as `bench.digest`.
pub fn digest(t: &mut Tracer, value: &impl Debug) -> u64 {
    t.time("bench.digest", || {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    })
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    Robust,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep" => Some(Workload::Sweep),
            "robust" => Some(Workload::Robust),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Robust => "robust",
            Workload::Fleet => "fleet",
        }
    }

    /// The cells of one pass under `seed`.
    fn pass(self, seed: u64) -> Vec<Box<dyn Cell>> {
        match self {
            Workload::Sweep => sweep::pass(seed),
            Workload::Robust => robust::pass(seed, robust::Variant::Full),
            Workload::Fleet => fleet::pass(seed),
        }
    }

    /// Every cell a pass can draw: what the reference file covers.
    fn universe(self) -> Vec<Box<dyn Cell>> {
        match self {
            Workload::Sweep => sweep::universe(),
            Workload::Robust => robust::universe(),
            Workload::Fleet => fleet::universe(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: PathBuf,
    trace_out: PathBuf,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let take = |k: &str| kv.get(k).cloned();
    let workload = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (sweep, robust, fleet)"))?;
    let seed: u64 = take("seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "30".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let reference = PathBuf::from(format!("perfbench/reference/{}.txt", workload.name()));
    let trace_out = PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{seed}.json",
        workload.name()
    ));
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown option --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        reference,
        trace_out,
        write_reference,
    })
}

/// Reads `key digest` lines.
fn load_reference(path: &PathBuf) -> Result<HashMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (k, d) = l
                .split_once(' ')
                .ok_or_else(|| format!("malformed reference line `{l}`"))?;
            let d = u64::from_str_radix(d.trim(), 16)
                .map_err(|e| format!("bad digest in `{l}`: {e}"))?;
            Ok((k.to_string(), d))
        })
        .collect()
}

/// A list of cells run back to back, and whether its spans are kept.
struct Plan {
    label: &'static str,
    record: bool,
    cells: Vec<Box<dyn Cell>>,
}

/// Measurements of one pass over a plan.
struct Pass {
    label: &'static str,
    wall_s: f64,
    /// Host nanoseconds each cell spent in simulator calls.
    cell_ns: Vec<u64>,
    requests: u64,
    attempted: u64,
    failed: u64,
    tally: Tally,
    /// Self time per span name during the pass.
    selfs: Vec<(&'static str, f64)>,
}

impl Pass {
    fn self_s(&self, name: &str) -> f64 {
        self.selfs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// Runs and checks one cell. Returns its digest on success.
fn run_cell(
    cell: &dyn Cell,
    benches: &[BenchmarkRef],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Done, String> {
    let depth = t.depth();
    let events = dmx_sim::events_delivered();
    let build = dmx_sim::setup_nanos();
    let out = catch_unwind(AssertUnwindSafe(|| cell.run(benches, t, tally)));
    t.unwind_to(depth);
    tally.add("cells", 1.0);
    tally.add(
        "events",
        dmx_sim::events_delivered().saturating_sub(events) as f64,
    );
    tally.add(
        "build_ns",
        dmx_sim::setup_nanos().saturating_sub(build) as f64,
    );
    match out {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

fn run_pass(
    plan: &Plan,
    benches: &[BenchmarkRef],
    t: &mut Tracer,
    reference: &HashMap<String, u64>,
    reported: &mut usize,
) -> Pass {
    t.set_record(plan.record);
    let before = t.self_totals();
    let mut tally = Tally::default();
    let (mut requests, mut failed) = (0, 0);
    let mut cell_ns = Vec::with_capacity(plan.cells.len());
    let wall = Instant::now();
    for (i, cell) in plan.cells.iter().enumerate() {
        t.set_cell(i as u64);
        let program0 = t.program_ns();
        let open = t.begin("bench.cell");
        let verdict = run_cell(cell.as_ref(), benches, t, &mut tally).and_then(|done| {
            t.time("bench.check", || match reference.get(&cell.key()) {
                Some(&want) if want == done.digest => Ok(done.requests),
                Some(&want) => Err(format!(
                    "digest {:016x} differs from reference {want:016x}",
                    done.digest
                )),
                None => Err("no reference digest".to_string()),
            })
        });
        t.end(open);
        cell_ns.push(t.program_ns() - program0);
        match verdict {
            Ok(n) => requests += n,
            Err(why) => {
                failed += 1;
                if *reported < MAX_REPORTED_FAILURES {
                    *reported += 1;
                    eprintln!("FAILED cell {} ({}): {why}", cell.key(), plan.label);
                }
            }
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    Pass {
        label: plan.label,
        wall_s,
        cell_ns,
        requests,
        attempted: plan.cells.len() as u64,
        failed,
        tally,
        selfs: self_secs_between(&before, &t.self_totals()),
    }
}

/// Median of `xs` (NaN when empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of `f` over the passes labelled `label`.
fn median_of(passes: &[Pass], label: &str, f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().filter(|p| p.label == label).map(f).collect())
}

/// Simulated requests per host second of the passes labelled `label`:
/// one pass's requests over the sum, across its cells, of each cell's
/// fastest time over the passes. The simulator is deterministic, so a
/// cell's repeats do the same work, and the fastest one is the time
/// with the least interference from the rest of the host.
fn request_rate(passes: &[Pass], label: &str) -> f64 {
    let runs: Vec<&Pass> = passes.iter().filter(|p| p.label == label).collect();
    let ns: u64 = (0..runs[0].cell_ns.len())
        .map(|c| runs.iter().map(|p| p.cell_ns[c]).min().unwrap_or(0))
        .sum();
    runs[0].requests as f64 / (ns as f64 / 1e9)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-layer metrics of one traced pass, in `BENCHMARK.json` order
/// after the set-up ones.
fn layer_metrics(w: Workload, p: &Pass) -> Vec<(&'static str, f64)> {
    let c = &p.tally;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let build_s = c.get("build_ns") / 1e9;
    let loop_s = match w {
        Workload::Sweep => p.self_s("system.try_simulate") - build_s,
        Workload::Robust => p.self_s("system.pump_until"),
        Workload::Fleet => p.self_s("fleet.run_fleet") - build_s,
    };
    let events = c.get("events");
    let windows = c.get("partition.windows");
    let fleet_build_s = if w == Workload::Fleet { build_s } else { 0.0 };
    vec![
        ("system.cells", c.get("cells")),
        ("system.events", events),
        ("system.build_s", build_s),
        ("system.loop_s", loop_s),
        ("system.finish_s", p.self_s("system.finish")),
        ("system.ns_per_event", ratio(loop_s * 1e9, events)),
        (
            "system.events_per_request",
            ratio(events, p.requests as f64),
        ),
        ("driver.interrupts", c.get("driver.interrupts")),
        ("driver.polls", c.get("driver.polls")),
        ("faults.chunk_replays", c.get("faults.chunk_replays")),
        ("faults.retries", c.get("faults.retries")),
        ("overload.offered", c.get("overload.offered")),
        (
            "overload.shed_frac",
            ratio(c.get("overload.shed"), c.get("overload.offered")),
        ),
        ("overload.queue_peak", c.get("overload.queue_peak")),
        ("integrity.checks", c.get("integrity.checks")),
        ("integrity.reexecs", c.get("integrity.reexecs")),
        (
            "integrity.giveup_frac",
            ratio(c.get("integrity.giveups"), c.get("integrity.poisoned")),
        ),
        ("crash.checkpoints", c.get("crash.checkpoints")),
        ("crash.migrations", c.get("crash.migrations")),
        ("failslow.hedged", c.get("failslow.hedged")),
        (
            "failslow.hedge_win_frac",
            ratio(c.get("failslow.won_hedge"), c.get("failslow.hedged")),
        ),
        ("fleet.run_s", p.self_s("fleet.run_fleet")),
        ("fleet.build_s", fleet_build_s),
        ("partition.windows", windows),
        ("partition.messages", c.get("partition.messages")),
        ("partition.events_per_window", ratio(events, windows)),
        (
            "partition.ns_per_window",
            ratio((p.self_s("fleet.run_fleet") - fleet_build_s) * 1e9, windows),
        ),
        ("failover.retries", c.get("failover.retries")),
        ("failover.hedges", c.get("failover.hedges")),
        ("failover.probes", c.get("failover.probes")),
        (
            "failover.dup_frac",
            ratio(c.get("failover.duplicates"), c.get("failover.received")),
        ),
        ("trace.coverage_frac", coverage(p)),
    ]
}

/// Share of a pass's wall time that the spans inside its cells explain:
/// the self times of the simulator calls and of the benchmark's own
/// named work (inputs, checks, digests). `bench.cell` wraps each whole
/// cell, so its self time is what no inner span covers (glue code and
/// the spans' own cost) and is left out.
fn coverage(p: &Pass) -> f64 {
    let covered: f64 = p
        .selfs
        .iter()
        .filter(|(n, _)| *n != "bench.cell")
        .map(|(_, s)| s)
        .sum();
    covered / p.wall_s
}

/// The unit of each per-layer metric, by its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.starts_with("system.ns_per") || name.starts_with("partition.ns_per") {
        "ns"
    } else if name.ends_with("_frac") {
        "frac"
    } else if name.ends_with("_speedup") {
        "x"
    } else {
        "count"
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_reference(args: &Args) -> Result<(), String> {
    let (_, benches) = setup::untraced();
    let mut t = Tracer::new();
    let mut lines = Vec::new();
    for cell in args.workload.universe() {
        let mut tally = Tally::default();
        let done = run_cell(cell.as_ref(), &benches, &mut t, &mut tally)
            .map_err(|e| format!("{}: {e}", cell.key()))?;
        lines.push(format!("{} {:016x}\n", cell.key(), done.digest));
    }
    lines.sort();
    std::fs::write(&args.reference, lines.concat())
        .map_err(|e| format!("cannot write {}: {e}", args.reference.display()))?;
    eprintln!(
        "wrote {} digests to {}",
        lines.len(),
        args.reference.display()
    );
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let reference = load_reference(&args.reference)?;
    let w = args.workload;
    let mut t = Tracer::new();

    // Set-up runs cold once before the first cell and again before
    // every round, so that its fastest repeat is drawn from the whole
    // run.
    let (mut setup_secs, mut setup_layers) = (Vec::new(), Vec::new());
    let mut set_up = |t: &mut Tracer| -> Result<Vec<BenchmarkRef>, String> {
        if args.trace {
            let (layers, benches) = setup::traced(t)?;
            setup_layers.push(layers);
            Ok(benches)
        } else {
            let (secs, benches) = setup::untraced();
            setup_secs.push(secs);
            Ok(benches)
        }
    };
    let benches = set_up(&mut t)?;

    let mut plans = vec![Plan {
        label: "main",
        record: false,
        cells: w.pass(args.seed),
    }];
    if args.trace {
        plans.push(Plan {
            label: "traced",
            record: true,
            cells: w.pass(args.seed),
        });
        if w == Workload::Robust {
            for v in robust::Variant::REMOVED {
                plans.push(Plan {
                    label: v.label(),
                    record: false,
                    cells: robust::pass(args.seed, v),
                });
            }
        }
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reported = 0;
    let mut rounds = 0;
    let mut peak_rss = None;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        set_up(&mut t)?;
        for plan in &plans {
            passes.push(run_pass(plan, &benches, &mut t, &reference, &mut reported));
        }
        rounds += 1;
        // Every cell has now run once. Later rounds repeat them, and
        // only the benchmark's own per-pass records grow, by an amount
        // that depends on how fast the host runs the passes.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let rate = request_rate(&passes, "main");
    println!(
        "workload {} seed {}: {} rounds of {} plan(s), {} cells per pass, {} set-ups, {:.2} s",
        w.name(),
        args.seed,
        rounds,
        plans.len(),
        plans[0].cells.len(),
        rounds + 1,
        start.elapsed().as_secs_f64(),
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut m: Vec<(&str, f64)> = setup::layer_medians(&setup_layers);
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.label == "traced").collect();
        let per_pass: Vec<Vec<(&'static str, f64)>> =
            traced.iter().map(|p| layer_metrics(w, p)).collect();
        for (i, (name, _)) in per_pass[0].iter().enumerate() {
            m.push((name, median(per_pass.iter().map(|v| v[i].1).collect())));
        }
        let loop_median =
            |label: &str| median_of(&passes, label, |p| p.self_s("system.pump_until"));
        for v in robust::Variant::REMOVED {
            let active = if w == Workload::Robust {
                loop_median("main") - loop_median(v.label())
            } else {
                0.0
            };
            m.push((v.active_metric(), active));
        }
        let speedup = if w == Workload::Fleet {
            match fleet::shard_speedup(args.seed, &benches, &reference) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("FAILED shard speedup probe: {e}");
                    attempted += 1;
                    failed += 1;
                    0.0
                }
            }
        } else {
            0.0
        };
        m.push(("partition.shard_speedup", speedup));
        let traced_rate = request_rate(&passes, "traced");
        m.push(("trace.overhead_frac", 1.0 - traced_rate / rate));
        t.write(&args.trace_out)
            .map_err(|e| format!("cannot write {}: {e}", args.trace_out.display()))?;
        println!("spans written to {}", args.trace_out.display());
        m.into_iter().map(|(n, v)| (n, v, unit_of(n))).collect()
    } else {
        vec![
            ("sim_requests_per_s", rate, "1/s"),
            (
                "setup_s",
                setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            ("peak_rss_mb", peak_rss.expect("at least one round"), "MB"),
        ]
    };

    let failed_frac = failed as f64 / attempted.max(1) as f64;
    for (n, v, u) in &metrics {
        println!("{n} {v} {u}");
    }
    if let Some(&(_, c, _)) = metrics.iter().find(|(n, ..)| *n == "trace.coverage_frac") {
        println!(
            "spans cover {c:.4} of the traced passes' wall time (at least {MIN_COVERAGE} needed): {}",
            if c >= MIN_COVERAGE { "ok" } else { "too low" }
        );
    }
    println!("failed_frac {failed_frac} frac ({failed} of {attempted} cells)");
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        json_metrics(&metrics)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dmx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    dmx_sim::par::set_threads(1);
    dmx_sim::partition::set_partitions(1);
    if args.write_reference {
        return match write_reference(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dmx-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dmx-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
