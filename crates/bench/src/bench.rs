//! Wall-clock measurement harness behind `repro bench`.
//!
//! Times every requested experiment twice — once serial, once on the
//! parallel sweep runner — and reports wall-clock, simulated events per
//! second, and peak RSS, writing the numbers to `BENCH_<date>.json` so
//! regressions can be compared across commits. The parallel pass must
//! render byte-identically to the serial pass; `ok()` (and the repro
//! exit code) reflect that check.
//!
//! System construction (`setup_secs`, from the process-global counter
//! fed by `Sim` constructors), cold DRX cost measurement
//! (`cost_model_secs`, from the counter fed by `Edge::drx_cost` cache
//! misses) and report rendering (`render_secs`) are reported
//! separately and subtracted from the events/sec denominator, so the
//! score measures the event loop, not setup, cost measurement or
//! formatting. Experiments with no event loop at all
//! ([`NON_EVENT_EXPERIMENTS`]) carry an explanatory note in the JSON.

use crate::run_experiment_checked;
use dmx_core::experiments::Suite;
use dmx_sim::{events_delivered, geomean, par_map};
use std::time::Instant;

/// The event-loop-dominated experiments scored by the `--check`
/// regression gate. Setup-heavy runs (kernel characterization,
/// schedule-space search, report mosaics) are excluded: their wall
/// clock is dominated by one-time work, so their events/sec says
/// nothing about the engine hot path.
pub const HOT_EXPERIMENTS: [&str; 12] = [
    "fig3",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig19",
    "faults",
    "overload",
    "integrity",
    "chaos",
    "failslow",
    "failover",
];

/// Largest tolerated hot-geomean regression: the gate fails when
/// `current < CHECK_FLOOR * baseline` (more than 15% slower).
pub const CHECK_FLOOR: f64 = 0.85;

/// Experiments that run no event loop at all — functional or analytic
/// models (DRX compilation, CPU cache characterization, closed-form
/// collectives). Their `events`/`events_per_sec` are genuinely zero,
/// not a measurement bug; the JSON row carries this note and the
/// `--check` geomean never includes them (none are hot).
pub const NON_EVENT_EXPERIMENTS: [&str; 4] = ["tab1", "fig5", "fig8", "fig17"];

/// The JSON note attached to [`NON_EVENT_EXPERIMENTS`] rows.
pub const NON_EVENT_NOTE: &str = "functional/analytic model, no event loop; excluded from --check";

/// One experiment's serial measurement.
#[derive(Debug, Clone)]
pub struct ExperimentBench {
    /// Experiment id (a member of [`crate::EXPERIMENTS`]).
    pub id: &'static str,
    /// Serial wall-clock seconds, all phases included.
    pub wall_secs: f64,
    /// Seconds of the wall spent constructing simulations
    /// (`Sim` setup, sampled from the process-global counter).
    pub setup_secs: f64,
    /// Seconds of the wall spent measuring DRX costs on a cache miss
    /// (compiling and executing restructuring ops, sampled from
    /// [`dmx_sim::cost_model_nanos`]).
    pub cost_model_secs: f64,
    /// Seconds of the wall spent rendering the report.
    pub render_secs: f64,
    /// Simulated events delivered by the experiment's runs.
    pub events: u64,
    /// Events per second of *event-loop* wall clock — setup, cold cost
    /// measurement and render are subtracted from the denominator, so
    /// small experiments are not distorted by construction, DRX
    /// measurement or formatting cost.
    pub events_per_sec: f64,
    /// Process peak RSS (VmHWM, kB) sampled after the experiment; the
    /// kernel reports a lifetime high-water mark, so this is monotone
    /// across rows. `None` off Linux.
    pub peak_rss_kb: Option<u64>,
}

/// Full `repro bench` results.
#[derive(Debug, Clone)]
pub struct Bench {
    /// ISO date (UTC) the bench ran, used in the JSON filename.
    pub date: String,
    /// Worker threads used for the parallel pass.
    pub threads: usize,
    /// Seed forwarded to the seeded experiments, if any.
    pub seed: Option<u64>,
    /// Per-experiment serial measurements, in run order.
    pub experiments: Vec<ExperimentBench>,
    /// Total serial wall-clock seconds.
    pub serial_wall_secs: f64,
    /// Total wall-clock seconds for the parallel pass over the same
    /// experiment list.
    pub parallel_wall_secs: f64,
    /// Serial over parallel wall-clock.
    pub speedup: f64,
    /// Whether the parallel pass rendered byte-identically to serial.
    pub parallel_output_identical: bool,
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone (the
/// container has no timezone database and the crate tree no chrono).
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Gregorian date from days since 1970-01-01 (Hinnant's civil-from-days).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// Runs the bench: a serial timed pass per experiment, then one
/// parallel pass over the whole list on `threads` workers, compared
/// byte-for-byte against the serial renders.
pub fn run(suite: &Suite, ids: &[&'static str], seed: Option<u64>, threads: usize) -> Bench {
    // Serial pass: per-experiment wall clock and event counts.
    let prev = dmx_sim::par::set_threads(1);
    let mut experiments = Vec::with_capacity(ids.len());
    let mut serial_reports = Vec::with_capacity(ids.len());
    let serial_start = Instant::now();
    for &id in ids {
        let ev0 = events_delivered();
        let su0 = dmx_sim::setup_nanos();
        let cm0 = dmx_sim::cost_model_nanos();
        let t0 = Instant::now();
        let out = run_experiment_checked(suite, id, seed);
        let wall_secs = t0.elapsed().as_secs_f64();
        let events = events_delivered() - ev0;
        let setup_secs = (dmx_sim::setup_nanos() - su0) as f64 / 1e9;
        let cost_model_secs = (dmx_sim::cost_model_nanos() - cm0) as f64 / 1e9;
        // Score events/sec on the event-loop window alone: system
        // construction, cold cost measurement and report rendering are
        // real cost (still in wall_secs) but say nothing about the
        // engine hot path.
        let loop_secs = (wall_secs - setup_secs - cost_model_secs - out.render_secs).max(1e-9);
        experiments.push(ExperimentBench {
            id,
            wall_secs,
            setup_secs,
            cost_model_secs,
            render_secs: out.render_secs,
            events,
            events_per_sec: events as f64 / loop_secs,
            peak_rss_kb: peak_rss_kb(),
        });
        serial_reports.push(out.report);
    }
    let serial_wall_secs = serial_start.elapsed().as_secs_f64();

    // Parallel pass: the whole experiment list fanned across workers,
    // collected in input order.
    dmx_sim::par::set_threads(threads);
    let par_start = Instant::now();
    let par_reports: Vec<String> =
        par_map(ids, |_, &id| run_experiment_checked(suite, id, seed).report);
    let parallel_wall_secs = par_start.elapsed().as_secs_f64();
    dmx_sim::par::set_threads(prev);

    Bench {
        date: utc_date(),
        threads,
        seed,
        experiments,
        serial_wall_secs,
        parallel_wall_secs,
        speedup: serial_wall_secs / parallel_wall_secs.max(1e-9),
        parallel_output_identical: serial_reports == par_reports,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Bench {
    /// True when the parallel pass reproduced the serial output.
    pub fn ok(&self) -> bool {
        self.parallel_output_identical
    }

    /// The filename the JSON report is written under.
    pub fn json_filename(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Serializes the report (hand-rolled; the tree carries no serde).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .experiments
            .iter()
            .map(|e| {
                let note = if NON_EVENT_EXPERIMENTS.contains(&e.id) {
                    format!(", \"note\": {}", json_str(NON_EVENT_NOTE))
                } else {
                    String::new()
                };
                format!(
                    "    {{\"id\": {id}, \"wall_secs\": {w:.6}, \"setup_secs\": {su:.6}, \
                     \"cost_model_secs\": {cm:.6}, \"render_secs\": {re:.6}, \
                     \"events\": {ev}, \"events_per_sec\": {eps:.1}, \
                     \"peak_rss_kb\": {rss}{note}}}",
                    id = json_str(e.id),
                    w = e.wall_secs,
                    su = e.setup_secs,
                    cm = e.cost_model_secs,
                    re = e.render_secs,
                    ev = e.events,
                    eps = e.events_per_sec,
                    rss = e.peak_rss_kb.map_or("null".to_string(), |v| v.to_string()),
                )
            })
            .collect();
        format!(
            "{{\n  \"date\": {date},\n  \"threads\": {threads},\n  \"seed\": {seed},\n  \
             \"experiments\": [\n{rows}\n  ],\n  \
             \"serial_wall_secs\": {sw:.6},\n  \"parallel_wall_secs\": {pw:.6},\n  \
             \"speedup\": {sp:.3},\n  \"parallel_output_identical\": {ident}\n}}\n",
            date = json_str(&self.date),
            threads = self.threads,
            seed = self.seed.map_or("null".to_string(), |s| s.to_string()),
            rows = rows.join(",\n"),
            sw = self.serial_wall_secs,
            pw = self.parallel_wall_secs,
            sp = self.speedup,
            ident = self.parallel_output_identical,
        )
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "repro bench — wall-clock harness ({} experiments, {} thread{})\n\n",
            self.experiments.len(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        ));
        out.push_str(&format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>14} {:>12}\n",
            "experiment",
            "wall (s)",
            "setup (s)",
            "cost (s)",
            "render (s)",
            "events",
            "events/sec",
            "rss (kB)"
        ));
        for e in &self.experiments {
            let eps = if NON_EVENT_EXPERIMENTS.contains(&e.id) {
                "n/a".to_string()
            } else {
                format!("{:.0}", e.events_per_sec)
            };
            out.push_str(&format!(
                "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12} {:>14} {:>12}\n",
                e.id,
                e.wall_secs,
                e.setup_secs,
                e.cost_model_secs,
                e.render_secs,
                e.events,
                eps,
                e.peak_rss_kb.map_or("n/a".to_string(), |v| v.to_string()),
            ));
        }
        out.push_str(&format!(
            "\nserial total    {:.3} s\nparallel total  {:.3} s ({} threads)\n\
             speedup         {:.2}x\nparallel output identical to serial: {}\n",
            self.serial_wall_secs,
            self.parallel_wall_secs,
            self.threads,
            self.speedup,
            if self.parallel_output_identical {
                "yes"
            } else {
                "NO (BUG)"
            },
        ));
        out
    }
}

/// Extracts `(id, events_per_sec)` pairs from a bench JSON report.
///
/// The report is this module's own output ([`Bench::to_json`]): one
/// experiment row per line with `"id"` and `"events_per_sec"` on that
/// line, so a line scanner is an exact parser for it (the tree carries
/// no serde). Lines without both fields are skipped.
pub fn parse_eps(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let (Some(id), Some(eps)) = (
            field_str(line, "\"id\": \""),
            field_num(line, "\"events_per_sec\": "),
        ) else {
            continue;
        };
        out.push((id, eps));
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Result of comparing a fresh bench against a committed baseline
/// report, scored on the [`HOT_EXPERIMENTS`] events/sec geomean.
#[derive(Debug, Clone)]
pub struct Check {
    /// Hot-experiment events/sec geomean from the baseline file.
    pub baseline: f64,
    /// Hot-experiment events/sec geomean from this run.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

impl Check {
    /// True when the run is within the tolerated regression envelope.
    pub fn pass(&self) -> bool {
        self.ratio >= CHECK_FLOOR
    }

    /// Renders the one-screen gate verdict.
    pub fn render(&self) -> String {
        format!(
            "\nbench --check — hot events/sec geomean vs baseline\n\
             baseline {:>12.0}\ncurrent  {:>12.0}\nratio    {:>12.3}  (floor {:.2}: {})\n",
            self.baseline,
            self.current,
            self.ratio,
            CHECK_FLOOR,
            if self.pass() { "pass" } else { "FAIL" },
        )
    }
}

impl Bench {
    /// Compares this run's hot-experiment events/sec geomean against a
    /// baseline JSON report (a previous run's `to_json`). `Err` if
    /// either side is missing a hot experiment or carries a
    /// non-positive events/sec for one.
    pub fn check(&self, baseline_json: &str) -> Result<Check, String> {
        let base = parse_eps(baseline_json);
        let mut b = Vec::with_capacity(HOT_EXPERIMENTS.len());
        let mut c = Vec::with_capacity(HOT_EXPERIMENTS.len());
        for id in HOT_EXPERIMENTS {
            let Some((_, eps)) = base.iter().find(|(i, _)| i == id) else {
                return Err(format!("baseline is missing hot experiment `{id}`"));
            };
            b.push(*eps);
            let Some(e) = self.experiments.iter().find(|e| e.id == id) else {
                return Err(format!("this run did not measure hot experiment `{id}`"));
            };
            c.push(e.events_per_sec);
        }
        let baseline = geomean(&b)
            .ok_or_else(|| "baseline has a non-positive events/sec in a hot row".to_string())?;
        let current = geomean(&c)
            .ok_or_else(|| "this run has a non-positive events/sec in a hot row".to_string())?;
        Ok(Check {
            baseline,
            current,
            ratio: current / baseline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_675), (2026, 8, 10));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().expect("VmHWM") > 0);
        }
    }

    /// A synthetic Bench whose hot experiments all report `eps`.
    fn synthetic(eps: f64) -> Bench {
        Bench {
            date: "2026-01-01".to_string(),
            threads: 1,
            seed: None,
            experiments: HOT_EXPERIMENTS
                .iter()
                .map(|&id| ExperimentBench {
                    id,
                    wall_secs: 0.01,
                    setup_secs: 0.0,
                    cost_model_secs: 0.0,
                    render_secs: 0.0,
                    events: (eps / 100.0) as u64,
                    events_per_sec: eps,
                    peak_rss_kb: None,
                })
                .collect(),
            serial_wall_secs: 0.1,
            parallel_wall_secs: 0.1,
            speedup: 1.0,
            parallel_output_identical: true,
        }
    }

    #[test]
    fn parse_eps_round_trips_to_json() {
        let b = synthetic(1.5e6);
        let rows = parse_eps(&b.to_json());
        assert_eq!(rows.len(), HOT_EXPERIMENTS.len());
        for ((id, eps), want) in rows.iter().zip(HOT_EXPERIMENTS) {
            assert_eq!(id, want);
            assert!((eps - 1.5e6).abs() < 1.0, "{id}: {eps}");
        }
    }

    #[test]
    fn committed_baselines_still_parse_and_check() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut baselines = 0;
        for entry in std::fs::read_dir(&root).expect("workspace root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let json = std::fs::read_to_string(&path).expect("readable baseline");
            let rows = parse_eps(&json);
            for id in HOT_EXPERIMENTS {
                assert!(rows.iter().any(|(i, _)| i == id), "{name} lacks {id}");
            }
            synthetic(1.0e6)
                .check(&json)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            baselines += 1;
        }
        assert!(baselines > 0, "no BENCH_*.json baseline is committed");
    }

    #[test]
    fn check_passes_within_envelope_and_fails_beyond() {
        let base = synthetic(1.0e6).to_json();
        // 10% slower: inside the 15% envelope.
        let c = synthetic(0.9e6).check(&base).expect("check");
        assert!(c.pass(), "ratio {:.3}", c.ratio);
        assert!((c.ratio - 0.9).abs() < 1e-9);
        // 20% slower: regression.
        let c = synthetic(0.8e6).check(&base).expect("check");
        assert!(!c.pass(), "ratio {:.3}", c.ratio);
        assert!(c.render().contains("FAIL"));
        // Faster is always fine.
        assert!(synthetic(3.0e6).check(&base).expect("check").pass());
    }

    #[test]
    fn check_rejects_incomplete_baselines() {
        let b = synthetic(1.0e6);
        let base = b.to_json().replace("\"fig16\"", "\"fig99\"");
        let err = b.check(&base).expect_err("missing hot row");
        assert!(err.contains("fig16"), "{err}");
        let err = b.check("{}").expect_err("empty baseline");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn bench_runs_and_serializes() {
        let suite = Suite::new();
        let b = run(&suite, &["fig8", "fig16"], None, 2);
        assert!(b.ok(), "parallel pass must reproduce serial output");
        assert_eq!(b.experiments.len(), 2);
        assert!(b.serial_wall_secs > 0.0);
        let j = b.to_json();
        assert!(j.contains("\"fig8\""));
        assert!(j.contains("\"setup_secs\""));
        assert!(j.contains("\"cost_model_secs\""));
        assert!(j.contains("\"render_secs\""));
        assert!(j.contains("\"parallel_output_identical\": true"));
        // fig8 is functional-only: its zero events carry the explicit
        // exclusion note; fig16 runs the event loop and must not.
        let fig8_row = j.lines().find(|l| l.contains("\"fig8\"")).expect("row");
        assert!(fig8_row.contains(NON_EVENT_NOTE), "{fig8_row}");
        let fig16_row = j.lines().find(|l| l.contains("\"fig16\"")).expect("row");
        assert!(!fig16_row.contains("note"), "{fig16_row}");
        let fig16 = b
            .experiments
            .iter()
            .find(|e| e.id == "fig16")
            .expect("fig16");
        assert!(fig16.events > 0, "fig16 runs the event loop");
        assert!(b.json_filename().starts_with("BENCH_"));
        assert!(b.render().contains("speedup"));
    }
}
