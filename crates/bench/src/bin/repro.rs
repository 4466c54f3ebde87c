//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p dmx-bench --release --bin repro -- all
//! cargo run -p dmx-bench --release --bin repro -- fig11 fig12
//! cargo run -p dmx-bench --release --bin repro -- --seed 7 overload
//! cargo run -p dmx-bench --release --bin repro -- --threads 4 all
//! cargo run -p dmx-bench --release --bin repro -- bench
//! ```
//!
//! `--seed N` threads an explicit seed into the experiments that take
//! one (`faults`, `overload`). `--threads N` fans independent
//! experiments across `N` worker threads; the output is byte-identical
//! to a serial run regardless of `N`. `bench` times every experiment
//! (serial and parallel), prints a wall-clock/events-per-second/RSS
//! table, and writes `BENCH_<date>.json`. `bench --check BASELINE.json`
//! additionally compares the hot-experiment events/sec geomean against
//! a committed baseline report and fails on a >15% regression. Exits
//! nonzero if any experiment's embedded determinism/robustness checks
//! fail (for `summary`, if a paper claim drifts out of its band), if
//! the bench's parallel pass diverges from serial, or if the
//! regression gate trips.

use dmx_bench::{bench, run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::Suite;
use dmx_sim::par_map;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--threads N] <experiment>... | all | \
         bench [--check BASELINE.json] [experiment]..."
    );
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut do_bench = false;
    let mut check: Option<String> = None;
    let mut ids: Vec<&'static str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    usage()
                });
                seed = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs an unsigned integer, got `{v}`");
                    usage()
                }));
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    usage()
                });
                threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs an unsigned integer, got `{v}`");
                    usage()
                }));
            }
            "bench" => do_bench = true,
            "--check" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--check needs a baseline BENCH_*.json path");
                    usage()
                });
                check = Some(v.clone());
            }
            "all" => ids.extend(EXPERIMENTS),
            other => {
                // Canonicalize to the 'static id so the bench report can
                // borrow it.
                match EXPERIMENTS.iter().find(|e| **e == other) {
                    Some(id) => ids.push(id),
                    None => {
                        eprintln!(
                            "unknown experiment `{other}`; expected one of: {}",
                            EXPERIMENTS.join(" ")
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
    }
    if do_bench && ids.is_empty() {
        ids.extend(EXPERIMENTS);
    }
    if ids.is_empty() {
        usage();
    }
    if check.is_some() && !do_bench {
        eprintln!("--check only applies to bench mode");
        usage();
    }
    // Read the baseline before running: the fresh report may be written
    // under the same BENCH_<date>.json name and would clobber it.
    let baseline = check.map(|p| {
        std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {p}: {e}");
            std::process::exit(2);
        })
    });

    eprintln!("building benchmark suite (compiling + executing DRX kernels)...");
    let suite = Suite::new();

    if do_bench {
        // Default to the machine's parallelism for the parallel pass.
        let threads =
            threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let b = bench::run(&suite, &ids, seed, threads);
        print!("{}", b.render());
        let path = b.json_filename();
        std::fs::write(&path, b.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
        if !b.ok() {
            eprintln!("FAILED: parallel output diverged from serial");
            std::process::exit(1);
        }
        if let Some(base) = baseline {
            match b.check(&base) {
                Ok(c) => {
                    print!("{}", c.render());
                    if !c.pass() {
                        eprintln!(
                            "FAILED: hot events/sec geomean regressed more than {:.0}%",
                            (1.0 - bench::CHECK_FLOOR) * 100.0
                        );
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("bench --check: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    dmx_sim::par::set_threads(threads.unwrap_or(1));
    // Independent experiments fan across the worker pool; results are
    // collected in input order, so stdout is identical for any -N.
    let outcomes = par_map(&ids, |_, id| run_experiment_checked(&suite, id, seed));
    let mut failed = Vec::new();
    for (id, out) in ids.iter().zip(&outcomes) {
        println!("{}", "=".repeat(72));
        println!("{}", out.report);
        if !out.ok {
            failed.push(*id);
        }
    }
    if !failed.is_empty() {
        eprintln!("FAILED embedded checks: {}", failed.join(" "));
        std::process::exit(1);
    }
}
