//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p dmx-bench --release --bin repro -- all
//! cargo run -p dmx-bench --release --bin repro -- fig11 fig12
//! cargo run -p dmx-bench --release --bin repro -- --seed 7 overload
//! cargo run -p dmx-bench --release --bin repro -- --threads 4 all
//! ```
//!
//! `--seed N` threads an explicit seed into the seven robustness
//! sweeps that take one (`faults`, `overload`, `integrity`, `chaos`,
//! `failslow`, `fleet`, `failover`); the other experiments ignore it.
//! `--threads N` fans independent experiments across `N` worker
//! threads; the output is byte-identical to a serial run regardless of
//! `N`. Exits 2 on a usage error or an unknown experiment, and 1 if any
//! experiment's embedded determinism/robustness checks fail (for
//! `summary`, if a paper claim drifts out of its band).

use dmx_bench::{run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::Suite;
use dmx_sim::par_map;

fn usage() -> ! {
    eprintln!("usage: repro [--seed N] [--threads N] <experiment>... | all");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut ids: Vec<&str> = Vec::new();
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
            "all" => ids.extend(EXPERIMENTS),
            id if EXPERIMENTS.contains(&id) => ids.push(id),
            other => {
                eprintln!(
                    "unknown experiment `{other}`; expected one of: {}",
                    EXPERIMENTS.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if ids.is_empty() {
        usage();
    }

    eprintln!("building benchmark suite (compiling + executing DRX kernels)...");
    let suite = Suite::new();

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
