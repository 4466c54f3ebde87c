//! # dmx-bench — reproduction harness
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (`cargo run -p dmx-bench --release --bin repro -- all`),
//! and the benches under `benches/` time engine hot paths and the DRX
//! toolchain on the in-tree [`timing`] harness
//! (`cargo bench --workspace`). End-to-end simulator speed is
//! perfbench's to measure (`perfbench/` at the repository root).

#![warn(missing_docs)]

use dmx_core::experiments::{self, Suite};

pub mod timing;

/// All experiment identifiers `repro` accepts.
pub const EXPERIMENTS: [&str; 22] = [
    "tab1",
    "fig3",
    "fig5",
    "fig8",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "ablations",
    "faults",
    "overload",
    "integrity",
    "chaos",
    "failslow",
    "fleet",
    "failover",
    "summary",
];

/// A rendered experiment report plus the verdict of its embedded
/// checks. Experiments without embedded checks are vacuously `ok`.
#[derive(Debug)]
pub struct Outcome {
    /// The rendered report.
    pub report: String,
    /// Whether every embedded acceptance check passed.
    pub ok: bool,
}

/// Runs one experiment by id, threading `seed` into the experiments
/// that take one (`faults`, `overload`, `integrity`, `chaos`,
/// `failslow`, `fleet`, `failover`; others ignore it), and reports
/// whether the experiment's embedded determinism/robustness checks
/// passed (for `summary`: whether every paper claim is in its band).
///
/// # Panics
///
/// Panics on an unknown id; call with a member of [`EXPERIMENTS`].
pub fn run_experiment_checked(suite: &Suite, id: &str, seed: Option<u64>) -> Outcome {
    let (ok, report) = match id {
        "faults" => {
            let f = experiments::faults::run_with_seed(
                suite,
                seed.unwrap_or(experiments::faults::SEED),
            );
            (f.ok(), f.render())
        }
        "overload" => {
            let o = experiments::overload::run_with_seed(
                suite,
                seed.unwrap_or(experiments::overload::SEED),
            );
            (o.ok(), o.render())
        }
        "integrity" => {
            let i = experiments::integrity::run_with_seed(
                suite,
                seed.unwrap_or(experiments::integrity::SEED),
            );
            (i.ok(), i.render())
        }
        "chaos" => {
            let c =
                experiments::chaos::run_with_seed(suite, seed.unwrap_or(experiments::chaos::SEED));
            (c.ok(), c.render())
        }
        "failslow" => {
            let f = experiments::failslow::run_with_seed(
                suite,
                seed.unwrap_or(experiments::failslow::SEED),
            );
            (f.ok(), f.render())
        }
        "fleet" => {
            let f =
                experiments::fleet::run_with_seed(suite, seed.unwrap_or(experiments::fleet::SEED));
            (f.ok(), f.render())
        }
        "failover" => {
            let f = experiments::failover::run_with_seed(
                suite,
                seed.unwrap_or(experiments::failover::SEED),
            );
            (f.ok(), f.render())
        }
        "summary" => {
            let r = experiments::summary::run(suite);
            (r.all_ok(), r.render())
        }
        "tab1" => (true, experiments::tab1::run(suite)),
        "fig3" => (true, experiments::fig3::run(suite).render()),
        "fig5" => (true, experiments::fig5::run(suite).render()),
        "fig8" => (true, experiments::fig8::run()),
        "fig11" => (true, experiments::fig11::run(suite).render()),
        "fig12" => (true, experiments::fig12::run(suite).render()),
        "fig13" => (true, experiments::fig13::run(suite).render()),
        "fig14" => (true, experiments::fig14::run(suite).render()),
        "fig15" => (true, experiments::fig15::run(suite).render()),
        "fig16" => (true, experiments::fig16::run().render()),
        "fig17" => (true, experiments::fig17::run().render()),
        "fig18" => (true, experiments::fig18::run(suite).render()),
        "fig19" => (true, experiments::fig19::run(suite).render()),
        "ablations" => {
            let irq = experiments::ablations::irq(suite);
            let spad = experiments::ablations::spad(suite);
            let queue = experiments::ablations::queue();
            let partition = experiments::ablations::partition();
            let report = format!(
                "{}\n{}\n{}\n{}",
                irq.render(),
                spad.render(),
                queue.render(),
                partition.render()
            );
            (true, report)
        }
        other => panic!("unknown experiment `{other}`; expected one of {EXPERIMENTS:?}"),
    };
    Outcome { report, ok }
}
