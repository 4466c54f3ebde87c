//! # dmx-bench — reproduction harness
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (`cargo run -p dmx-bench --release --bin repro -- all`),
//! and the benches under `benches/` time the simulator and the DRX
//! toolchain themselves on the in-tree [`timing`] harness
//! (`cargo bench --workspace`).

#![warn(missing_docs)]

use dmx_core::experiments::{self, Suite};

pub mod bench;
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
    /// Seconds spent rendering the report, separate from the run
    /// itself so `repro bench` can keep rendering out of the
    /// events/sec window. Zero for experiments whose run and render
    /// are fused (tab1, fig8).
    pub render_secs: f64,
}

/// Runs `render` under a timer and packages the result, so report
/// rendering is accounted separately from the simulation it reports on.
fn rendered(ok: bool, render: impl FnOnce() -> String) -> Outcome {
    let t0 = std::time::Instant::now();
    let report = render();
    Outcome {
        report,
        ok,
        render_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Runs one experiment by id and returns its rendered report.
///
/// # Panics
///
/// Panics on an unknown id; call with a member of [`EXPERIMENTS`].
pub fn run_experiment(suite: &Suite, id: &str) -> String {
    run_experiment_checked(suite, id, None).report
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
    match id {
        "faults" => {
            let f = experiments::faults::run_with_seed(
                suite,
                seed.unwrap_or(experiments::faults::SEED),
            );
            rendered(f.ok(), || f.render())
        }
        "overload" => {
            let o = experiments::overload::run_with_seed(
                suite,
                seed.unwrap_or(experiments::overload::SEED),
            );
            rendered(o.ok(), || o.render())
        }
        "integrity" => {
            let i = experiments::integrity::run_with_seed(
                suite,
                seed.unwrap_or(experiments::integrity::SEED),
            );
            rendered(i.ok(), || i.render())
        }
        "chaos" => {
            let c =
                experiments::chaos::run_with_seed(suite, seed.unwrap_or(experiments::chaos::SEED));
            rendered(c.ok(), || c.render())
        }
        "failslow" => {
            let f = experiments::failslow::run_with_seed(
                suite,
                seed.unwrap_or(experiments::failslow::SEED),
            );
            rendered(f.ok(), || f.render())
        }
        "fleet" => {
            let f =
                experiments::fleet::run_with_seed(suite, seed.unwrap_or(experiments::fleet::SEED));
            rendered(f.ok(), || f.render())
        }
        "failover" => {
            let f = experiments::failover::run_with_seed(
                suite,
                seed.unwrap_or(experiments::failover::SEED),
            );
            rendered(f.ok(), || f.render())
        }
        "summary" => {
            let r = experiments::summary::run(suite);
            rendered(r.all_ok(), || r.render())
        }
        other => run_unchecked(suite, other),
    }
}

fn run_unchecked(suite: &Suite, id: &str) -> Outcome {
    match id {
        "tab1" => Outcome {
            report: experiments::tab1::run(suite),
            ok: true,
            render_secs: 0.0,
        },
        "fig3" => {
            let r = experiments::fig3::run(suite);
            rendered(true, || r.render())
        }
        "fig5" => {
            let r = experiments::fig5::run(suite);
            rendered(true, || r.render())
        }
        "fig8" => Outcome {
            report: experiments::fig8::run(),
            ok: true,
            render_secs: 0.0,
        },
        "fig11" => {
            let r = experiments::fig11::run(suite);
            rendered(true, || r.render())
        }
        "fig12" => {
            let r = experiments::fig12::run(suite);
            rendered(true, || r.render())
        }
        "fig13" => {
            let r = experiments::fig13::run(suite);
            rendered(true, || r.render())
        }
        "fig14" => {
            let r = experiments::fig14::run(suite);
            rendered(true, || r.render())
        }
        "fig15" => {
            let r = experiments::fig15::run(suite);
            rendered(true, || r.render())
        }
        "fig16" => {
            let r = experiments::fig16::run();
            rendered(true, || r.render())
        }
        "fig17" => {
            let r = experiments::fig17::run();
            rendered(true, || r.render())
        }
        "fig18" => {
            let r = experiments::fig18::run(suite);
            rendered(true, || r.render())
        }
        "fig19" => {
            let r = experiments::fig19::run(suite);
            rendered(true, || r.render())
        }
        "ablations" => {
            let irq = experiments::ablations::irq(suite);
            let spad = experiments::ablations::spad(suite);
            let queue = experiments::ablations::queue();
            let partition = experiments::ablations::partition();
            rendered(true, || {
                format!(
                    "{}\n{}\n{}\n{}",
                    irq.render(),
                    spad.render(),
                    queue.render(),
                    partition.render()
                )
            })
        }
        other => panic!("unknown experiment `{other}`; expected one of {EXPERIMENTS:?}"),
    }
}
