//! Overload sweep: open-loop multi-tenant load against one server.
//!
//! Not a figure from the paper — a robustness study of the reproduced
//! system. Five tenants (one per Table I benchmark) offer open-loop
//! load at 0.5x through 2.0x of the server's measured capacity; tenant
//! 0 arrives in Markov-modulated bursts, the rest are Poisson. The
//! driver admits through per-tenant token buckets, dispatches pending
//! work earliest-deadline-first from a bounded queue, and sheds
//! requests whose deadline already passed.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro overload` invocation:
//!
//! * the pending queue never exceeds its configured bound;
//! * 2x load sheds (an open loop cannot absorb sustained overload);
//! * p99 goodput latency at 2x stays within 10x of the 0.5x p99
//!   (shedding keeps the latency of *served* work bounded);
//! * two same-seed runs render byte-identically;
//! * an inert overload config reproduces the layer-absent run
//!   bit-identically (the zero-overhead path).

use super::{Calibration, Checks, Suite, QUEUE_CAPACITY};
use crate::overload::{OverloadConfig, OverloadReport};
use crate::report::{ms, pct, Table};
use crate::system::{simulate, SystemConfig};
use dmx_sim::{par_map, Time};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0x10AD;

/// Offered load multiples of measured capacity.
pub const LOADS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// Arrivals each tenant offers per run.
const ARRIVALS_PER_TENANT: usize = 24;

/// One point of the load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load as a multiple of measured capacity.
    pub load: f64,
    /// Worst per-tenant p99 goodput latency at this load.
    pub worst_p99: Time,
    /// Full per-tenant accounting.
    pub report: OverloadReport,
}

/// Full overload-sweep results.
#[derive(Debug, Clone)]
pub struct Overload {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Measured capacity calibration: clean cross-tenant mean latency.
    pub clean_mean: Time,
    /// One point per entry of [`LOADS`].
    pub points: Vec<LoadPoint>,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

fn worst_p99(r: &OverloadReport) -> Time {
    r.tenants
        .iter()
        .map(|t| t.goodput_p99)
        .max()
        .unwrap_or(Time::ZERO)
}

/// Runs the sweep under the default [`SEED`].
pub fn run(suite: &Suite) -> Overload {
    run_with_seed(suite, SEED)
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> Overload {
    let cal = Calibration::new(suite);
    // Deadline relative to the slowest tenant's clean latency, so an
    // uncontended request always fits regardless of its app.
    let cfg = |load: f64| SystemConfig {
        requests_per_app: ARRIVALS_PER_TENANT,
        overload: Some(cal.open_loop(seed, load, cal.slowest * 4)),
        ..cal.cfg.clone()
    };

    // The load points only depend on the calibration, so they fan out
    // across the worker pool.
    let points: Vec<LoadPoint> = par_map(&LOADS, |_, &load| {
        let report = simulate(&cfg(load))
            .overload
            .expect("open-loop run must report");
        LoadPoint {
            load,
            worst_p99: worst_p99(&report),
            report,
        }
    });

    let last = points.last().expect("loads");
    let first = points.first().expect("loads");
    // Same-seed determinism at the highest load, re-simulated from
    // scratch: the Debug render covers every counter and latency.
    let again = simulate(&cfg(2.0));
    let checks = Checks(vec![
        (
            "queues stayed within bound",
            points.iter().all(|p| p.report.queue_peak <= QUEUE_CAPACITY),
        ),
        ("2.0x load shed", last.report.shed_rate() > 0.0),
        (
            "p99(2.0x) within 10x of p99(0.5x)",
            first.worst_p99 > Time::ZERO
                && last.worst_p99.as_secs_f64() <= 10.0 * first.worst_p99.as_secs_f64(),
        ),
        (
            "same-seed runs byte-identical",
            format!("{:?}", again.overload) == format!("{:?}", Some(&last.report)),
        ),
        (
            "inert config identical to no layer",
            cal.inert_identical(|c| c.overload = Some(OverloadConfig::none())),
        ),
    ]);

    Overload {
        seed,
        clean_mean: cal.mean,
        points,
        checks,
    }
}

impl Overload {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut sweep = Table::new(
            [
                "load",
                "offered",
                "goodput",
                "shed",
                "late",
                "q.peak",
                "q.mean",
                "wait",
                "worst p99",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for p in &self.points {
            let r = &p.report;
            let late: u64 = r.tenants.iter().map(|t| t.late).sum();
            sweep.row(vec![
                format!("{:.1}x", p.load),
                r.offered().to_string(),
                r.goodput().to_string(),
                format!("{} ({})", r.shed(), pct(r.shed_rate())),
                late.to_string(),
                r.queue_peak.to_string(),
                format!("{:.2}", r.queue_mean),
                ms(r.queue_wait_mean),
                ms(p.worst_p99),
            ]);
        }

        let peak = self.points.last().expect("loads");
        let mut tenants = Table::new(
            [
                "tenant", "offered", "admitted", "goodput", "shed", "p50", "p99", "p999", "breaker",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for t in &peak.report.tenants {
            tenants.row(vec![
                t.name.to_string(),
                t.offered.to_string(),
                t.admitted.to_string(),
                t.goodput.to_string(),
                format!("{} ({})", t.shed(), pct(t.shed_rate())),
                ms(t.goodput_p50),
                ms(t.goodput_p99),
                ms(t.goodput_p999),
                t.breaker_activations.to_string(),
            ]);
        }

        format!(
            "repro overload — open-loop load sweep (seed {seed:#x})\n\
             Five tenants offer load at multiples of measured capacity\n\
             (clean mean latency {mean}); tenant 0 bursts (MMPP), the\n\
             rest are Poisson. Queue bound {cap}, deadline 4x slowest\n\
             clean latency, token-bucket admission at 1.3x offered.\n\n\
             {sweep}\n\
             Per-tenant accounting at {load:.1}x load:\n\n{tenants}\n\
             {checks}",
            seed = self.seed,
            mean = ms(self.clean_mean),
            cap = QUEUE_CAPACITY,
            sweep = sweep.render(),
            load = peak.load,
            tenants = tenants.render(),
            checks = self.checks.render(37),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_stays_within_offered_load() {
        let a = run(&Suite::new());
        assert_eq!(a.points.len(), LOADS.len());
        for p in &a.points {
            assert!(p.report.goodput() <= p.report.offered());
            assert!(p.report.goodput() > 0, "{}x produced no goodput", p.load);
        }
    }
}
