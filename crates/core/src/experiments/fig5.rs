//! Fig. 5: top-down characterization of the restructuring ops on the
//! host CPU, with the MPKI observations of Sec. IV.A.

use super::Suite;
use crate::report::{pct, Table};
use dmx_cpu::{characterize_op, CacheConfig, Characterization};

/// Per-op characterization results.
#[derive(Debug)]
pub struct Fig5 {
    /// One characterization per benchmark's (first) restructuring op.
    pub ops: Vec<Characterization>,
}

/// Characterizes one benchmark's (first) restructuring op. Public so
/// the `summary` experiment can fan individual ops across its worker
/// pool (a nested `par_map` inside `run` would serialize there).
pub(crate) fn characterize_one(b: &crate::apps::Benchmark) -> Characterization {
    let cache = CacheConfig::default();
    let mut c = characterize_op(&b.edges[0].profile, &cache);
    c.name = format!("{} ({})", b.name, b.edges[0].profile.name);
    c
}

/// Runs the experiment. Each op's cache/pipeline characterization is
/// independent, so the per-benchmark loop fans across the
/// `dmx_sim::par` pool; results are collected in input order, so the
/// rendered table is byte-identical for any `--threads N`.
pub fn run(suite: &Suite) -> Fig5 {
    Fig5 {
        ops: dmx_sim::par_map(suite.benchmarks(), |_, b| characterize_one(b)),
    }
}

impl Fig5 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "restructuring op".into(),
            "retire".into(),
            "bad-spec".into(),
            "front-end".into(),
            "BE-core".into(),
            "BE-mem".into(),
            "L1I MPKI".into(),
            "L1D MPKI".into(),
            "L2 MPKI".into(),
        ]);
        for c in &self.ops {
            t.row(vec![
                c.name.clone(),
                pct(c.topdown.retiring),
                pct(c.topdown.bad_speculation),
                pct(c.topdown.frontend),
                pct(c.topdown.backend_core),
                pct(c.topdown.backend_memory),
                format!("{:.1}", c.mpki.l1i_mpki),
                format!("{:.0}", c.mpki.l1d_mpki),
                format!("{:.0}", c.mpki.l2_mpki),
            ]);
        }
        format!(
            "Fig. 5 — top-down breakdown of data restructuring on the host CPU\n\
             (paper: back-end 53-77.6%, bad-spec <=12.5%, front-end <=14%,\n\
             L1I MPKI ~2.3, L1D MPKI 50-215, L2 MPKI 25-109)\n\n{}",
            t.render()
        )
    }
}
