//! Tests of the reproduction harness: every experiment id is wired,
//! the cheap ones render non-empty reports, and `repro all` reproduces
//! its committed golden output byte for byte, serially and fanned
//! across worker threads.

use dmx_bench::{run_experiment, run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::Suite;
use dmx_sim::{par, par_map};

#[test]
fn experiment_list_is_complete() {
    for id in [
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
        "summary",
    ] {
        assert!(EXPERIMENTS.contains(&id), "missing {id}");
    }
}

#[test]
fn cheap_experiments_render() {
    let suite = Suite::new();
    for id in ["tab1", "fig8", "fig17"] {
        let out = run_experiment(&suite, id);
        assert!(out.len() > 100, "{id} rendered almost nothing");
    }
}

#[test]
fn checked_runner_is_vacuously_ok_without_embedded_checks() {
    let suite = Suite::new();
    let out = dmx_bench::run_experiment_checked(&suite, "tab1", Some(1));
    assert!(out.ok, "tab1 has no embedded checks to fail");
    assert!(out.report.len() > 100);
}

#[test]
#[should_panic(expected = "unknown experiment")]
fn unknown_experiment_panics() {
    let suite = Suite::new();
    run_experiment(&suite, "fig99");
}

/// The seven seeded robustness sweeps, as `repro --seed N` runs them.
const ROBUSTNESS: [&str; 7] = [
    "faults",
    "overload",
    "integrity",
    "chaos",
    "failslow",
    "fleet",
    "failover",
];

/// Runs `ids` as `repro [--seed N] --threads T <ids>` does, fanning
/// them across `threads` workers through `par_map`, and renders them as
/// it prints them: each report under a line of 72 `=`. Asserts that
/// `summary`, if run, reports every paper claim in its band. The worker
/// count is process-global; tests running beside this one render the
/// same bytes at any count, so they may see it raised.
fn repro(suite: &Suite, seed: Option<u64>, threads: usize, ids: &[&str]) -> String {
    par::set_threads(threads);
    let outcomes = par_map(ids, |_, &id| run_experiment_checked(suite, id, seed));
    par::set_threads(1);
    let mut out = String::new();
    for (&id, o) in ids.iter().zip(&outcomes) {
        if id == "summary" {
            assert!(o.ok, "a paper claim drifted out of its band:\n{}", o.report);
        }
        out += &format!("{}\n{}\n", "=".repeat(72), o.report);
    }
    out
}

/// Compares `out` with a committed golden file, naming the first
/// differing line.
fn assert_golden(out: &str, golden: &str, what: &str) {
    if let Some((i, (got, want))) = out
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{what} differs at line {}:\n  got:  {got}\n  want: {want}",
            i + 1
        );
    }
    assert!(
        out == golden,
        "{what} matches line by line but not in length: {} vs {} lines",
        out.lines().count(),
        golden.lines().count()
    );
}

/// `repro all` at the default seeds, serially and fanned across four
/// workers (`repro --threads 4 all`, whose results must come back in
/// input order), and the seven robustness sweeps at seed 7 must each
/// reproduce their committed golden file. After a change that moves
/// the output on purpose, regenerate the files from the repository
/// root and commit the diff:
///
/// ```text
/// cargo run --release -p dmx-bench --bin repro -- all > crates/bench/tests/golden/repro_all.txt
/// cargo run --release -p dmx-bench --bin repro -- --seed 7 faults overload integrity chaos failslow fleet failover > crates/bench/tests/golden/repro_seed7.txt
/// ```
#[test]
fn repro_all_matches_the_golden_output() {
    let suite = Suite::new();
    let all = include_str!("golden/repro_all.txt");
    assert_golden(
        &repro(&suite, None, 1, &EXPERIMENTS),
        all,
        "`repro all` vs golden/repro_all.txt",
    );
    assert_golden(
        &repro(&suite, None, 4, &EXPERIMENTS),
        all,
        "`repro --threads 4 all` vs golden/repro_all.txt",
    );
    assert_golden(
        &repro(&suite, Some(7), 1, &ROBUSTNESS),
        include_str!("golden/repro_seed7.txt"),
        "`repro --seed 7` sweeps vs golden/repro_seed7.txt",
    );
}
