//! Tests of the reproduction harness: every experiment id is wired,
//! the cheap ones render non-empty reports, and `repro all` reproduces
//! its committed golden output byte for byte.

use dmx_bench::{run_experiment, run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::Suite;

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

/// Renders every id in [`EXPERIMENTS`] as `repro all` prints it (each
/// report under a line of 72 `=`) and compares the result with the
/// committed `golden/repro_all.txt`, reporting the first differing
/// line. Also asserts that `repro summary` reports every paper claim in
/// its band. After a change that moves the output on purpose,
/// regenerate the file from the repository root and commit the diff:
///
/// ```text
/// cargo run --release -p dmx-bench --bin repro -- all > crates/bench/tests/golden/repro_all.txt
/// ```
#[test]
fn repro_all_matches_the_golden_output() {
    let suite = Suite::new();
    let mut out = String::new();
    for id in EXPERIMENTS {
        let o = run_experiment_checked(&suite, id, None);
        if id == "summary" {
            assert!(o.ok, "a paper claim drifted out of its band:\n{}", o.report);
        }
        out += &format!("{}\n{}\n", "=".repeat(72), o.report);
    }
    let golden = include_str!("golden/repro_all.txt");
    if let Some((i, (got, want))) = out
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "repro all differs from the golden output at line {}:\n  got:  {got}\n  want: {want}",
            i + 1
        );
    }
    assert!(
        out == golden,
        "repro all matches the golden output line by line but not in length: {} vs {} lines",
        out.lines().count(),
        golden.lines().count()
    );
}
