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

/// Renders each row's ids as `repro` prints them (each report under a
/// line of 72 `=`) and compares the result with the row's committed
/// golden file, reporting the first differing line: every id in
/// [`EXPERIMENTS`] at the default seeds (`repro all`), and the seven
/// robustness sweeps at seed 7. Also asserts that `repro summary`
/// reports every paper claim in its band. After a change that moves
/// the output on purpose, regenerate the files from the repository
/// root and commit the diff:
///
/// ```text
/// cargo run --release -p dmx-bench --bin repro -- all > crates/bench/tests/golden/repro_all.txt
/// cargo run --release -p dmx-bench --bin repro -- --seed 7 faults overload integrity chaos failslow fleet failover > crates/bench/tests/golden/repro_seed7.txt
/// ```
#[test]
fn repro_all_matches_the_golden_output() {
    let table: [(Option<u64>, &[&str], &str, &str); 2] = [
        (
            None,
            &EXPERIMENTS,
            "repro_all.txt",
            include_str!("golden/repro_all.txt"),
        ),
        (
            Some(7),
            &ROBUSTNESS,
            "repro_seed7.txt",
            include_str!("golden/repro_seed7.txt"),
        ),
    ];
    let suite = Suite::new();
    for (seed, ids, file, golden) in table {
        let mut out = String::new();
        for &id in ids {
            let o = run_experiment_checked(&suite, id, seed);
            if id == "summary" {
                assert!(o.ok, "a paper claim drifted out of its band:\n{}", o.report);
            }
            out += &format!("{}\n{}\n", "=".repeat(72), o.report);
        }
        if let Some((i, (got, want))) = out
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
        {
            panic!(
                "output differs from golden/{file} at line {}:\n  got:  {got}\n  want: {want}",
                i + 1
            );
        }
        assert!(
            out == golden,
            "output matches golden/{file} line by line but not in length: {} vs {} lines",
            out.lines().count(),
            golden.lines().count()
        );
    }
}
