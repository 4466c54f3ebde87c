#!/usr/bin/env python3
"""Times a change against its parent with perfbench, in alternating pairs.

Run from anywhere:

    python3 scripts/perf_pairs.py PARENT CHANGE [-- RUN_ARGS...]

PARENT and CHANGE are checkouts of the two commits (a `git archive` or
`git clone` of the parent, and the working tree, say). Each side runs
its own `perfbench/run.py --workload W RUN_ARGS` from its own root, so
every run checks its cells against its own `perfbench/reference/`.
RUN_ARGS are passed through unchanged (`--seconds 3`, `--seed 90210`);
keep `--trace 0`, the default, since only the end-to-end metrics are
compared. Each side builds into `<checkout>/.bench_build`, unpinned,
before the first timed run.

For every workload in PARENT's `BENCHMARK.json`, the script runs 10
pairs, alternating which side goes first, each run pinned to CPU 1 with
`taskset -c 1` where that exists. A slow spell on a shared host can
cover a whole run, but it slows both runs of a pair alike, so each
pair's change/parent ratio cancels it where a comparison of unpaired
medians does not. Per workload and end-to-end metric it prints each
side's median, the parent's interquartile range, the pairs the change
won, the median change/parent pair ratio, and a verdict on a gain:

  gain        the change won at least 9 of 10 pairs and its median
              beats the parent's by more than the parent's IQR;
  unresolved  no gain, and the parent's IQR is wider than the metric's
              bound, so the runs cannot tell a change from noise;
  no gain     otherwise.

Exits 1 when a run fails, when a run is not `"correct": true` with
`"failed": 0`, or when a metric's median pair ratio is worse than that
metric's `BENCHMARK.json` bound (below 1 - bound for a metric where
higher is better, above 1 + bound where lower is). The bounds come from
PARENT's `BENCHMARK.json`, so a change cannot widen its own gate.
Exits 2 on a usage error.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 10
SIDES = ("parent", "change")


def fail(msg, code=1):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(code)


def side_env(root):
    """The environment of one side's build and runs: its own target dir,
    whatever CARGO_TARGET_DIR the caller set."""
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))


def pin_prefix():
    """`taskset -c 1` where taskset exists and CPU 1 is ours to use."""
    affinity = getattr(os, "sched_getaffinity", lambda _: set())(0)
    return ["taskset", "-c", "1"] if shutil.which("taskset") and 1 in affinity else []


def build(root):
    """Builds a side's benchmark the way its run.py does, so the timed
    runs find it built and no pinned run compiles on one core."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=root, env=side_env(root)).returncode != 0:
        fail(f"build failed in {root}")


def run_once(root, workload, run_args, pin):
    """Runs one side's run.py for one workload; returns its JSON result."""
    cmd = pin + [sys.executable, os.path.join(root, "perfbench", "run.py"),
                 "--workload", workload] + run_args
    proc = subprocess.run(cmd, cwd=root, env=side_env(root),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} in {root}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def verdict(won, pairs, gap, iqr, iqr_share, bound):
    """The gain rule: at least 9 of 10 pairs won and a median gap, in the
    better direction, wider than the parent's IQR."""
    if won * 10 >= 9 * pairs and gap > iqr:
        return "gain"
    return "unresolved" if iqr_share > bound else "no gain"


def judge(workload, metric, runs):
    """Prints one metric's row; returns a failure message or None."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    parent = [value(r["parent"], name) for r in runs]
    change = [value(r["change"], name) for r in runs]
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum(r > 1 if higher else r < 1 for r in ratios)
    ratio = statistics.median(ratios)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    limit = f"{'>=' if higher else '<='} {1 - bound if higher else 1 + bound:.2f}"
    worse = ratio < 1 - bound if higher else ratio > 1 + bound
    gap = c_med - p_med if higher else p_med - c_med
    gain = verdict(won, len(runs), gap, q3 - q1, (q3 - q1) / p_med, bound)
    print(f"  {name:<20} {p_med:>14.6g} {c_med:>14.6g} "
          f"{q3 - q1:>11.4g} {(q3 - q1) / p_med:>6.1%} {won:>4}/{len(runs):<3} "
          f"{ratio:>7.3f}  {limit}  {'WORSE' if worse else 'ok':<5}  {gain}")
    if worse:
        return f"{workload} {name}: median pair ratio {ratio:.3f}, bound {limit}"
    return None


def main():
    argv = sys.argv[1:]
    run_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, run_args = argv[:cut], argv[cut + 1:]
    if len(argv) != 2:
        fail("usage: perf_pairs.py PARENT CHANGE [-- RUN_ARGS...]", 2)
    roots = dict(zip(SIDES, (os.path.abspath(a) for a in argv)))
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            fail(f"no perfbench/run.py under {root}", 2)
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    for side in SIDES:
        build(roots[side])
    pin = pin_prefix()
    print(f"perf_pairs: {PAIRS} alternating pairs per workload, "
          f"run.py {' '.join(run_args) or '(defaults)'}, "
          f"{'pinned with taskset -c 1' if pin else 'not pinned'}", flush=True)

    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run_once(roots[side], w, run_args, pin)
                if result.get("correct") is not True or result.get("failed") != 0:
                    fail(f"{w} pair {i + 1}, {side}: \"correct\": {result.get('correct')}, "
                         f"\"failed\": {result.get('failed')}")
                pair[side] = result
            runs.append(pair)
            ratios = " ".join(f"{n} {value(pair['change'], n) / value(pair['parent'], n):.3f}"
                              for n in (m["name"] for m in spec["end_to_end"]))
            print(f"  {w} pair {i + 1}/{PAIRS}, {order[0]} first, change/parent: {ratios}",
                  flush=True)
        print(f"{w}:\n  {'metric':<20} {'parent median':>14} {'change median':>14} "
              f"{'parent IQR':>18}  {'won':>7} {'ratio':>7}  bound          verdict")
        for metric in spec["end_to_end"]:
            msg = judge(w, metric, runs)
            if msg:
                failures.append(msg)

    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"perf_pairs: {'FAILED' if failures else 'passed'}: every run correct; "
          f"{len(failures)} metric(s) worse than their bound")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
