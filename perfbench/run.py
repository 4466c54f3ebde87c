#!/usr/bin/env python3
"""Builds and runs the DMX simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py [--workload sweep|robust|fleet] [--seed N]
                             [--seconds S] [--trace 0|1]

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path, into $CARGO_TARGET_DIR
(default .bench_build). Without --workload it runs all three workloads,
one process each. The last line of standard output is the JSON result
of the last workload run. Exits non-zero, without a result, when the
build or a run fails. perfbench/README.md describes the workloads and
the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "robust", "fleet"]
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """How long one workload process may take: its measured seconds, a
    final round of passes that may start just before they run out
    (a traced round repeats every pass), and the fleet shard probe."""
    return seconds * 2 + 110


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, what, **kw):
    """Runs `cmd` in its own process group and waits for it. On timeout
    the whole group (cargo's rustc children included) is killed and
    reaped before failing."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{what} timed out after {timeout} s")
    return proc.returncode, out


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no simulator sources under {ROOT}/crates; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, "build", env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed with exit code {code}")
    return os.path.join(target, "release", "dmx-perfbench")


def expected_metrics(trace):
    """Names and units BENCHMARK.json lists for a traced or untraced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_group(cmd, run_timeout_s(args.seconds), workload,
                          stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail(f"{workload}: exit code {code}")
    result = json.loads(lines[-1])
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = expected_metrics(args.trace == 1)
    if got != want:
        fail(f"{workload}: metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")
    for line in lines:
        print(line, flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    for workload in [args.workload] if args.workload else WORKLOADS:
        run_one(binary, workload, args)


if __name__ == "__main__":
    main()
