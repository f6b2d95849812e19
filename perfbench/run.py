#!/usr/bin/env python3
"""Build and run the busy-time service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0 --repeat 10

The first form builds the release `busytime-cli` and the benchmark binary
(`perfbench/`, a Cargo package of its own), then runs one measurement:
`--trace 0` drives the CLI end to end, `--trace 1` replays the same inputs
in-process with per-layer spans. The last line of stdout is the JSON
result; the exit code is non-zero on any incorrect answer.

`--repeat N` runs N measurements with seeds SEED, SEED+1, ... and prints each
metric's median and quartile spread (the distance between the first and
third quartile as a share of the median), the figures the bounds in
BENCHMARK.json are set from.

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); a traced run
writes its spans to `perfbench-out/trace-WORKLOAD.jsonl`, replacing the
previous run's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["--bin", "busytime-cli"], ["--manifest-path", "perfbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def measure(target, args, seed, capture):
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(target, "release", "busytime-cli"),
        "--out", "perfbench-out",
    ]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)


def repeat(target, args):
    runs = []
    for i in range(args.repeat):
        done = measure(target, args, args.seed + i, capture=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"run.py: seed {args.seed + i} failed")
        runs.append(result["metrics"])
        print(f"seed {args.seed + i}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {args.repeat} runs, trace {args.trace}")
    print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    for needed in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(needed):
            sys.exit(f"run.py: {needed} not found; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    if args.repeat:
        repeat(target, args)
    else:
        sys.exit(measure(target, args, args.seed, capture=False).returncode)


if __name__ == "__main__":
    main()
