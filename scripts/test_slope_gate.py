#!/usr/bin/env python3
"""Self-test for the slope_gate.py complexity gate.

Runs the gate on synthetic estimate files: a near-linear curve must pass;
a quadratic one, one whose endpoint slope passes while one adjacent pair
breaches, and a single-sample (`--test` smoke) one must fail, so a gate
that silently stops failing fails the build itself.

Usage: test_slope_gate.py   (no arguments; exits nonzero on any failure)
"""
import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(__file__), "slope_gate.py")
GROUP = "scalability/first_fit_sparse"


def run_gate(tmp, name, times, samples=10):
    path = os.path.join(tmp, f"{name}.ndjson")
    with open(path, "w") as f:
        for n, ns in times.items():
            f.write(json.dumps({"id": f"{GROUP}/{n}", "mode": "measure", "min_ns": ns,
                                "median_ns": ns, "mean_ns": ns, "samples": samples,
                                "iters_per_sample": 1}) + "\n")
        # another group's lines must be ignored
        f.write(json.dumps({"id": "scalability/first_fit/1000", "min_ns": 1.0,
                            "samples": 10}) + "\n")
    return subprocess.run([sys.executable, SCRIPT, path, GROUP, "--max", "1.5"],
                          capture_output=True, text=True)


def main():
    cases = [
        ("linear passes", {10_000: 5e6, 40_000: 21e6, 160_000: 90e6}, 10, 0),
        ("quadratic fails", {10_000: 5e6, 40_000: 80e6, 160_000: 1280e6}, 10, 1),
        # 10k -> 160k is slope 0.93, but 40k -> 160k is 1.79
        ("endpoint passes, one adjacent pair fails",
         {10_000: 5e6, 40_000: 5.5e6, 160_000: 66e6}, 10, 1),
        ("single-sample smoke fails", {10_000: 5e6, 160_000: 90e6}, 1, 1),
        ("one size fails", {10_000: 5e6}, 10, 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, times, samples, want) in enumerate(cases):
            got = run_gate(tmp, f"case{i}", times, samples)
            ok = (got.returncode != 0) == bool(want)
            if want:
                ok = ok and "::error::" in got.stderr
            print(f"{'ok' if ok else 'FAIL'}: {label}")
            if not ok:
                print(got.stdout + got.stderr)
                failed += 1
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
