#!/usr/bin/env python3
"""Fail when a bench group's runtime grows faster than n^MAX_SLOPE.

Reads the estimate lines a measuring bench run appends to
BUSYTIME_BENCH_JSON, keeps the ids `<group>/<n>`, and fits the log-log
slope between every pair of adjacent sizes from each size's minimum
timing. The minimum of several samples is the least noisy estimate of
the kernel's cost, and a slope is a shape check: a slower runner scales
every size alike, a quadratic splice does not. Every adjacent pair is
gated, not only smallest -> largest, so a curve that bends up at one end
cannot hide behind a flat stretch elsewhere. Exits nonzero when any
pair's slope exceeds --max, or when a size is missing or carries fewer
than --min-samples samples (a `--test` smoke run has one sample per
bench).

Usage:
  BUSYTIME_BENCH_JSON=est.ndjson cargo bench -p busytime-bench \\
      --bench bench_scalability -- first_fit_sparse
  slope_gate.py est.ndjson scalability/first_fit_sparse --max 1.5
"""
import argparse
import json
import math
import sys


def sizes(path, group):
    """{n: estimate} for every `<group>/<n>` line in an estimates file."""
    found = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            est = json.loads(line)
            prefix, _, param = est["id"].rpartition("/")
            if prefix == group and param.isdigit():
                found[int(param)] = est
    return found


def slope(points):
    """Log-log slope from the smallest to the largest size."""
    (n0, t0), (n1, t1) = points[0], points[-1]
    return math.log(t1 / t0) / math.log(n1 / n0)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("estimates", help="BUSYTIME_BENCH_JSON output (one JSON per line)")
    parser.add_argument("group", help="bench group id, e.g. scalability/first_fit_sparse")
    parser.add_argument("--max", type=float, required=True, help="largest allowed slope")
    parser.add_argument("--min-samples", type=int, default=5,
                        help="samples each size's minimum must come from (default 5)")
    args = parser.parse_args()

    found = sizes(args.estimates, args.group)
    if len(found) < 2:
        print(f"::error::{args.group}: need at least two sizes, found {sorted(found)}",
              file=sys.stderr)
        sys.exit(1)
    thin = [n for n, est in found.items() if est.get("samples", 0) < args.min_samples]
    if thin:
        print(f"::error::{args.group}: sizes {sorted(thin)} have fewer than "
              f"{args.min_samples} samples (run the bench without --test)", file=sys.stderr)
        sys.exit(1)

    points = sorted((n, found[n]["min_ns"]) for n in found)
    breaches = []
    for (n0, t0), (n1, t1) in zip(points, points[1:]):
        pair = slope([(n0, t0), (n1, t1)])
        print(f"{args.group}: {n0} -> {n1}: {t0 / 1e6:.2f} -> {t1 / 1e6:.2f} ms, "
              f"slope {pair:.2f} (max {args.max:.2f})")
        if pair > args.max:
            breaches.append((n0, n1, pair))
    print(f"{args.group}: slope {points[0][0]} -> {points[-1][0]} = {slope(points):.2f}")
    for n0, n1, pair in breaches:
        print(f"::error::{args.group} grows with slope {pair:.2f} > {args.max:.2f} "
              f"from {n0} to {n1}", file=sys.stderr)
    if breaches:
        sys.exit(1)


if __name__ == "__main__":
    main()
