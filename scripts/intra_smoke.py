#!/usr/bin/env python3
"""Driver for the CI `intra-smoke` job: intra-instance forks.

Three checks. The first two use the committed many-component fixture
(`tests/fixtures/intra_many_components.json`, 12 balanced
fully-overlapping clusters — the shape the component fork is built
for):

* `speedup` — `busytime-cli solve` runs on the main thread, so
  `--parallel on` with `BUSYTIME_WORKERS=2` forks the solve across both
  pool workers. Requires min-of-RUNS parallel wall time to be at least
  SPEEDUP_MIN (1.5) times faster than `--parallel off`, and
  first verifies the two reports are byte-identical once the wall-clock
  fields (`phases`, `total_ms`) are dropped — the speedup must be
  invisible in the answer.

* `saturated` — streams a batch of fixture records through
  `busytime-cli serve --workers 2` twice: once plain, once with every
  record carrying `"parallel": "on"`. Six records keep both workers
  busy. Each record's component fork is caller-participating: the
  record's own worker claims components, and the helper tasks it offers
  queue behind the other records' work, so a helper either joins a fork
  still open when a worker frees up or finds it closed and returns. The
  explicit policy can thus only move work between two busy workers,
  never add any: responses stay byte-identical modulo wall-clock fields,
  and the `on` pass must not exceed the plain pass by more than SLACK
  (1.35, pure timing noise allowance).

* `serving` — sends one 80k-job `uniform` generator record alone to
  `busytime-cli serve --workers 2`, once with the default policy and once
  with `"parallel": "off"` (FIXTURE is unused). The record's runner is a
  pool worker and the other worker is idle, so the default policy must
  fork FirstFit's stages onto it: responses byte-identical modulo
  wall-clock fields, the fastest default pass's schedule phase reporting
  `(2 lanes)`, and the default pass's solve at least SERVING_MIN (1.4)
  times faster, min of RUNS. With `"parallel": "off"` FirstFit runs its
  job-major loop, which is a little slower alone than the staged pass, so
  the ratio alone would not tell a two-lane fork from a one-lane staged
  pass reliably; the lane count does. The solve time is the record's
  own `total_ms`: around it, each pass spends about 30 ms on one thread
  under either policy (process start, generating, hashing and detecting
  80k jobs, writing the answer), which would cap the whole-process ratio
  near 1.4 even for a perfect two-lane fork. Process wall times are
  printed alongside.

Usage: intra_smoke.py CLI FIXTURE speedup|saturated|serving
Exits non-zero (with a message on stderr) on any violation.
"""
import json
import os
import subprocess
import sys
import time

RUNS = 3
SPEEDUP_MIN = 1.5
SLACK = 1.35
SERVING_MIN = 1.4
SERVING_RECORD = {"generator": {"family": "uniform", "n": 80000, "g": 3, "seed": 11},
                  "solver": "first-fit"}
SATURATED_RECORDS = 6


def fail(msg):
    print(f"intra_smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def timeless(report):
    """Drop the only wall-clock fields a report carries."""
    report = dict(report)
    report.pop("phases", None)
    report.pop("total_ms", None)
    return report


def solve_cmd(cli, fixture, policy, workers):
    env = dict(os.environ, BUSYTIME_WORKERS=str(workers))
    return dict(
        args=[cli, "solve", "--input", fixture, "--solver", "first-fit",
              "--parallel", policy, "--json"],
        env=env,
    )


def run_json(cmd):
    out = subprocess.run(
        cmd["args"], env=cmd["env"], check=True, capture_output=True
    )
    return json.loads(out.stdout)


def min_wall(cmd):
    best = None
    for _ in range(RUNS):
        start = time.monotonic()
        subprocess.run(
            cmd["args"], env=cmd["env"], check=True, capture_output=True
        )
        elapsed = time.monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def check_speedup(cli, fixture):
    seq = solve_cmd(cli, fixture, "off", 2)
    par = solve_cmd(cli, fixture, "on", 2)
    seq_report, par_report = run_json(seq), run_json(par)
    if timeless(seq_report) != timeless(par_report):
        fail("parallel and sequential reports differ beyond wall-clock fields")
    print("reports byte-identical modulo phases/total_ms")
    seq_s, par_s = min_wall(seq), min_wall(par)
    ratio = seq_s / par_s
    print(f"sequential {seq_s * 1e3:.1f} ms, "
          f"2-worker fork {par_s * 1e3:.1f} ms -> {ratio:.2f}x "
          f"(min of {RUNS})")
    if ratio < SPEEDUP_MIN:
        fail(f"fork speedup {ratio:.2f}x below the {SPEEDUP_MIN}x gate")


def serve_pass(cli, payload, raw=None):
    """Wall seconds and timeless reports of one `serve` run; appends each
    record's full report to `raw` when given."""
    start = time.monotonic()
    out = subprocess.run(
        [cli, "serve", "--workers", "2"],
        input=payload, check=True, capture_output=True,
    )
    elapsed = time.monotonic() - start
    reports = []
    for line in out.stdout.splitlines():
        response = json.loads(line)
        if not response.get("ok"):
            fail(f"record failed: {response}")
        if raw is not None:
            raw.append(response["report"])
        reports.append(timeless(response["report"]))
    return elapsed, reports


def check_saturated(cli, fixture):
    with open(fixture, "r", encoding="utf-8") as fh:
        inst = json.load(fh)
    record = {"instance": {"g": inst["g"], "jobs": inst["jobs"]},
              "solver": "first-fit"}
    plain = b"".join(
        json.dumps(dict(record, id=f"plain-{i}")).encode() + b"\n"
        for i in range(SATURATED_RECORDS)
    )
    forked = b"".join(
        json.dumps(dict(record, id=f"on-{i}", parallel="on")).encode() + b"\n"
        for i in range(SATURATED_RECORDS)
    )
    plain_s, plain_reports = serve_pass(cli, plain)
    forked_s, forked_reports = serve_pass(cli, forked)
    if len(plain_reports) != SATURATED_RECORDS:
        fail(f"expected {SATURATED_RECORDS} responses, got {len(plain_reports)}")
    if plain_reports != forked_reports:
        fail("saturated `parallel: on` batch changed some report")
    print(f"saturated batch: plain {plain_s * 1e3:.0f} ms, "
          f"parallel-on {forked_s * 1e3:.0f} ms "
          f"({SATURATED_RECORDS} records, 2 workers)")
    if forked_s > plain_s * SLACK:
        fail(f"`parallel: on` slowed the saturated batch beyond "
             f"{SLACK}x noise allowance")


def check_serving(cli):
    forked = json.dumps(dict(SERVING_RECORD, id="one")).encode() + b"\n"
    alone = json.dumps(dict(SERVING_RECORD, id="one", parallel="off")).encode() + b"\n"
    forked_raw, alone_raw, forked_wall, alone_wall = [], [], [], []
    for _ in range(RUNS):
        wall, forked_reports = serve_pass(cli, forked, forked_raw)
        forked_wall.append(wall)
        wall, alone_reports = serve_pass(cli, alone, alone_raw)
        alone_wall.append(wall)
        if len(forked_reports) != 1 or forked_reports != alone_reports:
            fail("the served record's report depends on its parallel policy")
    print("reports byte-identical modulo phases/total_ms")
    fastest = min(forked_raw, key=lambda r: r["total_ms"])
    lanes = [p["detail"] for p in fastest["phases"] if p["name"] == "schedule"]
    print(f"fastest default pass: schedule {lanes}")
    if not lanes or not lanes[0].endswith("(2 lanes)"):
        fail("the fastest default pass did not schedule on 2 lanes")
    forked_ms = [r["total_ms"] for r in forked_raw]
    alone_ms = [r["total_ms"] for r in alone_raw]
    ratio = min(alone_ms) / min(forked_ms)
    print(f"one 80k record on serve --workers 2, min of {RUNS}: "
          f"solve {min(alone_ms):.0f} ms with parallel off, "
          f"{min(forked_ms):.0f} ms by default -> {ratio:.2f}x; "
          f"process {min(alone_wall) * 1e3:.0f} ms -> {min(forked_wall) * 1e3:.0f} ms")
    if ratio < SERVING_MIN:
        fail(f"serving speedup {ratio:.2f}x below the {SERVING_MIN}x gate: "
             f"the record did not use the idle worker")


def main():
    modes = ("speedup", "saturated", "serving")
    if len(sys.argv) != 4 or sys.argv[3] not in modes:
        fail("usage: intra_smoke.py CLI FIXTURE speedup|saturated|serving")
    cli, fixture, mode = sys.argv[1:4]
    if mode == "speedup":
        check_speedup(cli, fixture)
    elif mode == "saturated":
        check_saturated(cli, fixture)
    else:
        check_serving(cli)


if __name__ == "__main__":
    main()
