#!/usr/bin/env python3
"""Smoke check for the name-server benchmark.

    python3 perfbench/smoke.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
fails unless each run exits 0, its correctness checks pass, its last
line is a result object carrying exactly the metrics BENCHMARK.json
names for that mode (end_to_end untraced, per_layer traced) with their
units, and the run is stamped with core count, OCaml version, revision
and sample counts.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(bench, workload, trace, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return problems + ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correctness checks failed")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"attempted={result.get('attempted')} failed={result.get('failed')}")
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r}")
    stamps = [l for l in lines if l.startswith("stamp ")]
    if not stamps:
        problems.append("no stamp line")
    else:
        stamp = json.loads(stamps[-1][len("stamp "):])
        for key in ("nproc", "ocaml", "rev", "samples"):
            if key not in stamp:
                problems.append(f"stamp lacks {key}")
    if "checks: answers ok, acknowledged writes ok, durability after crash ok" not in proc.stdout:
        problems.append("a correctness check did not report ok")
    if trace and "unattributed" not in proc.stdout:
        problems.append("traced run printed no blocking-path breakdown")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace, args.seconds)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:14s} trace={trace}  {status}", flush=True)
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    print("smoke check " + ("passed" if failures == 0 else f"failed ({failures} runs)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
