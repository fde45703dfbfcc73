#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload and metric name in BENCHMARK.json matches
[A-Za-z0-9_.-]+ and is unique, then smoke-runs every workload at tiny
scale in both modes and checks that each run exits 0, reports correct
results, and emits exactly the declared metrics with their units.
"""

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SMOKE_LIMIT_S = 60


def check_names(bench):
    errors = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in bench[section]:
            name = item["name"]
            if not NAME.match(name):
                errors.append(f"{section}: bad name {name!r}")
            if name in seen:
                errors.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
    return errors


def smoke(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t0
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(metrics))}"
                      f" extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                      (int, float)):
            errors.append(f"{where}: {name} reported as {got}")
    if elapsed > SMOKE_LIMIT_S:
        errors.append(f"{where}: took {elapsed:.1f} s")
    print(f"{where}: {elapsed:.1f} s, {len(metrics)} metrics", flush=True)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = check_names(bench)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace, declared in modes.items():
            errors += smoke(w["name"], trace, declared)
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
