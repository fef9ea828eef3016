#!/usr/bin/env python3
"""Smoke test of the flow benchmark.

    python3 flowbench/smoke_test.py

Runs every workload of BENCHMARK.json on the paper_suite(0.15)-sized designs,
once untraced and once traced, and asserts that the last output line parses,
reports a correct run, and names exactly the end-to-end (untraced) or
per-layer (traced) metrics of BENCHMARK.json with their units. Run it from the
repository root; it takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{where}: last line does not parse: {e}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct ({result.get('failed')} failed)")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append(f"{where}: attempted = {attempted!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) ^ set(metrics)):
        state = "missing" if name in expected else "unexpected"
        errors.append(f"{where}: metric {name} is {state}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}: {name} value {value!r} is not a number")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, workload["name"], trace)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
