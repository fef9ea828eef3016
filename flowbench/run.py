#!/usr/bin/env python3
"""Paper-scale flow benchmark: builds flowbench from the repository's sources
(on first use) and runs one workload in one process.

    python3 flowbench/run.py --workload table_b --seed 1 --seconds 36 --trace 0

Run it from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the self-time
table of a --trace 1 run comes before it. Build output and per-flow progress
go to standard error. The build and the traces live in .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flowbench")
BINARY = os.path.join(BUILD_DIR, "flowbench")
# A run must end within 180 s; a hung flow counts as failed at this limit.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr, check=True)


def failure_result(args, completed_ops):
    """Result line for a run whose program aborted or hung: the operation in
    flight failed. Metric values are placeholders; correct is false."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    return {
        "correct": False,
        "attempted": completed_ops + 1,
        "failed": 1,
        "metrics": {m["name"]: {"value": 0, "unit": m["unit"]} for m in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="paper_suite(0.15)-sized designs, for the benchmark's own test")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"flowbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}{suffix}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        stdout, stderr, code = e.stdout or "", e.stderr or "", None
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        stderr = stderr.decode() if isinstance(stderr, bytes) else stderr
    sys.stderr.write(stderr)
    if code == 2:
        return 2  # usage error, already explained on stderr
    if stdout:
        print(stdout.rstrip("\n"))
    if code == 0 and stdout:
        return 0
    print(f"flowbench: program ended with {'a timeout' if code is None else f'code {code}'}",
          file=sys.stderr)
    # Each completed flow or mutant check logs "flowbench: done ...".
    completed = sum(1 for line in stderr.splitlines() if line.startswith("flowbench: done "))
    print(json.dumps(failure_result(args, completed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
