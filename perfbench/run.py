"""Run one ringspace benchmark workload and print its result.

    python3 perfbench/run.py --workload {enumerate,algebra,geometry,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh interpreter with
a fixed PYTHONHASHSEED; with --trace 1 it runs twice, one after the other,
and every call count must agree between the two.  The line before the last
is a JSON object with the run context and details; the last line is the
result: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["enumerate", "algebra", "geometry", "cli"]
# Whole-run wall-clock cap; the worker gets what is left, minus a margin to
# report the phase it was in.
CAP_S = 170
WORKER_MARGIN_S = 10


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, started: float, baseline: bool) -> dict:
    left = CAP_S - (time.monotonic() - started)
    argv = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(left - WORKER_MARGIN_S),
        "1" if baseline else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        r = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        return {
            "attempted": 1, "failed": 1, "metrics": {},
            "details": {"failures": ["worker killed at the wall-clock cap"]},
        }
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        raise SystemExit(f"worker failed with exit code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not (ROOT / "src" / "ringspace" / "__init__.py").is_file():
        print(f"no ringspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pythonhashseed": "0",
    }
    first = run_worker(args, started, baseline=True)
    attempted, failed = first["attempted"], first["failed"]
    metrics = first["metrics"]
    details = first["details"]
    if args.trace:
        second = run_worker(args, started, baseline=False)
        attempted += second["attempted"]
        failed += second["failed"]
        details["failures"] += second["details"]["failures"]
        calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
        again = {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
        details["calls_identical"] = calls == again
        if calls != again:
            failed += 1
            diff = sorted(k for k in calls.keys() | again.keys() if calls.get(k) != again.get(k))
            details["failures"].append(f"call counts differ between two runs: {diff[:10]}")
        for k, v in second["metrics"].items():
            if k.endswith(".self_s") and k in metrics:
                metrics[k] = (metrics[k] + v) / 2
    specs = tracing.metric_specs() if args.trace else harness.END_TO_END
    missing = [name for name, _, _ in specs if metrics.get(name) is None]
    if missing and not failed:
        failed = 1
        details["failures"].append(f"metrics not measured: {missing}")
    context["wall_s"] = time.monotonic() - started
    print(json.dumps({"context": context, "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in specs
            if metrics.get(name) is not None
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
