"""Run one workload in this fresh interpreter and print one JSON object.

Started by run.py, which owns the command line contract:
  python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE CAP_S BASELINE
CAP_S is the wall-clock cap: when it passes, the phase running is reported
as a failed operation.  BASELINE=1 (trace mode only) first runs the same
work untraced, for trace.overhead_ratio.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import harness
from harness import Bench, CapHit

sys.path.insert(0, str(harness.SRC))

import ringspace  # noqa: E402

import wl_algebra  # noqa: E402
import wl_cli  # noqa: E402
import wl_enumerate  # noqa: E402
import wl_geometry  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = {
    "enumerate": wl_enumerate,
    "algebra": wl_algebra,
    "geometry": wl_geometry,
    "cli": wl_cli,
}


def run_ops(bench: Bench, wl, state, seconds: float | None = None, rounds: int | None = None) -> int:
    """Whole rounds until the time or round count is up, with the fixed ops.

    The fixed ops run FIXED_REPEATS times: once first, then once after each
    round, and any passes left after the last round; spread out so that one
    noisy moment cannot set their median.
    """
    start = time.perf_counter()
    passes = 0

    def fixed_pass():
        nonlocal passes
        bench.phase = f"fixed {passes}"
        for op in wl.fixed_ops(state):
            bench.run(op)
        passes += 1

    fixed_pass()
    i = 0
    while True:
        bench.phase = f"round {i}"
        for op in wl.round_ops(state, i):
            bench.run(op)
        i += 1
        done = (rounds is not None and i >= rounds) or (
            seconds is not None and time.perf_counter() - start >= seconds
        )
        if passes < wl.FIXED_REPEATS and not done:
            fixed_pass()
        if done:
            break
    while passes < wl.FIXED_REPEATS:
        fixed_pass()
    return i


def timed(wl, seed: int, seconds: float, deadline: float, active: list) -> dict:
    bench = Bench(deadline=deadline)
    active.append(bench)
    setup_s = harness.measure_setup(list(wl.RINGS))
    harness.measure_cold_start(bench, list(wl.RINGS))
    bench.phase = "inputs"
    state = wl.prepare(seed)
    rounds = run_ops(bench, wl, state, seconds=seconds)
    metrics = bench.summary(setup_s, wl.PEAK_RSS())
    return {"metrics": metrics, "details": {"rounds": rounds, **state["details"]}}


def traced_state(wl, seed: int) -> dict:
    state = wl.prepare(seed)
    # Traced, the cli workload replays its corpus in-process through cli.main.
    state["inprocess"] = True
    return state


def raw_seconds(bench: Bench) -> float:
    return sum(s.raw_s for s in bench.samples)


def traced(wl, seed: int, baseline: bool, deadline: float, active: list) -> dict:
    """Per-layer metrics.  Reference samples would land inside traced spans,
    so this mode takes none; the overhead ratio compares raw times."""
    base_s = None
    if baseline:
        bench0 = Bench(deadline=deadline, sample=False)
        active.append(bench0)
        run_ops(bench0, wl, traced_state(wl, seed), rounds=wl.TRACE_ROUNDS)
        base_s = raw_seconds(bench0)
    tracer = Tracer()
    tracer.install()
    bench = Bench(tracer, deadline=deadline, sample=False)
    active.append(bench)
    state = traced_state(wl, seed)
    run_ops(bench, wl, state, rounds=wl.TRACE_ROUNDS)
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = harness.import_ms()
    metrics["python.bare_start_ms"] = harness.bare_start_ms()
    metrics["trace.overhead_ratio"] = raw_seconds(bench) / base_s if base_s else None
    details = {
        "zps.rref_unit calls by slot": bench.rref_by_slot,
        "enumerate_subspaces results": tracer.enum_results,
        **state["details"],
    }
    return {"metrics": metrics, "details": details}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, cap_s, baseline = argv
    wl = WORKLOADS[workload]
    src = Path(ringspace.__file__).resolve().parent.parent
    if src != harness.SRC:
        print(f"ringspace imported from {src}, not {harness.SRC}", file=sys.stderr)
        return 1
    active: list[Bench] = []
    deadline = time.perf_counter() + float(cap_s)

    def on_alarm(signum, frame):
        if active:
            active[-1].tick()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, harness.REF_EVERY_S, harness.REF_EVERY_S)
    out = {"metrics": {}, "details": {}}
    try:
        if trace == "1":
            out = traced(wl, int(seed), baseline == "1", deadline, active)
        else:
            out = timed(wl, int(seed), float(seconds), deadline, active)
    except CapHit as e:
        if not e.recorded:
            active[-1].fail(active[-1].phase, "wall-clock cap hit")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    attempted = sum(b.attempted for b in active)
    failed = sum(b.failed for b in active)
    details = {**out["details"], **active[-1].details()}
    details["failures"] = [f for b in active for f in b.failures]
    details["error_rate"] = failed / max(attempted, 1)
    print(json.dumps({
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": out["metrics"],
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
