"""Timing, drift control, checking and metric assembly shared by the workloads.

Every timed library call goes through ``Bench.run``.  Samples of the
reference loop (``refloop.ref_loop``) are interleaved through the run, and
each call's time is reported scaled by ``REF_NOMINAL_S / local_ref``, the
median of the samples around it; a child process is scaled by a reference
interpreter start run right before it instead.  Every result is checked; a
wrong result, an unexpected exception or a cap hit is a failed operation.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from refloop import ref_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds one ref_loop() takes on the reference machine (2-core Xeon VM,
# Python 3.11).  Normalised times read as seconds on that machine.
REF_NOMINAL_S = 0.011
# A child process is normalised by a reference child started right before
# it instead: an interpreter that imports the standard modules ringspace.cli
# imports.  Across fresh processes a `ring info` moved by about 10% against
# the loop above, 3% against a bare `python3 -c pass`, and 1% against this.
START_REF_ARGV = [sys.executable, "-c", "import argparse, dataclasses, itertools, json, re, typing"]
# Wall seconds of START_REF_ARGV on the reference machine.
START_REF_NOMINAL_S = 0.080
REF_EVERY_S = 0.25
REF_WINDOW = 5

SETUP_REPEATS = 7
COLD_START_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 60

CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_start_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("subspaces_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("search_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class CapHit(Exception):
    """Raised when the run's wall-clock cap passes; ``recorded`` once counted."""

    recorded = False


@dataclass
class Op:
    """One library call plus the check its result must pass.

    ``raises`` marks an expected exception type: the op passes only when the
    call raises it.  ``op`` ops count in latency and throughput; ``fixed``
    ops are the workload's seed-independent exhaustive jobs (``search_s``).
    ``subspaces`` counts the subspaces in the result of an op that returns
    some (``subspaces_per_s``).
    ``child`` ops run one child process and are normalised by a start
    reference (START_REF_ARGV).
    """

    slot: str
    call: Callable[[], object]
    check: Callable[[object], bool] | None = None
    raises: type | tuple | None = None
    subspaces: Callable[[object], int] | None = None
    op: bool = True
    fixed: bool = False
    child: bool = False


@dataclass
class Sample:
    slot: str
    t0: float
    t1: float
    raw_s: float
    op: bool
    fixed: bool
    subspaces: int | None  # None: the op returns no subspaces
    start_ref_s: float | None  # the start reference before a child op


class Bench:
    """Runs and records ops.  ``tick`` is the SIGALRM handler of a run.

    The alarm fires every REF_EVERY_S of wall time.  Each tick enforces the
    run's deadline and, when ``sample`` is set, takes one reference sample,
    also in the middle of a long library call; an op's time excludes the
    reference samples taken inside it.  Child processes run with the alarm
    blocked, so their samples land between invocations.
    """

    def __init__(self, tracer=None, deadline: float = float("inf"), sample: bool = True):
        self.tracer = tracer
        self.deadline = deadline
        self.sample = sample
        self.refs: list[tuple[float, float]] = []
        self.in_op = False
        self.ticking = False
        self.op_ref_s = 0.0
        self.samples: list[Sample] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.phase = "setup"
        self.rref_by_slot: dict[str, int] = {}

    # -- drift control -------------------------------------------------------

    def tick(self) -> None:
        if time.perf_counter() > self.deadline:
            raise CapHit("wall-clock cap")
        if self.sample and not self.ticking:
            self.ticking = True
            try:
                took = self.ref()
            finally:
                self.ticking = False
            if self.in_op:
                self.op_ref_s += took

    def ref(self) -> float:
        t0 = time.perf_counter()
        ref_loop()
        t1 = time.perf_counter()
        self.refs.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def factor(self, s: Sample) -> float:
        """Nominal time over the reference time measured around the op.

        For a child op: its start reference.  For an in-process op: the median of
        the loop samples within REF_EVERY_S of it, or, if fewer than
        REF_WINDOW, of the REF_WINDOW nearest.
        """
        if s.start_ref_s is not None:
            return START_REF_NOMINAL_S / s.start_ref_s
        near = [d for m, d in self.refs if s.t0 - REF_EVERY_S <= m <= s.t1 + REF_EVERY_S]
        if len(near) < REF_WINDOW:
            mids = [m for m, _ in self.refs]
            i = bisect.bisect_left(mids, (s.t0 + s.t1) / 2)
            lo = max(0, min(i - REF_WINDOW // 2, len(mids) - REF_WINDOW))
            near = [d for _, d in self.refs[lo : lo + REF_WINDOW]]
        return REF_NOMINAL_S / statistics.median(near)

    # -- operations ----------------------------------------------------------

    def fail(self, slot: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"[{self.phase}] {slot}: {why}")

    def run(self, op: Op) -> object:
        """Time one call, check it, record it; returns the result (or None)."""
        start_ref_s = None
        if op.child:
            t0 = time.perf_counter()
            _spawn(START_REF_ARGV)
            start_ref_s = time.perf_counter() - t0
        self.attempted += 1
        exc = res = None
        tracer = self.tracer
        if tracer is not None:
            rref_before = tracer.calls("zps.rref_unit")
            tracer.on = True
        self.op_ref_s = 0.0
        self.in_op = True
        t0 = time.perf_counter()
        try:
            res = op.call()
        except CapHit as e:
            self.fail(op.slot, "wall-clock cap hit")
            e.recorded = True
            raise
        except Exception as e:  # judged below: expected or a failure
            exc = e
        finally:
            t1 = time.perf_counter()
            self.in_op = False
            if tracer is not None:
                tracer.on = False
                rref = tracer.calls("zps.rref_unit") - rref_before
                self.rref_by_slot[op.slot] = self.rref_by_slot.get(op.slot, 0) + rref
        why = self._judge(op, res, exc)
        if why is not None:
            self.fail(op.slot, why)
            return None
        n = op.subspaces(res) if op.subspaces is not None and exc is None else None
        raw = t1 - t0 - self.op_ref_s
        self.samples.append(Sample(op.slot, t0, t1, raw, op.op, op.fixed, n, start_ref_s))
        return res

    @staticmethod
    def _judge(op: Op, res, exc) -> str | None:
        if exc is not None:
            if op.raises is not None and isinstance(exc, op.raises):
                return None
            return f"unexpected {type(exc).__name__}: {exc}"
        if op.raises is not None:
            return f"expected {op.raises} but the call returned"
        if op.check is None:
            return None
        try:
            ok = op.check(res)
        except CapHit:
            raise
        except Exception as e:  # a malformed result can break its check
            return f"check raised {type(e).__name__}: {e}"
        return None if ok else "wrong result"

    # -- metrics -------------------------------------------------------------

    def normalised(self) -> list[tuple[Sample, float]]:
        while len(self.refs) < REF_WINDOW:
            self.ref()
        return [(s, s.raw_s * self.factor(s)) for s in self.samples]

    def summary(self, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
        """The end-to-end metrics, from per-slot medians of normalised times.

        A slot is one operation on one kind of input, run once per round.
        Latency percentiles count each sample at its slot's median: samples
        of a slot cluster tightly, so a raw percentile falls between two
        clusters and would be set by one extreme sample of each.
        """
        norm = self.normalised()
        by_slot: dict[str, list[float]] = {}
        fixed: dict[str, list[float]] = {}
        subs: dict[str, list[tuple[int, float]]] = {}
        for s, t in norm:
            if s.op:
                by_slot.setdefault(s.slot, []).append(t)
            if s.fixed:
                fixed.setdefault(s.slot, []).append(t)
            if s.subspaces is not None:
                subs.setdefault(s.slot, []).append((s.subspaces, t))
        med = {slot: statistics.median(v) for slot, v in by_slot.items()}
        round_s = sum(med.values())
        subs_per_s = sum(statistics.mean(n for n, _ in v) for v in subs.values()) / sum(
            statistics.median(t for _, t in v) for v in subs.values()
        )
        lat = [med[slot] for slot, v in by_slot.items() for _ in v]
        cold = [t for s, t in norm if s.slot == "ring info"]
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {
            "setup_s": setup_s,
            "cold_start_ms": statistics.median(cold) * 1e3,
            "ops_per_s": len(by_slot) / round_s,
            "subspaces_per_s": subs_per_s,
            "latency_p50_ms": q[49] * 1e3,
            "latency_p90_ms": q[89] * 1e3,
            "latency_p99_ms": q[98] * 1e3,
            "search_s": sum(statistics.median(v) for v in fixed.values()),
            "peak_rss_mb": peak_rss_mb,
        }

    def details(self) -> dict:
        refs = [s for _, s in self.refs]
        starts = [s.start_ref_s for s in self.samples if s.start_ref_s is not None]
        ops = [s for s in self.samples if s.op]
        by_slot: dict[str, list[float]] = {}
        for s, t in self.normalised():
            by_slot.setdefault(s.slot, []).append(t)
        return {
            "median_ms_by_slot": {k: statistics.median(v) * 1e3 for k, v in sorted(by_slot.items())},
            "error_rate": self.failed / max(self.attempted, 1),
            "failures": self.failures,
            "op_samples": len(ops),
            "op_slots": len({s.slot for s in ops}),
            "ref_samples": len(refs),
            "ref_median_ms": statistics.median(refs) * 1e3 if refs else None,
            "ref_min_ms": min(refs) * 1e3 if refs else None,
            "ref_max_ms": max(refs) * 1e3 if refs else None,
            "start_ref_median_ms": statistics.median(starts) * 1e3 if starts else None,
        }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- set-up -------------------------------------------------------------------


def import_ms() -> float:
    """Median in-process time of `import ringspace.cli` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import ringspace.cli; "
        "print(time.perf_counter() - t)"
    )
    return 1e3 * statistics.median(
        float(_stdout([sys.executable, "-c", code])) for _ in range(SETUP_REPEATS)
    )


def bare_start_ms() -> float:
    """Median wall time of `python3 -c pass`."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _stdout([sys.executable, "-c", "pass"])
        walls.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(walls)


def _stdout(argv: list[str]) -> str:
    """Stdout of a child process that must succeed."""
    r = _spawn(argv)
    if r.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {r.stderr.decode().strip()}")
    return r.stdout.decode()


def measure_setup(specs: list[str]) -> float:
    """Median drift-normalised import-plus-parse time of fresh interpreters.

    One unmeasured probe first, so byte-code caches exist before timing.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), *specs]
    values = []
    for i in range(SETUP_REPEATS + 1):
        out = json.loads(_stdout(argv))
        if i:
            values.append(out["setup_s"] * REF_NOMINAL_S / statistics.mean(out["refs"]))
    return statistics.median(values)


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion with the alarm held until it has exited."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return subprocess.run(
            argv, env=CHILD_ENV, cwd=ROOT, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise CapHit(f"{argv[1:4]} ran past {SUBPROCESS_TIMEOUT_S}s") from None
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def run_child(argv: list[str]) -> tuple[int, bytes]:
    """Run one child process: (exit code, stdout)."""
    r = _spawn(argv)
    return r.returncode, r.stdout


def ring_info_ok(ring, doc: dict) -> bool:
    """A `ring info` document agrees with the library's view of the ring."""
    from ringspace import count_gl

    return (
        doc["order"] == str(ring.order)
        and doc["units"] == str(ring.unit_count)
        and doc["gl2"] == str(count_gl(2, ring))
        and [(c["prime"], c["exponent"]) for c in doc["components"]]
        == [(c.prime, c.exponent) for c in ring.components]
    )


def measure_cold_start(bench: Bench, specs: list[str]) -> None:
    """Fresh `ringspace ring info` processes, as slot "ring info" (not ops)."""
    from ringspace import parse_ring

    for i in range(COLD_START_REPEATS):
        spec = specs[i % len(specs)]
        argv = [sys.executable, "-m", "ringspace.cli", "ring", "info", "--ring", spec]
        bench.run(Op(
            "ring info",
            lambda: run_child(argv),
            lambda res, ring=parse_ring(spec): res[0] == 0 and ring_info_ok(ring, json.loads(res[1])),
            op=False,
            child=True,
        ))
