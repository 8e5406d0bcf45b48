"""Self-tests of the benchmark: its checks must be able to fail.

    python3 -m pytest -q perfbench/tests

The pinned-count test runs the traced enumerate workload (about a minute).
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import ringspace as rs

import harness
import tracing
import wl_enumerate
from harness import Bench, CapHit, Op

ROOT = harness.ROOT


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    z6 = rs.parse_ring("Z6")
    right = rs.count_subspaces
    monkeypatch.setattr(rs, "count_subspaces", lambda m, n, ring: right(m, n, ring) + 1)
    bench = Bench()
    bench.run(wl_enumerate._subspace_job("points Z6^2", 1, 2, z6))
    assert bench.failed == 1
    assert bench.details()["error_rate"] > 0
    assert "wrong result" in bench.failures[0]


def test_unexpected_and_missing_exceptions_fail():
    bench = Bench()
    bench.run(Op("raises", lambda: rs.parse_ring("Z1")))
    bench.run(Op("should raise", lambda: 1, raises=rs.RingParseError))
    bench.run(Op("expected raise", lambda: rs.parse_ring("Z1"), raises=rs.RingParseError))
    assert (bench.attempted, bench.failed) == (3, 2)


def test_cap_hit_names_the_phase():
    def on_alarm(signum, frame):
        raise CapHit("wall-clock cap")

    old = signal.signal(signal.SIGALRM, on_alarm)
    bench = Bench()
    bench.phase = "round 7"
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        try:
            bench.run(Op("hang", lambda: time.sleep(5)))
        except CapHit:
            pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert bench.failed == 1
    assert bench.failures[0].startswith("[round 7] hang")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in harness.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, _ in harness.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in tracing.metric_specs()]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert '"correct"' not in r.stdout


def test_traced_enumerate_reproduces_pinned_counts():
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = r.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert details["calls_identical"]
    by_slot = details["zps.rref_unit calls by slot"]
    # The unit-pivot RREF calls of the baseline enumerator: 658,800 for the
    # 4,550 2-subspaces of Z6^4 and 213,304 for the 364 of Z12^3.
    assert by_slot["anchor 2-subspaces Z6^4"] == 658_800
    assert by_slot["anchor 2-subspaces Z12^3"] == 213_304
    assert rs.count_subspaces(2, 4, rs.parse_ring("Z6")) == 4_550
    assert rs.count_subspaces(2, 3, rs.parse_ring("Z12")) == 364
    assert set(result["metrics"]) == {n for n, _, _ in tracing.metric_specs()}
