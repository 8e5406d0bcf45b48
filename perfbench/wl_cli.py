"""cli: a seeded corpus of sequential `ringspace` invocations, one process each.

Why: this is the only workload for ``cli``, ``serialize`` and import cost;
each invocation pays interpreter start-up plus ``import ringspace``.  The
corpus covers every command group, expected domain errors (exit 1) and usage
errors (exit 2).  Each exit code and stdout is checked against the result of
the same library call made in-process, and the sha256 of each stdout is
recorded; an argument vector seen twice must print the same bytes.

The traced run replays the same corpus in-process through ``cli.main``, so
the ``cli`` and ``serialize`` layers show up in the trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys

import ringspace as rs
from ringspace import serialize

import gen
import harness
import wl_geometry
from harness import Op

RINGS = ["Z4", "Z6", "Z12", "Z18"]
POINT_SPACES = [("Z6", 3), ("Z12", 3)]
SEARCHES = [("arc", 3, "Z4"), ("cap", 3, "Z6")]
FIXED_REPEATS = 5
BUDGET = 10**7
TRACE_ROUNDS = 2
PEAK_RSS = harness.children_rss_mb


def prepare(seed: int) -> dict:
    rings = {spec: rs.parse_ring(spec) for spec in RINGS}
    points = {(spec, n): rs.enumerate_points(n, rings[spec], BUDGET) for spec, n in POINT_SPACES}
    return {
        "seed": seed,
        "rings": rings,
        "points": points,
        "inprocess": False,
        "details": {"stdout_sha256": {}},
    }


def _doc(obj):
    """The JSON document the CLI prints for a payload, read back."""
    return json.loads(serialize.dumps(obj))


def _op(state: dict, slot: str, args: list[str], expect, code: int = 0, **flags) -> Op:
    """One invocation; ``expect`` is the expected document or a predicate."""
    key = " ".join(args)
    digests = state["details"]["stdout_sha256"]

    def check(res) -> bool:
        got_code, out = res
        digest = hashlib.sha256(out).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return False
        if got_code != code:
            return False
        if code:
            return out == b""
        doc = json.loads(out)
        return expect(doc) if callable(expect) else doc == expect

    if state["inprocess"]:
        cli = importlib.import_module("ringspace.cli")

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = cli.main(args)
            return got, out.getvalue().encode()

        return Op(slot, call, check, **flags)
    argv = [sys.executable, "-m", "ringspace.cli", *args]
    return Op(slot, lambda: harness.run_child(argv), check, child=True, **flags)


def fixed_ops(state: dict) -> list[Op]:
    ops = []
    for kind, n, spec in SEARCHES:
        ring = state["rings"][spec]
        formula = rs.max_arc_size_formula if kind == "arc" else rs.max_cap_size_formula
        want = formula(n, ring)

        def check(doc, kind=kind, ring=ring, n=n, want=want) -> bool:
            pts = rs.PointSet.from_rows(ring, doc["points"]).points
            return doc["size"] == want and wl_geometry.is_set(kind, list(pts), ring, n)

        args = [kind, "search", "-n", str(n), "--ring", spec, "--budget", str(BUDGET)]
        ops.append(_op(state, f"{kind} search {spec}^{n}", args, check, op=False, fixed=True))
    return ops


def _mjson(m) -> str:
    return json.dumps(serialize.matrix_to_json(m))


def round_ops(state: dict, i: int) -> list[Op]:
    rng = gen.rng_for("cli", state["seed"], i)
    rings = state["rings"]
    ops = []

    def add(slot, args, expect, code=0, subspaces=None):
        count = None if subspaces is None else (lambda res: subspaces)
        ops.append(_op(state, slot, args, expect, code, subspaces=count))

    for _ in range(3):
        spec = rng.choice(RINGS)
        add("ring info", ["ring", "info", "--ring", spec], lambda doc, ring=rings[spec]: harness.ring_info_ok(ring, doc))

    spec = rng.choice(RINGS)
    ring = rings[spec]
    n = rng.randint(2, 4)
    m = rng.randint(1, n - 1)
    low = gen.low_rank(rng, ring, n, n, rng.randint(0, n - 1))
    full = gen.full_rank(rng, ring, m, n)
    square = gen.full_rank(rng, ring, n, n)
    r = ["--ring", spec]
    add("matrix rank", ["matrix", "rank", *r, "--matrix", _mjson(low)], {"rank": rs.mccoy_rank(low)})
    add(
        "matrix complete", ["matrix", "complete", *r, "--matrix", _mjson(full)],
        _doc({"completion": serialize.matrix_to_json(rs.completion(full))}),
    )
    add(
        "matrix invert", ["matrix", "invert", *r, "--matrix", _mjson(square)],
        _doc({"inverse": serialize.matrix_to_json(rs.gl_inverse(square))}),
    )
    add("matrix invert singular", ["matrix", "invert", *r, "--matrix", _mjson(low)], None, code=1)
    add(
        "matrix right-inverse", ["matrix", "right-inverse", *r, "--matrix", _mjson(full)],
        _doc({"right_inverse": serialize.matrix_to_json(rs.right_inverse(full))}),
    )

    a = rs.Subspace.from_matrix(full)
    b = gen.subspace(rng, ring, rng.randint(1, n - 1), n)
    ab = ["--a", _mjson(a.display), "--b", _mjson(b.display)]
    add(
        "subspace canon", ["subspace", "canon", *r, "--matrix", _mjson(full)],
        _doc(serialize.subspace_to_json(a)), subspaces=1,
    )
    add(
        "subspace dual", ["subspace", "dual", *r, "--matrix", _mjson(full)],
        _doc(serialize.subspace_to_json(rs.dual(a))), subspaces=1,
    )
    for name, fn in (("meet", rs.meet), ("join", rs.join)):
        lin = fn(a, b)
        add(
            f"subspace {name}", ["subspace", name, *r, *ab],
            lambda doc, lin=lin: doc["dim"] == lin.dim
            and doc["generators"] == _doc(serialize.matrix_to_json(serialize.linear_subset_generators(lin))),
        )
    st = rs.dimension_formula_status(a, b)
    add(
        "subspace dimcheck", ["subspace", "dimcheck", *r, *ab],
        lambda doc: (doc["dim_join"], doc["dim_meet"], doc["formula_holds"])
        == (st.dim_join, st.dim_meet, st.formula_holds),
    )

    cm, cn = rng.randint(0, 6), rng.randint(0, 8)
    m1 = rng.randint(0, cm)
    t, k = rng.randint(0, 3), rng.randint(0, 3)
    t1 = rng.randint(0, t)
    counts = [
        ("subspaces", ["-m", cm, "-n", cn], rs.count_subspaces(cm, cn, ring)),
        ("in", ["--m1", m1, "-m", cm, "-n", cn], rs.count_subspaces_in(m1, cm, cn, ring)),
        ("over", ["--m1", m1, "-m", cm, "-n", cn], rs.count_subspaces_over(m1, cm, cn, ring)),
        ("fullrank", ["-m", m1, "-n", cn], rs.count_full_rank(m1, cn, ring)),
        ("gl", ["-n", cn], rs.count_gl(cn, ring)),
        ("mt", ["-m", cm, "-t", t, "-n", cn, "-k", k], rs.count_mt_subspaces(cm, t, cn, k, ring)),
        (
            "mt-in", ["--m1", m1, "--t1", t1, "-m", cm, "-t", t, "-n", cn, "-k", k],
            rs.count_mt_in(m1, t1, cm, t, cn, k, ring),
        ),
        (
            "mt-over", ["--m1", m1, "--t1", t1, "-m", cm, "-t", t, "-n", cn, "-k", k],
            rs.count_mt_over(m1, t1, cm, t, cn, k, ring),
        ),
    ]
    for name, flags, value in counts:
        add(f"count {name}", ["count", name, *r, *map(str, flags)], {"count": str(value)})

    sk = 1
    space = rs.SingularSpace(ring, n - sk, sk)
    tp = gen.typed_subspace(rng, space, m)
    full = tp.subspace.display
    nk = ["-n", str(n - sk), "-k", str(sk)]
    add(
        "singular type", ["singular", "type", *r, *nk, "--matrix", _mjson(full)],
        {"m": tp.m, "t": tp.t, "typed": tp.typed},
    )
    trans, target = rs.canonical_mt_transform(tp)
    add(
        "singular canon", ["singular", "canon", *r, *nk, "--matrix", _mjson(full)],
        _doc({"transform": serialize.matrix_to_json(trans), "canonical": serialize.subspace_to_json(target)}),
        subspaces=1,
    )
    add(
        "singular count", ["singular", "count", *r, *nk, "-m", str(m), "-t", str(t1)],
        {"count": str(rs.count_mt_subspaces(m, t1, n - sk, sk, ring))},
    )
    z4 = rings["Z4"]
    census_total = sum(rs.count_subspaces(mm, 2, z4) for mm in range(3))

    def census_ok(doc) -> bool:
        typed = sum(int(c["count"]) for c in doc["census"])
        return (
            all(c["count"] == str(rs.count_mt_subspaces(c["m"], c["t"], 1, 1, z4)) for c in doc["census"])
            and typed + int(doc["untyped"]) == census_total
        )

    add(
        "singular enumerate",
        ["singular", "enumerate", "--ring", "Z4", "-n", "1", "-k", "1", "--budget", str(BUDGET)],
        census_ok,
        subspaces=census_total,
    )

    pspec, pn = rng.choice(POINT_SPACES)
    pring = rings[pspec]
    pts = state["points"][(pspec, pn)]
    for kind in ("arc", "cap"):
        full_set = wl_geometry.greedy_complete(rng, kind, pts, pring, pn)
        part = rng.sample(full_set, rng.randint(1, len(full_set) - 1))
        outside = next(p for p in pts if p.canons not in {q.canons for q in full_set})
        ps = rs.PointSet.of(pring, pn, part)
        bad = rs.PointSet.of(pring, pn, full_set + [outside])
        pr = ["--ring", pspec, "--points"]
        budget = ["--budget", str(BUDGET)]
        is_kind = rs.is_arc if kind == "arc" else rs.is_cap
        is_complete = rs.is_complete_arc if kind == "arc" else rs.is_complete_cap
        extend = rs.extend_arc if kind == "arc" else rs.extend_cap
        formula = rs.max_arc_size_formula if kind == "arc" else rs.max_cap_size_formula
        add(f"{kind} check", [kind, "check", *pr, _pjson(bad)], {kind: is_kind(bad)})
        add(f"{kind} complete", [kind, "complete", *pr, _pjson(ps), *budget], {"complete": is_complete(ps, BUDGET)})
        add(
            f"{kind} extend", [kind, "extend", *pr, _pjson(ps), *budget],
            _doc({"extensions": serialize.pointset_to_json(extend(ps, BUDGET))}),
        )
        add(f"{kind} complete not a set", [kind, "complete", *pr, _pjson(bad), *budget], None, code=1)
        mn = rng.randint(3, 6)
        add(f"{kind} max", [kind, "max", "-n", str(mn), "--ring", pspec], {"size": formula(mn, pring)})

    suite_size = len(rs.oracle.geometry_suite())
    add(
        "verify geometry", ["verify", "--suite", "geometry"],
        lambda doc: doc["mismatches"] == 0 and doc["total"] == suite_size,
    )
    add("usage bad ring", ["ring", "info", "--ring", rng.choice(["Z1", "Q7", "Z0xZ3"])], None, code=2)
    add("usage bad payload", ["matrix", "rank", *r, "--matrix", "[[1,"], None, code=2)
    add("usage missing argument", ["count", "gl", *r], None, code=2)
    rng.shuffle(ops)
    return ops


def _pjson(ps) -> str:
    return json.dumps(serialize.pointset_to_json(ps.points))

