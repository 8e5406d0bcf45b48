"""Outside-in layer trace over the public functions of each ringspace module.

Each wrapper counts calls and accumulates self time: its span minus the spans
of traced calls made inside it.  A function bound into another module by
``from .x import y`` is replaced there as well, so those calls cannot escape
the trace.  Wrappers count only while ``on`` is set; the bench sets it around
timed library calls, so input generation and result checks are not traced.
Spans are aggregated in memory, never stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import time

TRACED = {
    "zps": [
        "rank_mod_p", "rref_unit", "reduce_against", "howell", "left_kernel",
        "module_contains", "completion", "inverse", "matmul",
    ],
    "oracle": [
        "enumerate_points", "extend_subspace", "enumerate_subspaces",
        "enumerate_mt_subspaces", "count_full_rank_enumerated",
    ],
    "matrix": [
        "mccoy_rank", "completion", "gl_inverse", "extend_to_basis",
        "Matrix.from_entries", "Matrix.mul",
    ],
    "subspace": [
        "Subspace.from_matrix", "meet", "join", "as_subspace", "dual",
        "dimension_formula_status", "duality_laws", "Subspace.contains",
    ],
    "singular": ["type_of", "canonical_mt_transform"],
    "geometry": [
        "search_max_arc", "search_max_cap", "is_complete_arc", "is_complete_cap",
        "extend_arc", "extend_cap", "is_arc", "is_cap",
    ],
    "ring": ["parse_ring"],
    "cli": ["main"],
    "serialize": ["dumps", "parse_matrix", "load_payload"],
}
# Every count_* function of ringspace.counting, traced as one aggregate.
COUNTING = "counting"

QUERIES = (
    "geometry.is_complete_arc", "geometry.is_complete_cap",
    "geometry.extend_arc", "geometry.extend_cap",
)
# A call to one of these opens a scope ...
SCOPES = {
    "oracle.enumerate_subspaces": "enumerate",
    "subspace.dimension_formula_status": "dimcheck",
    **{q: "query" for q in QUERIES},
}
# ... and calls of these are also counted when made inside that scope.
NESTED = {
    "zps.rref_unit": "enumerate",
    "subspace.as_subspace": "dimcheck",
    "oracle.enumerate_points": "query",
}

DERIVED = [
    ("oracle.rref_per_result", "ratio", "lower"),
    ("oracle.extend_subspace.accept_ratio", "ratio", "higher"),
    ("oracle.enumerate_points.point_ratio", "ratio", "higher"),
    ("subspace.as_subspace.per_dimcheck", "ratio", "lower"),
    ("geometry.enumerate_points_per_query", "ratio", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("python.bare_start_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [COUNTING]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + DERIVED


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {n: [0, 0.0] for n in traced_names()}
        self.stack: list[float] = []
        self.depth = {scope: 0 for scope in set(SCOPES.values())}
        self.nested = {name: 0 for name in NESTED}
        self.points = self.vectors = self.enum_results = 0

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("ringspace")
        mods = {m: importlib.import_module(f"ringspace.{m}") for m in [*TRACED, COUNTING]}
        namespaces = [pkg, *mods.values()]
        for mod_name, fns in TRACED.items():
            mod = mods[mod_name]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))
                else:
                    orig = getattr(mod, fn_name)
                    self._rebind(namespaces, orig, self._wrap(name, orig))
        counting = mods[COUNTING]
        for attr, fn in list(vars(counting).items()):
            if attr.startswith("count_") and getattr(fn, "__module__", None) == counting.__name__:
                self._rebind(namespaces, fn, self._wrap(COUNTING, fn))

    @staticmethod
    def _rebind(namespaces, orig, wrapper) -> None:
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack, depth = self.stack, self.depth
        scope = SCOPES.get(name)
        nested = NESTED.get(name)
        hook = {
            "oracle.enumerate_points": self._points_hook,
            "oracle.enumerate_subspaces": self._enum_hook,
        }.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if nested is not None and depth[nested]:
                self.nested[name] += 1
            if scope is not None:
                depth[scope] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if scope is not None:
                    depth[scope] -= 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _points_hook(self, args, result) -> None:
        n, ring = args[0], args[1]
        self.points += len(result)
        self.vectors += ring.order**n

    def _enum_hook(self, args, result) -> None:
        self.enum_results += len(result)

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["oracle.rref_per_result"] = ratio(self.nested["zps.rref_unit"], self.enum_results)
        out["oracle.extend_subspace.accept_ratio"] = ratio(
            self.enum_results, self.calls("oracle.extend_subspace")
        )
        out["oracle.enumerate_points.point_ratio"] = ratio(self.points, self.vectors)
        out["subspace.as_subspace.per_dimcheck"] = ratio(
            self.nested["subspace.as_subspace"], self.calls("subspace.dimension_formula_status")
        )
        out["geometry.enumerate_points_per_query"] = ratio(
            self.nested["oracle.enumerate_points"], sum(self.calls(q) for q in QUERIES)
        )
        return out
