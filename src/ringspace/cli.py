"""Command line front end.

One JSON document per invocation on stdout (or an aligned text table with
--output table); diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error, 2 usage error (including a negative dimension), 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import counting, geometry, serialize
from .errors import DomainError, PayloadError, RingParseError
from .geometry import PointSet
from .matrix import completion, gl_inverse, mccoy_rank, right_inverse
from .oracle import (
    DEFAULT_BUDGET,
    SUITES,
    enumerate_mt_subspaces,
    enumerate_subspaces,
    verify_counts,
)
from .ring import Ring, parse_ring
from .singular import SingularSpace, canonical_mt_transform, type_of
from .subspace import (
    Subspace,
    as_subspace,
    dimension_formula_status,
    dual,
    duality_laws,
    join,
    meet,
)


def _ring(args) -> Ring:
    return parse_ring(args.ring)


def _matrix(args, attr: str = "matrix"):
    payload = serialize.load_payload(getattr(args, attr))
    return serialize.parse_matrix(_ring(args), payload)


def _subspace(args, attr: str):
    return Subspace.from_matrix(_matrix(args, attr))


def _point_set(args) -> PointSet:
    ring = _ring(args)
    rows = serialize.parse_point_rows(ring, serialize.load_payload(args.points))
    if rows:
        return PointSet.from_rows(ring, rows)
    if args.n is None:
        raise PayloadError("empty point set needs an explicit -n")
    return PointSet.of(ring, args.n, [])


def _budget(args, fallback: int) -> int:
    return args.budget if args.budget is not None else fallback


# -- command handlers ----------------------------------------------------------
#
# Library functions are looked up when a handler runs, never stored in the
# command table, so rebinding a module attribute (a mock, a tracer) takes
# effect for the CLI too.


def _cmd_ring_info(args):
    ring = _ring(args)
    return {
        "ring": ring.spec_string(),
        "components": [
            {"prime": c.prime, "exponent": c.exponent, "order": c.order}
            for c in ring.components
        ],
        "order": str(ring.order),
        "units": str(ring.unit_count),
        "coprime": ring.is_coprime,
        "gl2": str(counting.count_gl(2, ring)),
    }, 0


def _cmd_matrix_rank(args):
    return {"rank": mccoy_rank(_matrix(args))}, 0


def _cmd_matrix_complete(args):
    s = completion(_matrix(args))
    return {"completion": serialize.matrix_to_json(s)}, 0


def _cmd_matrix_invert(args):
    inv = gl_inverse(_matrix(args))
    return {"inverse": serialize.matrix_to_json(inv)}, 0


def _cmd_matrix_right_inverse(args):
    b = right_inverse(_matrix(args))
    return {"right_inverse": serialize.matrix_to_json(b)}, 0


def _cmd_subspace_canon(args):
    return serialize.subspace_to_json(_subspace(args, "matrix")), 0


def _linear_subset_payload(l):
    out = serialize.linear_subset_to_json(l)
    out["canonical"] = serialize.subspace_to_json(as_subspace(l)) if out["free"] else None
    return out


def _cmd_subspace_meet(args):
    return _linear_subset_payload(meet(_subspace(args, "a"), _subspace(args, "b"))), 0


def _cmd_subspace_join(args):
    return _linear_subset_payload(join(_subspace(args, "a"), _subspace(args, "b"))), 0


def _cmd_subspace_dual(args):
    return serialize.subspace_to_json(dual(_subspace(args, "matrix"))), 0


def _cmd_subspace_dimcheck(args):
    a = _subspace(args, "a")
    b = _subspace(args, "b")
    st = dimension_formula_status(a, b)
    out = {
        "dim_a": st.dim_a,
        "dim_b": st.dim_b,
        "dim_join": st.dim_join,
        "dim_meet": st.dim_meet,
        "formula_holds": st.formula_holds,
        "join_is_subspace": st.join_is_subspace,
        "meet_is_subspace": st.meet_is_subspace,
        "meet_law": None,
        "join_law": None,
    }
    if st.formula_holds:
        laws = duality_laws(a, b)
        out["meet_law"] = laws.meet_law_holds
        out["join_law"] = laws.join_law_holds
    return out, 0


def _count(function: str, params: str, flags: str | None = None):
    """Handler and dimension arguments of a closed-form count command.

    ``params`` orders the dimensions as ``counting.<function>`` takes them,
    before the ring; ``flags`` orders the options, when that differs.
    """
    names = params.split()

    def handler(args):
        fn = getattr(counting, function)
        return {"count": str(fn(*(getattr(args, n) for n in names), _ring(args)))}, 0

    return handler, _dims(flags or params)


def _cmd_singular_type(args):
    space = SingularSpace(_ring(args), args.n, args.k)
    tp = type_of(_subspace(args, "matrix"), space)
    return {"m": tp.m, "t": tp.t, "typed": tp.typed}, 0


def _cmd_singular_canon(args):
    space = SingularSpace(_ring(args), args.n, args.k)
    tp = type_of(_subspace(args, "matrix"), space)
    trans, target = canonical_mt_transform(tp)
    return {
        "transform": serialize.matrix_to_json(trans),
        "canonical": serialize.subspace_to_json(target),
    }, 0


def _cmd_singular_enumerate(args):
    ring = _ring(args)
    budget = _budget(args, DEFAULT_BUDGET)
    if (args.m is None) != (args.t is None):
        raise PayloadError("give both -m and -t, or neither")
    if args.m is not None:
        found = enumerate_mt_subspaces(args.m, args.t, args.n, args.k, ring, budget)
        return {
            "count": str(len(found)),
            "subspaces": [serialize.subspace_to_json(s) for s in found],
        }, 0
    space = SingularSpace(ring, args.n, args.k)
    census: dict[tuple[int, int], int] = {}
    untyped = 0
    for m in range(space.ambient + 1):
        for sub in enumerate_subspaces(m, space.ambient, ring, budget):
            tp = type_of(sub, space)
            if tp.typed:
                census[tp.type] = census.get(tp.type, 0) + 1
            else:
                untyped += 1
    return {
        "census": [
            {"m": m, "t": t, "count": str(c)}
            for (m, t), c in sorted(census.items())
        ],
        "untyped": str(untyped),
    }, 0


# The arc and cap groups share these handlers; the group name picks the
# geometry function, e.g. ``is_complete_arc`` for ``arc complete``.


def _kind_fn(args, template: str):
    return getattr(geometry, template.format(args.group))


def _cmd_check(args):
    return {args.group: _kind_fn(args, "is_{}")(_point_set(args))}, 0


def _cmd_complete(args):
    budget = _budget(args, DEFAULT_BUDGET)
    return {"complete": _kind_fn(args, "is_complete_{}")(_point_set(args), budget)}, 0


def _cmd_extend(args):
    budget = _budget(args, DEFAULT_BUDGET)
    pts = _kind_fn(args, "extend_{}")(_point_set(args), budget)
    return {"extensions": serialize.pointset_to_json(pts)}, 0


def _cmd_search(args):
    search = _kind_fn(args, "search_max_{}")
    ps = search(args.n, _ring(args), _budget(args, geometry.SEARCH_BUDGET))
    return {
        "size": len(ps.points),
        "points": serialize.pointset_to_json(ps.points),
    }, 0


def _cmd_max(args):
    return {"size": _kind_fn(args, "max_{}_size_formula")(args.n, _ring(args))}, 0


def _cmd_verify(args):
    reports = verify_counts(args.suite)
    mismatches = sum(1 for r in reports if not r.match)
    payload = {
        "suite": args.suite,
        "total": len(reports),
        "mismatches": mismatches,
        "reports": [
            {
                "query": r.query,
                "formula": str(r.formula_value),
                "enumerated": str(r.enumerated_value),
                "match": r.match,
            }
            for r in reports
        ],
    }
    return payload, (3 if mismatches else 0)


# -- command table --------------------------------------------------------------


def dimension(text: str) -> int:
    """argparse type of every dimension option: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _dims(names: str, required: bool = True):
    """Dimension options: ``m1`` becomes ``--m1``, ``n`` becomes ``-n``."""
    kwargs = {"type": dimension, "required": required}
    return tuple(
        (f"--{name}" if len(name) > 1 else f"-{name}", kwargs) for name in names.split()
    )


_RING = ("--ring", {"required": True, "help": "ring spec, e.g. Z4 or Z2xZ9"})
_OUTPUT = (
    "--output",
    {"choices": ["json", "table"], "default": "json", "help": "output format"},
)
_BUDGET = ("--budget", {"type": int, "default": None, "help": "node budget"})
_MATRIX = (("--matrix", {"required": True, "help": "JSON rows or @file"}),)
_ROWS = (("--matrix", {"required": True, "help": "generating rows"}),)
_PAIR = (
    ("--a", {"required": True, "help": "first subspace rows"}),
    ("--b", {"required": True, "help": "second subspace rows"}),
)
_TYPED = _dims("n k") + (("--matrix", {"required": True}),)
_MT_NESTED = "m1 t1 m t n k"
_POINTS = (
    ("--points", {"required": True, "help": "JSON point rows or @file"}),
    ("-n", {"type": dimension, "default": None, "help": "ambient dimension"}),
)
_GEOMETRY = [
    ("check", "check a point set", _cmd_check, _POINTS),
    ("complete", "complete a point set", _cmd_complete, (_BUDGET, *_POINTS)),
    ("extend", "extend a point set", _cmd_extend, (_BUDGET, *_POINTS)),
    ("search", "exhaustive maximum search", _cmd_search, (_BUDGET, *_dims("n"))),
    ("max", "known maximum size, null when unknown", _cmd_max, _dims("n")),
]

# group -> (help, [(command, help, handler, options after --ring and --output)])
COMMANDS = {
    "ring": ("ring inspection", [
        ("info", "components, order, units, |GL_2|", _cmd_ring_info, ()),
    ]),
    "matrix": ("matrix operations", [
        ("rank", "McCoy rank", _cmd_matrix_rank, _MATRIX),
        ("complete", "S with A*S = (I|0)", _cmd_matrix_complete, _MATRIX),
        ("invert", "inverse of a square matrix", _cmd_matrix_invert, _MATRIX),
        ("right-inverse", "B with A*B = I", _cmd_matrix_right_inverse, _MATRIX),
    ]),
    "subspace": ("subspace operations", [
        ("canon", "canonical form of a free subspace", _cmd_subspace_canon, _ROWS),
        ("dual", "orthogonal dual subspace", _cmd_subspace_dual, _ROWS),
        ("meet", "intersection (may not be free)", _cmd_subspace_meet, _PAIR),
        ("join", "sum (may not be free)", _cmd_subspace_join, _PAIR),
        ("dimcheck", "dimension formula status", _cmd_subspace_dimcheck, _PAIR),
    ]),
    "count": ("closed-form counts", [
        ("subspaces", "free m-subspaces of R^n", *_count("count_subspaces", "m n")),
        (
            "in", "m1-subspaces inside a fixed m-subspace",
            *_count("count_subspaces_in", "m1 m n"),
        ),
        (
            "over", "m-subspaces containing a fixed m1-subspace",
            *_count("count_subspaces_over", "m1 m n"),
        ),
        (
            "fullrank", "full McCoy rank m x n matrices",
            *_count("count_full_rank", "m n"),
        ),
        ("gl", "order of GL_n(R)", *_count("count_gl", "n")),
        (
            "mt", "(m,t)-subspaces of a singular space",
            *_count("count_mt_subspaces", "m t n k"),
        ),
        ("mt-in", "nested (m,t) count: mt-in", *_count("count_mt_in", _MT_NESTED)),
        ("mt-over", "nested (m,t) count: mt-over", *_count("count_mt_over", _MT_NESTED)),
    ]),
    "singular": ("singular space operations", [
        ("type", "(m, t) type of a subspace", _cmd_singular_type, _TYPED),
        (
            "canon", "group element to the canonical (m, t)-subspace",
            _cmd_singular_canon, _TYPED,
        ),
        (
            "count", "closed-form (m, t)-subspace count",
            *_count("count_mt_subspaces", "m t n k", "n k m t"),
        ),
        (
            "enumerate", "census or list by brute force", _cmd_singular_enumerate,
            (_BUDGET, *_dims("n k"), *_dims("m t", required=False)),
        ),
    ]),
    "arc": ("arc operations", _GEOMETRY),
    "cap": ("cap operations", _GEOMETRY),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringspace",
        description="Exact linear algebra and finite geometry over Z_{p^s} products.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True
        )
        for command, hlp, handler, options in commands:
            p = sub.add_parser(command, help=hlp)
            for flag, kwargs in (_RING, _OUTPUT, *options):
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    p = top.add_parser("verify", help="formula vs enumeration suites")
    p.add_argument(_OUTPUT[0], **_OUTPUT[1])
    p.add_argument("--suite", choices=["default", *SUITES], default="default")
    p.set_defaults(handler=_cmd_verify)
    return parser


# -- output rendering -----------------------------------------------------------


def _flat(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + " ".join(_flat(v) for v in value) + "]"
    return str(value)


def _render_table(payload, indent: int = 0, out=None) -> list[str]:
    lines = out if out is not None else []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, dict) or (
                isinstance(value, list) and value and isinstance(value[0], (dict, list))
            ):
                lines.append(f"{pad}{key}:")
                _render_table(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, dict):
                lines.append(
                    pad + "  ".join(f"{k}={_flat(v)}" for k, v in value.items())
                )
            else:
                lines.append(pad + _flat(value))
    else:
        lines.append(pad + _flat(payload))
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except (RingParseError, PayloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "table":
        print("\n".join(_render_table(payload)))
    else:
        print(serialize.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
