"""Command line front end.

One JSON document per invocation on stdout (or an aligned text table with
--output table); diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error, 2 usage error (including a negative dimension), 3 verification
mismatch, 4 internal error (a bug), 141 stdout closed before the output was
written (``| head``), as a shell reports a process that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import serialize
from .errors import (
    DEFAULT_BUDGET,
    CountTooLargeError,
    DomainError,
    InternalError,
    PayloadError,
    RingParseError,
)
from .ring import Ring, parse_ring


def _ring(args) -> Ring:
    return parse_ring(args.ring)


def _matrix(args, attr: str = "matrix"):
    payload = serialize.load_payload(getattr(args, attr))
    return serialize.parse_matrix(_ring(args), payload)


def _subspace(args, attr: str, width: int = 0):
    """The --attr rows as a subspace; ``[]`` is the zero subspace of R^width.

    An empty row list carries no width, so the command supplies it.
    """
    from . import subspace

    a = _matrix(args, attr)
    if not a.rows:
        return subspace.Subspace.zero(a.ring, width)
    return subspace.Subspace.from_matrix(a)


def _pair(args):
    """The --a and --b subspaces; an empty one takes the other's width."""
    from . import subspace

    a, b = _subspace(args, "a"), _subspace(args, "b")
    zero = subspace.Subspace.zero
    return (a if a.dim else zero(a.ring, b.ambient)), (b if b.dim else zero(b.ring, a.ambient))


def _point_set(args):
    from . import geometry

    ring = _ring(args)
    rows = serialize.parse_point_rows(ring, serialize.load_payload(args.points))
    if rows:
        if args.n not in (None, len(rows[0])):
            raise PayloadError(
                f"-n {args.n} does not match point rows of length {len(rows[0])}"
            )
        return geometry.PointSet.from_rows(ring, rows)
    if args.n is None:
        raise PayloadError("empty point set needs an explicit -n")
    return geometry.PointSet.of(ring, args.n, [])


def _budget(args, fallback: int) -> int:
    return args.budget if args.budget is not None else fallback


# -- command handlers ----------------------------------------------------------
#
# A handler imports the library modules it needs when it runs and calls
# their functions through the module, so a command loads only what it uses,
# and rebinding a module attribute (a mock, a tracer) takes effect for the
# CLI too.  Nothing library-side is stored in the command table.


def _cmd_ring_info(args):
    from . import counting

    ring = _ring(args)
    return {
        "ring": ring.spec_string(),
        "components": [
            {"prime": c.prime, "exponent": c.exponent, "order": c.order}
            for c in ring.components
        ],
        "order": _decimal(ring.order),
        "units": _decimal(ring.unit_count),
        "coprime": ring.is_coprime,
        "gl2": _decimal(counting.count_gl(2, ring)),
    }, 0


def _matrix_op(function: str, key: str):
    """Handler of a matrix command: ``matrix.<function>`` of --matrix under ``key``.

    The McCoy rank is an int; every other result is a matrix.
    """

    def handler(args):
        from . import matrix

        out = getattr(matrix, function)(_matrix(args))
        return {key: out if isinstance(out, int) else serialize.matrix_to_json(out)}, 0

    return handler


def _cmd_subspace_canon(args):
    return serialize.subspace_to_json(_subspace(args, "matrix")), 0


def _meet_or_join(operation: str):
    """Handler of ``subspace meet`` or ``join``: that module of --a and --b."""

    def handler(args):
        from . import subspace

        l = getattr(subspace, operation)(*_pair(args))
        out = serialize.linear_subset_to_json(l)
        out["canonical"] = (
            serialize.subspace_to_json(subspace.as_subspace(l)) if out["free"] else None
        )
        return out, 0

    return handler


def _cmd_subspace_dual(args):
    from . import subspace

    return serialize.subspace_to_json(subspace.dual(_subspace(args, "matrix"))), 0


def _cmd_subspace_dimcheck(args):
    from . import subspace

    st, laws = subspace._dimcheck(*_pair(args))
    out = dataclasses.asdict(st)
    out["meet_law"] = laws.meet_law_holds if laws else None
    out["join_law"] = laws.join_law_holds if laws else None
    return out, 0


# Python's default limit on the digits of an int it converts to a string.
COUNT_MAX_DIGITS = 4300
_TOO_LARGE = f"count has more than {COUNT_MAX_DIGITS} digits"


def _decimal(count: int) -> str:
    """The count in decimal, or CountTooLargeError past COUNT_MAX_DIGITS digits."""
    if count >= 10**COUNT_MAX_DIGITS:
        raise CountTooLargeError(_TOO_LARGE)
    return str(count)


def _count(function: str, params: str, flags: str | None = None):
    """Handler and dimension arguments of a closed-form count command.

    ``params`` orders the dimensions as ``counting.<function>`` takes them,
    before the ring; ``flags`` orders the options, when that differs.  A
    count of more than COUNT_MAX_DIGITS digits is refused.  The count is at
    least |R|^E >= 2^(E (b - 1)), with E from ``counting.SIZE_EXPONENTS``
    and b the bit length of |R|, so a count that this bound already puts
    past the limit is refused before the formula runs.
    """
    names = params.split()

    def handler(args):
        from . import counting

        dims = [getattr(args, n) for n in names]
        ring = _ring(args)
        low_bits = counting.SIZE_EXPONENTS[function](*dims) * (ring.order.bit_length() - 1)
        if low_bits >= (10**COUNT_MAX_DIGITS).bit_length():
            raise CountTooLargeError(_TOO_LARGE)
        return {"count": _decimal(getattr(counting, function)(*dims, ring))}, 0

    return handler, _dims(flags or params)


def _typed(args):
    """The --matrix subspace of the singular space (-n, -k), typed."""
    from . import singular

    space = singular.SingularSpace(_ring(args), args.n, args.k)
    return singular.type_of(_subspace(args, "matrix", space.ambient), space)


def _cmd_singular_type(args):
    tp = _typed(args)
    return {"m": tp.m, "t": tp.t, "typed": tp.typed}, 0


def _cmd_singular_canon(args):
    from . import singular

    trans, target = singular.canonical_mt_transform(_typed(args))
    return {
        "transform": serialize.matrix_to_json(trans),
        "canonical": serialize.subspace_to_json(target),
    }, 0


def _cmd_singular_enumerate(args):
    from . import oracle, singular

    ring = _ring(args)
    budget = _budget(args, DEFAULT_BUDGET)
    if (args.m is None) != (args.t is None):
        raise PayloadError("give both -m and -t, or neither")
    if args.m is not None:
        found = oracle.enumerate_mt_subspaces(
            args.m, args.t, args.n, args.k, ring, budget
        )
        return {
            "count": str(len(found)),
            "subspaces": [serialize.subspace_to_json(s) for s in found],
        }, 0
    space = singular.SingularSpace(ring, args.n, args.k)
    census: dict[tuple[int, int], int] = {}
    untyped = 0
    for m in range(space.ambient + 1):
        for sub in oracle.enumerate_subspaces(m, space.ambient, ring, budget):
            tp = singular.type_of(sub, space)
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
    from . import geometry

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
    from . import geometry

    search = _kind_fn(args, "search_max_{}")
    ps = search(args.n, _ring(args), _budget(args, geometry.SEARCH_BUDGET))
    return {
        "size": len(ps.points),
        "points": serialize.pointset_to_json(ps.points),
    }, 0


def _cmd_max(args):
    return {"size": _kind_fn(args, "max_{}_size_formula")(args.n, _ring(args))}, 0


def _cmd_verify(args):
    from . import oracle

    reports = oracle.verify_counts(args.suite)
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
        ("rank", "McCoy rank", _matrix_op("mccoy_rank", "rank"), _MATRIX),
        ("complete", "S with A*S = (I|0)", _matrix_op("completion", "completion"), _MATRIX),
        ("invert", "inverse of a square matrix", _matrix_op("gl_inverse", "inverse"), _MATRIX),
        (
            "right-inverse", "B with A*B = I",
            _matrix_op("right_inverse", "right_inverse"), _MATRIX,
        ),
    ]),
    "subspace": ("subspace operations", [
        ("canon", "canonical form of a free subspace", _cmd_subspace_canon, _ROWS),
        ("dual", "orthogonal dual subspace", _cmd_subspace_dual, _ROWS),
        ("meet", "intersection (may not be free)", _meet_or_join("meet"), _PAIR),
        ("join", "sum (may not be free)", _meet_or_join("join"), _PAIR),
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


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every group at the top level; commands only for the group argv names.

    That group is the first argument that is not an option: the top level
    takes no option with a value, so argparse dispatches to the same one.
    Help, choices and errors read as if every group were filled in.
    """
    named = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="ringspace",
        description="Exact linear algebra and finite geometry over Z_{p^s} products.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        group_parser = top.add_parser(group, help=group_help)
        if group != named:
            continue
        sub = group_parser.add_subparsers(dest="command", required=True)
        for command, hlp, handler, options in commands:
            p = sub.add_parser(command, help=hlp)
            for flag, kwargs in (_RING, _OUTPUT, *options):
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    p = top.add_parser("verify", help="formula vs enumeration suites")
    if named == "verify":
        from .oracle import SUITES

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


EXIT_CLOSED_STDOUT = 128 + 13  # 128 + SIGPIPE


def main(argv=None) -> int:
    """Run one command line; stdout closed early exits ``EXIT_CLOSED_STDOUT``.

    Python ignores SIGPIPE, so a reader that stops early (``| head``) makes
    the write raise BrokenPipeError.  As Python's ``signal`` docs advise,
    the process's own stdout is then pointed at devnull, so the flush at
    exit does not raise again.  A caller's replacement stdout, such as a
    StringIO, is left as it is.
    """
    try:
        code = _main(argv)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.output == "table":
        print("\n".join(_render_table(payload)))
    else:
        print(serialize.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
