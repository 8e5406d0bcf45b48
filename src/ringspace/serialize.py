"""JSON forms for ring elements, matrices, subspaces, and point sets.

Elements are emitted as plain integers when the ring's component orders are
pairwise coprime (the ring is then Z_m and the integer is the canonical
representative); otherwise as arrays of per-component residues.  Both forms
are always accepted on input.  Counts are emitted as decimal strings so no
JSON consumer can lose precision on big integers.

``matrix`` and ``subspace`` are imported by the functions that build their
objects, so reading or writing a count loads neither.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, PayloadError
from .ring import Element, Ring

if TYPE_CHECKING:
    from .matrix import Matrix
    from .subspace import LinearSubset, Subspace


def element_to_json(e: Element):
    if e.ring.is_coprime:
        return e.ring.int_encode(e)
    return list(e.residues)


def parse_element(ring: Ring, obj) -> Element:
    if isinstance(obj, bool):
        raise DomainError("booleans are not ring elements")
    if isinstance(obj, int):
        return ring.from_int(obj)
    if isinstance(obj, (list, tuple)):
        vals = []
        for x in obj:
            if isinstance(x, bool) or not isinstance(x, int):
                raise DomainError("residues must be integers")
            vals.append(x)
        if len(vals) != ring.ell:
            raise DomainError(
                f"expected {ring.ell} residues, got {len(vals)}"
            )
        return ring.element(vals)
    raise DomainError(f"cannot read a ring element from {type(obj).__name__}")


def matrix_to_json(a: Matrix) -> list:
    return [
        [element_to_json(a.entry(i, j)) for j in range(a.cols)]
        for i in range(a.rows)
    ]


def parse_matrix(ring: Ring, obj) -> Matrix:
    from .matrix import Matrix

    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DomainError("matrix payload must be a nested JSON array")
    if obj and len({len(r) for r in obj}) != 1:
        raise DomainError("matrix rows must have equal length")
    entries = [[parse_element(ring, x) for x in row] for row in obj]
    return Matrix.from_entries(ring, entries)


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient": s.ambient,
        "dim": s.dim,
        "rows": matrix_to_json(s.display),
    }


def linear_subset_generators(l: LinearSubset) -> Matrix:
    """A canonical generator matrix: Howell rows, zero-padded to equal count.

    Equal linear subsets produce identical matrices, whatever generators
    they were built from, so the JSON form is canonical too.
    """
    from .matrix import Matrix

    ring = l.ring
    n = l.ambient
    depth = max((len(h) for h in l.howells), default=0)
    zero = tuple(0 for _ in range(n))
    padded = [
        tuple(h[i] if i < len(h) else zero for i in range(depth))
        for h in l.howells
    ]
    return Matrix(ring, depth, n, tuple(padded))


def linear_subset_to_json(l: LinearSubset) -> dict:
    return {
        "ambient": l.ambient,
        "dim": l.dim,
        "free": l.is_free,
        "generators": matrix_to_json(linear_subset_generators(l)),
    }


def pointset_to_json(points: Sequence[Subspace]) -> list:
    return [matrix_to_json(p.display)[0] for p in points]


def parse_point_rows(ring: Ring, obj) -> list[list[Element]]:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DomainError("point set payload must be an array of point rows")
    if not all(obj):
        raise DomainError("point rows must not be empty")
    if len({len(r) for r in obj}) > 1:
        raise DomainError("point rows must have equal length")
    return [[parse_element(ring, x) for x in row] for row in obj]


def load_payload(text: str):
    """Inline JSON, or @path to read the JSON from a file.

    A file that is not UTF-8, an integer of more than 4,300 digits and
    arrays nested past the recursion limit are PayloadError too.
    """
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PayloadError(f"cannot read payload file: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise PayloadError(f"payload is not valid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses more than 4,300 digits
        raise PayloadError("payload has an integer of more than 4300 digits") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
