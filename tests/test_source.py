"""Checks on the package source itself."""

import ast
from pathlib import Path

import ringspace

SOURCES = sorted(Path(ringspace.__file__).parent.glob("*.py"))


def test_no_bare_assert():
    # python -O strips assert statements; invariants raise AssertionError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_public_names_resolve_once():
    names = ringspace.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ringspace, n)] == []
