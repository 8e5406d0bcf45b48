"""Checks on the package source itself."""

import ast
from pathlib import Path

import ringspace

SOURCES = sorted(Path(ringspace.__file__).parent.glob("*.py"))


def test_no_bare_assert():
    # python -O strips assert statements; invariants raise InternalError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_invariants_raise_internal_error():
    # the command line maps InternalError, not any AssertionError, to exit 4
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "AssertionError"
    ]
    assert found == []


def test_public_names_resolve_once():
    names = ringspace.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ringspace, n)] == []


def _imports(path: Path):
    """(module, names) of every import in the file; a relative module is
    spelled from the package, ``from . import x`` as ``ringspace``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ringspace" + (f".{module}" if module else "")
            yield module, [alias.name for alias in node.names]


def test_no_private_name_crosses_modules():
    found = [
        f"{path.name}: from {module} import {name}"
        for path in SOURCES
        for module, names in _imports(path)
        if module.split(".")[0] == "ringspace"
        for name in names
        if name.startswith("_")
    ]
    assert found == []


def test_geometry_stands_without_the_oracle():
    path = Path(ringspace.__file__).parent / "geometry.py"
    found = [
        (module, names)
        for module, names in _imports(path)
        if module == "ringspace.oracle"
        or (module == "ringspace" and "oracle" in names)
    ]
    assert found == []


def test_enumerators_stand_without_the_formulas():
    # verify checks the formulas of counting against these enumerators, so
    # neither the generator nor the budget arithmetic may use a formula
    pkg = Path(ringspace.__file__).parent
    counting = ast.parse((pkg / "counting.py").read_text())
    formulas = {"counting"} | {
        node.name for node in counting.body if isinstance(node, ast.FunctionDef)
    }
    found = [
        (module, names)
        for module, names in _imports(pkg / "subspace.py")
        if module == "ringspace.counting"
        or (module == "ringspace" and "counting" in names)
    ]
    oracle = ast.parse((pkg / "oracle.py").read_text())
    found += [
        (node.name, name)
        for node in oracle.body
        if isinstance(node, ast.FunctionDef)
        and node.name in (
            "enumerate_subspaces", "enumerate_mt_subspaces", "enumerate_points",
            "_charge_levels",
        )
        for sub in ast.walk(node)
        for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
        if name in formulas
    ]
    assert "count_subspaces" in formulas
    assert found == []
