"""Start-up cost: what ``import ringspace`` and each CLI command load.

Every check runs in a fresh interpreter, because this one has already
loaded the library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringspace

SRC = str(Path(ringspace.__file__).resolve().parent.parent)
LIBRARY = {
    f"ringspace.{m}"
    for m in "errors ring zps matrix subspace counting singular geometry oracle".split()
}


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'ringspace')"


class TestPackage:
    def test_import_loads_no_submodule(self):
        out = fresh(f"import json, sys, ringspace; print(json.dumps({LOADED}))")
        assert out == ["ringspace"]

    def test_first_name_loads_the_whole_library(self):
        out = fresh(
            "import json, sys, ringspace\n"
            "ringspace.parse_ring('Z4')\n"
            "bound = [n for n in ringspace.__all__ if n not in vars(ringspace)]\n"
            f"print(json.dumps({{'loaded': {LOADED}, 'unbound': bound}}))"
        )
        assert set(out["loaded"]) == {"ringspace", *LIBRARY}
        assert out["unbound"] == []

    def test_module_name_as_first_access(self):
        out = fresh(
            "import json, sys, ringspace\n"
            "ps = ringspace.geometry.search_max_arc(2, ringspace.parse_ring('Z6'))\n"
            "print(json.dumps(len(ps.points)))"
        )
        assert out == 3

    def test_star_import_binds_every_public_name(self):
        out = fresh(
            "import json\n"
            "ns = {}\n"
            "exec('from ringspace import *', ns)\n"
            "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))"
        )
        assert len(out) == 72
        assert out == sorted(ringspace.__all__)

    def test_unknown_name_raises_attribute_error(self):
        out = fresh(
            "import json, sys, ringspace\n"
            "try:\n"
            "    ringspace.no_such_name\n"
            "except AttributeError as exc:\n"
            "    caught = str(exc)\n"
            f"print(json.dumps({{'caught': caught, 'loaded': {LOADED}}}))"
        )
        assert out == {
            "caught": "module 'ringspace' has no attribute 'no_such_name'",
            "loaded": ["ringspace"],
        }


# Runs the CLI as ``python -m ringspace.cli`` does, then lists what it loaded.
# The command module itself runs as __main__, so it is not in the list.
RUN_CLI = f"""
import json, runpy, sys
sys.argv = ["ringspace", *sys.argv[1:]]
try:
    runpy.run_module("ringspace.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print()
print(json.dumps({LOADED}))
"""

BASE = {"ringspace", "ringspace.errors", "ringspace.ring", "ringspace.serialize"}
COUNT = BASE | {"ringspace.counting"}
MATRIX = BASE | {"ringspace.zps", "ringspace.matrix"}
SUBSPACE = MATRIX | {"ringspace.subspace"}
SINGULAR = SUBSPACE | {"ringspace.singular"}
GEOMETRY = SUBSPACE | {"ringspace.geometry"}
ORACLE = (BASE | LIBRARY) - {"ringspace.geometry", "ringspace.singular"}

R = ["--ring", "Z4"]
FOOTPRINTS = [
    (["ring", "info", *R], COUNT),
    (["count", "subspaces", "-m", "1", "-n", "2", *R], COUNT),
    (["count", "mt-over", *"--m1 1 --t1 0 -m 2 -t 1 -n 2 -k 1".split(), *R], COUNT),
    (["singular", "count", "-n", "2", "-k", "1", "-m", "1", "-t", "0", *R], COUNT),
    ([], BASE),
    (["nope"], BASE),
    (["ring", "nope"], BASE),
    (["count", "gl", *R], BASE),
    (["--", "ring", "info", *R], BASE),
    (["matrix", "-h"], BASE),
    (["matrix", "rank", "--matrix", "[[1,2],[0,2]]", *R], MATRIX),
    (["matrix", "invert", "--matrix", "[[1,2],[0,1]]", *R], MATRIX),
    (["subspace", "join", "--a", "[[1,0,0]]", "--b", "[[0,1,0]]", *R], SUBSPACE),
    (["subspace", "dimcheck", "--a", "[[2,1]]", "--b", "[[0,1]]", *R], SUBSPACE),
    (["subspace", "dual", "--matrix", "[[1,0,1]]", *R], SUBSPACE),
    (["singular", "type", "-n", "2", "-k", "1", "--matrix", "[[1,0,1]]", *R], SINGULAR),
    (["singular", "canon", "-n", "2", "-k", "1", "--matrix", "[[1,0,1]]", *R], SINGULAR),
    (["arc", "max", "-n", "3", *R], GEOMETRY),
    (["arc", "extend", "--points", "[[1,0]]", *R], GEOMETRY),
    (["cap", "complete", "--points", "[[1,0,0]]", *R], GEOMETRY),
    # oracle imports every module but geometry, which its geometry suite
    # imports when it runs, and singular, which only the census types with
    (["singular", "enumerate", "-n", "1", "-k", "1", *R], ORACLE | SINGULAR),
    (["verify", "-h"], ORACLE),
]


@pytest.mark.parametrize(
    "argv, expected", FOOTPRINTS, ids=[" ".join(a[:2]) or "no group" for a, _ in FOOTPRINTS]
)
def test_command_loads_only_what_it_runs(argv, expected):
    assert set(fresh(RUN_CLI, *argv)) == expected
