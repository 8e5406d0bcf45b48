"""Run the command line over a fixed corpus and print one digest per section.

Each call goes through ``ringspace.cli.main`` in-process.  Its argv, exit
code, stdout and stderr are hashed in order, into its section's sha256 and
into one over everything.  Two trees that print the same digests give
byte-identical output on the whole corpus.  Run from anywhere:

    python tools/cli_corpus.py [--dump calls.jsonl]

``--dump`` also writes one JSON line per call, to find a call that differs.
The sections:

- ``readme``: the README's command lines and the three ``verify`` suites;
- ``singular``: ``singular enumerate -m -t`` for every type of Z4^4 under
  every split 4 = n + k, then ``singular canon`` on each subspace it lists
  (the zero subspace has no rows to pass, so it is left out);
- ``matrix``: ``matrix invert``, ``complete`` and ``right-inverse`` on every
  2x2 matrix over Z4 and Z6;
- ``subspace``: ``subspace meet``, ``join`` and ``dimcheck`` on every ordered
  pair of subspaces of Z4^2, as ``singular enumerate -k 0`` lists them;
- ``refusals``: payloads that are refused, and matrices without full rank.

It takes about 20 seconds on one core.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ringspace import cli  # noqa: E402

README = [
    "count subspaces -m 1 -n 2 --ring Z6",
    "subspace dimcheck --ring Z4 --a [[2,1]] --b [[0,1]]",
    "arc search -n 2 --ring Z6",
    "singular enumerate --ring Z4 -n 1 -k 1",
    "count gl -n 100 --ring Z12",
    "count gl -n 100000 --ring Z12",
    "count subspaces -m 50 -n 100 --ring Z12",
    "count subspaces -m 20000 -n 20000 --ring Z12",
    "ring info --ring " + "x".join(["Z4294967291"] * 120),
    "ring info --ring Z2305843009213693951",
    "arc search -n 4 --ring Z7 --budget 141",
    "arc search -n 4 --ring Z7",
    "cap search -n 4 --ring Z3",
    "cap search -n 6 --ring Z2",
    "arc extend --ring Z2xZ2 --points [[[true,0],[0,1]]]",
    "arc complete --ring Z2 --points [[1,0],[0,1],[1,1]] -n 3",
    *(f"arc check --ring Z4 --points {rows}" for rows in [
        "[[]]", "[[],[]]", "[[1,0],[]]", "[[1,0,0],[1]]", "[[true],[1,0]]",
    ]),
    *(f"matrix rank --ring Z4 --matrix {rows}" for rows in [
        "[[true,0]]", '[["a",1]]', "[[1.5,0]]", "[[null,0]]",
    ]),
    "verify --suite counts",
    "verify --suite algebra",
    "verify --suite geometry",
]

REFUSALS = [
    ["matrix", "rank", "--ring", "Z4", "--matrix", "[[1,"],
    ["matrix", "rank", "--ring", "Z4", "--matrix", "[[" + "1" * 5000 + "]]"],
    ["matrix", "rank", "--ring", "Z4", "--matrix", "[" * 100_000],
    ["matrix", "rank", "--ring", "Z4", "--matrix", "@not-utf-8.json"],
    ["matrix", "rank", "--ring", "Z4", "--matrix", "@missing.json"],
    ["matrix", "rank", "--ring", "Z4", "--matrix", "[[1,0],[1]]"],
    ["matrix", "complete", "--ring", "Z4", "--matrix", "[[2,2]]"],
    ["matrix", "right-inverse", "--ring", "Z12", "--matrix", "[[3,0,6]]"],
    ["matrix", "invert", "--ring", "Z4", "--matrix", "[[1,2],[3,4],[5,6]]"],
    ["subspace", "canon", "--ring", "Z4", "--matrix", "[[2,0],[0,1]]"],
    ["singular", "canon", "-n", "1", "-k", "1", "--ring", "Z4", "--matrix", "[[2,1]]"],
    ["singular", "canon", "-n", "1", "-k", "1", "--ring", "Z4", "--matrix", "[[1,0,0]]"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def listed(ring, n, k, m, t):
    """The argv of ``singular enumerate -m -t`` and the rows it lists."""
    argv = ["singular", "enumerate", "--ring", ring, "-n", str(n), "-k", str(k),
            "-m", str(m), "-t", str(t)]
    return argv, [s["rows"] for s in json.loads(run(argv)[1])["subspaces"]]


def singular_calls():
    for n in range(5):
        for m in range(5):
            for t in range(min(m, 4 - n) + 1):
                argv, subspaces = listed("Z4", n, 4 - n, m, t)
                yield argv
                for rows in filter(None, subspaces):
                    yield ["singular", "canon", "--ring", "Z4", "-n", str(n),
                           "-k", str(4 - n), "--matrix", json.dumps(rows)]


def matrix_calls():
    for ring, order in [("Z4", 4), ("Z6", 6)]:
        for a, b, c, d in itertools.product(range(order), repeat=4):
            for command in ("invert", "complete", "right-inverse"):
                yield ["matrix", command, "--ring", ring, "--matrix", f"[[{a},{b}],[{c},{d}]]"]


def subspace_calls():
    subspaces = []
    for m in range(3):
        argv, found = listed("Z4", 2, 0, m, 0)
        yield argv
        subspaces += found
    for a, b in itertools.product(subspaces, repeat=2):
        for command in ("meet", "join", "dimcheck"):
            yield ["subspace", command, "--ring", "Z4", "--a", json.dumps(a), "--b", json.dumps(b)]


SECTIONS = {
    "readme": lambda: (line.split(" ") for line in README),
    "singular": singular_calls,
    "matrix": matrix_calls,
    "subspace": subspace_calls,
    "refusals": lambda: iter(REFUSALS),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, help="write one JSON line per call")
    args = parser.parse_args()
    dump = args.dump.resolve().open("w") if args.dump else None
    everything = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        # @file payloads are named relative to here, so messages hold no temp path
        os.chdir(tmp)
        Path("not-utf-8.json").write_bytes(b"\xff")
        for name, calls in SECTIONS.items():
            digest, count = hashlib.sha256(), 0
            for argv in calls():
                record = json.dumps([argv, *run(argv)]) + "\n"
                digest.update(record.encode())
                everything.update(record.encode())
                count += 1
                if dump:
                    dump.write(record)
            print(f"{name:<9} {count:>5} calls  {digest.hexdigest()}")
    print(f"{'all':<9} {'':>5}        {everything.hexdigest()}")
    if dump:
        dump.close()


if __name__ == "__main__":
    main()
