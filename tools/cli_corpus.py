"""Run the command line over a fixed corpus and print one digest per section.

Each call goes through ``ringspace.cli.main`` in-process.  Its argv, exit
code, stdout and stderr are hashed in order, into its section's sha256 and
into one over everything.  Two trees that print the same digests give
byte-identical output on the whole corpus.  Run from anywhere:

    python tools/cli_corpus.py [--dump calls.jsonl] [--check FILE]

``--dump`` also writes one JSON line per call, to find a call that differs.
``--check FILE`` compares the digests with those in FILE, which holds this
script's own output, and exits 1 naming each section whose digest differs.
``tools/cli_corpus.sha256`` holds the current digests; after a change meant
to alter the output, regenerate it with

    python tools/cli_corpus.py > tools/cli_corpus.sha256

The sections:

- ``readme``: the README's command lines and the three ``verify`` suites;
- ``singular``: ``singular enumerate -m -t`` for every type of Z4^4 under
  every split 4 = n + k, then ``singular canon`` on each subspace it lists
  but the zero subspace, which ``tests/test_cli.py`` covers;
- ``matrix``: ``matrix invert``, ``complete`` and ``right-inverse`` on every
  2x2 matrix over Z4 and Z6;
- ``transforms``: ``matrix complete`` and ``right-inverse`` on every 1x3 and
  2x3 matrix over Z4 and every 1x3 matrix over Z6 and Z2xZ2, the
  non-square column reductions;
- ``subspace``: ``subspace meet``, ``join`` and ``dimcheck`` on every ordered
  pair of subspaces of Z4^2, as ``singular enumerate -k 0`` lists them;
- ``refusals``: payloads that are refused, and matrices without full rank;
- ``geometry``: ``arc|cap extend`` and ``complete`` over Z6^3, Z12^3, Z9^3
  and Z2xZ3^4, on every prefix of seeded greedy complete sets (grown
  through ``extend``), and on each set plus one point, which is not
  admissible;
- ``max``: ``arc max`` for n = 2..8 and ``cap max`` for n = 3..8 over Z2,
  Z3, Z4, Z5, Z6, Z7, Z9, Z10, Z11, Z12, Z13, Z15, Z21, Z35 and Z2xZ9;
- ``search``: ``arc|cap search`` over rings with a non-field component,
  whose points are those of the search over the residue fields, and the
  budget that just fits and just refuses its ``|F|^n`` charge; each search
  that answers is followed by ``complete`` on the set it prints, with the
  same options.

It takes about 45 seconds on one core.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
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


def transforms_calls():
    for ring, elements, rows in [
        ("Z4", range(4), 1), ("Z4", range(4), 2), ("Z6", range(6), 1),
        ("Z2xZ2", [[x, y] for x in range(2) for y in range(2)], 1),
    ]:
        for entries in itertools.product(elements, repeat=3 * rows):
            matrix = json.dumps([list(entries[i : i + 3]) for i in range(0, 3 * rows, 3)])
            for command in ("complete", "right-inverse"):
                yield ["matrix", command, "--ring", ring, "--matrix", matrix]


def subspace_calls():
    subspaces = []
    for m in range(3):
        argv, found = listed("Z4", 2, 0, m, 0)
        yield argv
        subspaces += found
    for a, b in itertools.product(subspaces, repeat=2):
        for command in ("meet", "join", "dimcheck"):
            yield ["subspace", command, "--ring", "Z4", "--a", json.dumps(a), "--b", json.dumps(b)]


GEOMETRY = [("Z6", 3), ("Z12", 3), ("Z9", 3), ("Z2xZ3", 4)]


def geometry_calls():
    for ring, n in GEOMETRY:
        for kind, seed in itertools.product(("arc", "cap"), range(3)):
            rng = random.Random(f"{kind} {ring}^{n} {seed}")

            def query(command, rows):
                return [kind, command, "--ring", ring, "-n", str(n), "--points", json.dumps(rows)]

            # extend on every prefix, as the set grows
            full = []
            while True:
                argv = query("extend", full)
                yield argv
                cands = json.loads(run(argv)[1])["extensions"]
                if not cands:
                    break
                if not full:
                    first = cands
                full.append(rng.choice(cands))
            # a complete set plus any other point is not admissible
            extra = next(row for row in first if row not in full)
            for rows in [full[:size] for size in range(len(full) + 1)] + [full + [extra]]:
                yield query("complete", rows)
            yield query("extend", full + [extra])


MAX_RINGS = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z9", "Z10", "Z11", "Z12", "Z13",
             "Z15", "Z21", "Z35", "Z2xZ9"]


SEARCH = [
    "arc search -n 3 --ring Z4",
    "cap search -n 3 --ring Z9",
    "arc search -n 4 --ring Z6",
    "arc search -n 3 --ring Z12",
    "cap search -n 4 --ring Z9",
    "cap search -n 4 --ring Z8",
    "cap search -n 5 --ring Z4",
    "arc search -n 3 --ring Z49",
    "arc search -n 3 --ring Z1048576",
    "arc search -n 5 --ring Z21",
    "arc search -n 3 --ring Z4 --budget 7",
    "arc search -n 3 --ring Z4 --budget 8",
]


def search_calls():
    for line in SEARCH:
        argv = line.split(" ")
        yield argv
        code, out, _ = run(argv)
        if code == 0:
            kind, _, *options = argv
            points = json.dumps(json.loads(out)["points"])
            yield [kind, "complete", *options, "--points", points]


def max_calls():
    for ring in MAX_RINGS:
        for kind, low in (("arc", 2), ("cap", 3)):
            for n in range(low, 9):
                yield [kind, "max", "--ring", ring, "-n", str(n)]


SECTIONS = {
    "readme": lambda: (line.split(" ") for line in README),
    "singular": singular_calls,
    "matrix": matrix_calls,
    "subspace": subspace_calls,
    "refusals": lambda: iter(REFUSALS),
    "geometry": geometry_calls,
    "transforms": transforms_calls,
    "max": max_calls,
    "search": search_calls,
}


def read_digests(path: Path) -> dict[str, str]:
    """Section name -> digest, from lines as ``main`` prints them."""
    return {line.split()[0]: line.split()[-1] for line in path.read_text().splitlines() if line.strip()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, help="write one JSON line per call")
    parser.add_argument(
        "--check", type=Path, metavar="FILE",
        help="compare with the digests in FILE; exit 1 naming each section that differs",
    )
    args = parser.parse_args()
    # read before the working directory moves, as FILE may be a relative path
    want = read_digests(args.check) if args.check else None
    dump = args.dump.resolve().open("w") if args.dump else None
    digests = {}
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
            digests[name] = digest.hexdigest()
            print(f"{name:<9} {count:>5} calls  {digests[name]}")
    digests["all"] = everything.hexdigest()
    print(f"{'all':<9} {'':>5}        {digests['all']}")
    if dump:
        dump.close()
    if want is None:
        return 0
    differ = [name for name in {**want, **digests} if want.get(name) != digests.get(name)]
    for name in differ:
        print(f"digest differs from {args.check}: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
