"""Command line behavior: JSON contract, round trips, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringspace

from ringspace import Matrix, Subspace, parse_ring
from ringspace import cli, oracle, serialize
from ringspace.oracle import EnumerationReport


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestRingInfo:
    def test_z12(self, capsys):
        doc = run_json(capsys, ["ring", "info", "--ring", "Z12"])
        assert doc["ring"] == "Z4xZ3"
        assert doc["order"] == "12"
        assert doc["units"] == "4"
        assert doc["gl2"] == "4608"
        assert doc["coprime"] is True

    def test_non_coprime_ring(self, capsys):
        doc = run_json(capsys, ["ring", "info", "--ring", "Z2xZ2"])
        assert doc["coprime"] is False

    def test_count_past_4300_digits_is_refused(self, capsys):
        # |GL_2| of 120 factors Z4294967291 has about 4,600 digits
        spec = "x".join(["Z4294967291"] * 120)
        assert run(capsys, ["ring", "info", "--ring", spec]) == (
            1, "", "error: count has more than 4300 digits\n"
        )

    def test_what_fits_still_prints(self, capsys):
        from ringspace import count_gl

        spec = "x".join(["Z4294967291"] * 60)
        ring = parse_ring(spec)
        doc = run_json(capsys, ["ring", "info", "--ring", spec])
        assert doc["order"] == str(ring.order) and doc["units"] == str(ring.unit_count)
        assert doc["gl2"] == str(count_gl(2, ring)) and len(doc["gl2"]) > 2000

    def test_decimal_limit_is_4300_digits(self):
        from ringspace.errors import CountTooLargeError

        assert cli._decimal(10**4300 - 1) == "9" * 4300
        with pytest.raises(CountTooLargeError, match="^count has more than 4300 digits$"):
            cli._decimal(10**4300)


class TestMatrixCommands:
    def test_rank(self, capsys):
        doc = run_json(
            capsys, ["matrix", "rank", "--ring", "Z6", "--matrix", "[[3,0],[0,2]]"]
        )
        assert doc["rank"] == 1

    def test_rank_from_file(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("[[1,0],[0,1]]")
        doc = run_json(capsys, ["matrix", "rank", "--ring", "Z6", "--matrix", f"@{f}"])
        assert doc["rank"] == 2

    def test_complete_satisfies_postcondition(self, capsys):
        ring = parse_ring("Z4")
        doc = run_json(
            capsys, ["matrix", "complete", "--ring", "Z4", "--matrix", "[[2,1]]"]
        )
        a = Matrix.from_entries(ring, [[2, 1]])
        s = serialize.parse_matrix(ring, doc["completion"])
        prod = a.mul(s)
        assert prod.comps == Matrix.from_entries(ring, [[1, 0]]).comps

    def test_invert_round_trip(self, capsys):
        ring = parse_ring("Z6")
        doc = run_json(
            capsys, ["matrix", "invert", "--ring", "Z6", "--matrix", "[[1,2],[3,1]]"]
        )
        inv = serialize.parse_matrix(ring, doc["inverse"])
        a = Matrix.from_entries(ring, [[1, 2], [3, 1]])
        assert a.mul(inv).comps == Matrix.identity(ring, 2).comps

    def test_right_inverse(self, capsys):
        ring = parse_ring("Z6")
        doc = run_json(
            capsys,
            ["matrix", "right-inverse", "--ring", "Z6", "--matrix", "[[1,0,2]]"],
        )
        b = serialize.parse_matrix(ring, doc["right_inverse"])
        a = Matrix.from_entries(ring, [[1, 0, 2]])
        assert a.mul(b).comps == Matrix.identity(ring, 1).comps


class TestSubspaceCommands:
    def test_canon_round_trip(self, capsys):
        ring = parse_ring("Z4")
        doc = run_json(
            capsys, ["subspace", "canon", "--ring", "Z4", "--matrix", "[[2,1]]"]
        )
        assert doc == {"ambient": 2, "dim": 1, "rows": [[2, 1]]}
        back = Subspace.from_matrix(serialize.parse_matrix(ring, doc["rows"]))
        assert back == Subspace.from_matrix(Matrix.from_entries(ring, [[2, 1]]))

    def test_meet_counterexample(self, capsys):
        doc = run_json(
            capsys,
            ["subspace", "meet", "--ring", "Z4", "--a", "[[2,1]]", "--b", "[[0,1]]"],
        )
        assert doc["free"] is False
        assert doc["dim"] == 0
        assert doc["generators"] == [[0, 2]]
        assert doc["canonical"] is None

    def test_join_of_disjoint_lines(self, capsys):
        doc = run_json(
            capsys,
            ["subspace", "join", "--ring", "Z4", "--a", "[[1,0]]", "--b", "[[0,1]]"],
        )
        assert doc["free"] is True
        assert doc["dim"] == 2
        assert doc["canonical"]["rows"] == [[1, 0], [0, 1]]

    def test_dual(self, capsys):
        doc = run_json(
            capsys, ["subspace", "dual", "--ring", "Z4", "--matrix", "[[2,1]]"]
        )
        assert doc["rows"] == [[1, 2]]

    def test_dimcheck(self, capsys):
        doc = run_json(
            capsys,
            [
                "subspace",
                "dimcheck",
                "--ring",
                "Z4",
                "--a",
                "[[2,1]]",
                "--b",
                "[[0,1]]",
            ],
        )
        assert doc["formula_holds"] is False
        assert doc["meet_law"] is None
        doc2 = run_json(
            capsys,
            [
                "subspace",
                "dimcheck",
                "--ring",
                "Z4",
                "--a",
                "[[1,0]]",
                "--b",
                "[[0,1]]",
            ],
        )
        assert doc2["formula_holds"] is True
        assert doc2["meet_law"] is True and doc2["join_law"] is True

    @pytest.mark.parametrize("line", ["[[0,1]]", "[[1,2]]", "[[1,0],[0,1]]"])
    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_operand_is_the_zero_subspace(self, capsys, line, empty_first):
        # no rows give no width, so [] takes the other operand's
        a, b = ("[]", line) if empty_first else (line, "[]")
        pair = ["--ring", "Z4", "--a", a, "--b", b]
        rows = json.loads(line)
        other = {"ambient": 2, "dim": len(rows), "rows": rows}
        zero = {"ambient": 2, "dim": 0, "rows": []}
        meet = run_json(capsys, ["subspace", "meet", *pair])
        assert meet == {"ambient": 2, "dim": 0, "free": True, "generators": [],
                        "canonical": zero}
        join = run_json(capsys, ["subspace", "join", *pair])
        assert join == {"ambient": 2, "dim": len(rows), "free": True,
                        "generators": rows, "canonical": other}
        check = run_json(capsys, ["subspace", "dimcheck", *pair])
        assert check["formula_holds"] is True
        assert (check["dim_join"], check["dim_meet"]) == (len(rows), 0)
        assert check["meet_law"] is True and check["join_law"] is True

    @staticmethod
    def _calls(monkeypatch, module, name):
        """Count the calls of ``module.name`` from here on."""
        calls = [0]
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("op", ["join", "meet"])
    def test_meet_join_rank_each_component_once(self, capsys, monkeypatch, op):
        from ringspace import zps

        ranks = self._calls(monkeypatch, zps, "rank_mod_p")
        argv = ["subspace", op, "--ring", "Z12", "--a", "[[1,0,0]]", "--b", "[[0,1,0]]"]
        run_json(capsys, argv)
        # Z12 has two components; dim, free and canonical share the ranks
        assert ranks == [2]

    @pytest.mark.parametrize(
        "a, b, builds",
        [
            ("[[1,0,0]]", "[[0,1,0]]", 2),  # the pair's, then the duals'
            ("[[2,1]]", "[[0,1]]", 1),  # formula fails: no duals
        ],
    )
    def test_dimcheck_builds_join_and_meet_once(self, capsys, monkeypatch, a, b, builds):
        from ringspace import subspace

        # join and meet come from one builder, so each build is one call
        pairs = self._calls(monkeypatch, subspace, "_join_meet")
        run_json(capsys, ["subspace", "dimcheck", "--ring", "Z4", "--a", a, "--b", b])
        assert pairs == [builds]


class TestCounts:
    def test_subspaces(self, capsys):
        doc = run_json(
            capsys, ["count", "subspaces", "--ring", "Z4", "-n", "2", "-m", "1"]
        )
        assert doc == {"count": "6"}

    def test_gl(self, capsys):
        doc = run_json(capsys, ["count", "gl", "--ring", "Z6", "-n", "2"])
        assert doc == {"count": "288"}

    def test_mt(self, capsys):
        doc = run_json(
            capsys,
            ["count", "mt", "--ring", "Z2", "-m", "1", "-t", "0", "-n", "2", "-k", "1"],
        )
        assert doc == {"count": "6"}

    def test_mt_over(self, capsys):
        doc = run_json(
            capsys,
            [
                "count",
                "mt-over",
                "--ring",
                "Z2",
                "--m1",
                "1",
                "--t1",
                "0",
                "-m",
                "2",
                "-t",
                "1",
                "-n",
                "2",
                "-k",
                "1",
            ],
        )
        assert doc == {"count": "1"}


# Dimensions whose count is far past 4,300 digits, for every count command.
HUGE_COUNTS = [
    ["count", "subspaces", "-m", "50000", "-n", "100000"],
    ["count", "in", "--m1", "50000", "-m", "100000", "-n", "100000"],
    ["count", "over", "--m1", "1", "-m", "50000", "-n", "100000"],
    ["count", "fullrank", "-m", "100", "-n", "100000"],
    ["count", "gl", "-n", "100000"],
    ["count", "mt", "-m", "50000", "-t", "1", "-n", "100000", "-k", "2"],
    ["count", "mt-in", *"--m1 500 --t1 200 -m 1000 -t 500 -n 1000 -k 1000".split()],
    ["count", "mt-over", *"--m1 1 --t1 0 -m 500 -t 200 -n 1000 -k 1000".split()],
    ["singular", "count", "-n", "100000", "-k", "2", "-m", "50000", "-t", "1"],
]


class TestOversizeCounts:
    """A count of more than 4,300 digits, Python's default limit for
    printing an int, is a domain error decided before the formula runs."""

    def test_gl_100_is_refused(self, capsys):
        code, out, err = run(capsys, ["count", "gl", "-n", "100", "--ring", "Z12"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", HUGE_COUNTS, ids=[" ".join(a[:2]) for a in HUGE_COUNTS])
    def test_refused_before_the_formula_runs(self, capsys, monkeypatch, argv):
        from ringspace import counting

        for name in dir(counting):
            if name.startswith("count_"):
                monkeypatch.setattr(counting, name, None)
        code, out, err = run(capsys, [*argv, "--ring", "Z12"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,code,doc",
        [
            ("count gl -n 100000 --ring Z12", 1, None),
            # Z4294967291^1000000 has 9.6 million digits; it is refused unbuilt
            ("arc search -n 1000000 --ring Z4294967291 --budget 0", 1, None),
            # a count of 1, whose formula used to multiply out huge factors
            ("count subspaces -m 20000 -n 20000 --ring Z12", 0, {"count": "1"}),
        ],
    )
    def test_returns_at_once(self, argv, code, doc):
        src = str(Path(ringspace.__file__).parent.parent)
        r = subprocess.run(
            [sys.executable, "-m", "ringspace.cli", *argv.split()], capture_output=True,
            text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src),
        )
        assert r.returncode == code and "Traceback" not in r.stderr
        if doc is None:
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        else:
            assert json.loads(r.stdout) == doc and r.stderr == ""

    def test_limit_is_4300_digits(self, capsys):
        # Z2^14284 has 2^14284 - 1 lines, 4,300 digits; Z2^14285 has 4,301
        lines = ["count", "subspaces", "-m", "1", "--ring", "Z2", "-n"]
        doc = run_json(capsys, [*lines, "14284"])
        assert doc == {"count": str(2**14284 - 1)} and len(doc["count"]) == 4300
        code, out, err = run(capsys, [*lines, "14285"])
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,function,dims",
        [
            ("count subspaces -m 50 -n 100", "count_subspaces", (50, 100)),
            ("count gl -n 60", "count_gl", (60,)),
            # out of a formula's range the count is 0, whatever the dimensions
            ("count fullrank -m 100001 -n 100000", "count_full_rank", (100001, 100000)),
            ("count in --m1 1 -m 100001 -n 100000", "count_subspaces_in", (1, 100001, 100000)),
            (
                "singular count -n 100000 -k 2 -m 100000 -t 3",
                "count_mt_subspaces", (100000, 3, 100000, 2),
            ),
        ],
    )
    def test_what_fits_still_prints(self, capsys, argv, function, dims):
        from ringspace import counting

        doc = run_json(capsys, [*argv.split(), "--ring", "Z12"])
        assert doc == {"count": str(getattr(counting, function)(*dims, parse_ring("Z12")))}


class TestSingularCommands:
    def test_type(self, capsys):
        doc = run_json(
            capsys,
            [
                "singular",
                "type",
                "--ring",
                "Z4",
                "-n",
                "1",
                "-k",
                "1",
                "--matrix",
                "[[1,2]]",
            ],
        )
        assert doc == {"m": 1, "t": 0, "typed": True}

    def test_untyped_reported(self, capsys):
        doc = run_json(
            capsys,
            [
                "singular",
                "type",
                "--ring",
                "Z4",
                "-n",
                "1",
                "-k",
                "1",
                "--matrix",
                "[[2,1]]",
            ],
        )
        assert doc["typed"] is False

    def test_canon_of_untyped_is_domain_error(self, capsys):
        code, out, err = run(
            capsys,
            [
                "singular",
                "canon",
                "--ring",
                "Z4",
                "-n",
                "1",
                "-k",
                "1",
                "--matrix",
                "[[2,1]]",
            ],
        )
        assert code == 1
        assert "type" in err

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 0), (0, 2), (2, 1)])
    def test_empty_rows_are_the_zero_subspace_of_the_space(self, capsys, n, k):
        # no rows give no width, so [] takes the space's n + k
        space = ["--ring", "Z4", "-n", str(n), "-k", str(k), "--matrix", "[]"]
        assert run_json(capsys, ["singular", "type", *space]) == {
            "m": 0, "t": 0, "typed": True
        }
        eye = [[int(i == j) for j in range(n + k)] for i in range(n + k)]
        assert run_json(capsys, ["singular", "canon", *space]) == {
            "transform": eye,
            "canonical": {"ambient": n + k, "dim": 0, "rows": []},
        }

    def test_census(self, capsys):
        doc = run_json(
            capsys, ["singular", "enumerate", "--ring", "Z4", "-n", "1", "-k", "1"]
        )
        assert {"m": 1, "t": 0, "count": "4"} in doc["census"]
        assert {"m": 1, "t": 1, "count": "1"} in doc["census"]
        assert doc["untyped"] == "1"

    def test_enumerate_specific_type(self, capsys):
        doc = run_json(
            capsys,
            [
                "singular",
                "enumerate",
                "--ring",
                "Z2",
                "-n",
                "2",
                "-k",
                "1",
                "-m",
                "1",
                "-t",
                "0",
            ],
        )
        assert doc["count"] == "6"
        assert len(doc["subspaces"]) == 6

    def test_enumerate_without_tail(self, capsys):
        # k = 0: the tail E is the zero subspace of R^n itself
        argv = ["-m", "1", "-t", "0", "-n", "2", "-k", "0", "--ring", "Z4"]
        doc = run_json(capsys, ["singular", "enumerate"] + argv)
        assert doc["count"] == "6"
        assert len(doc["subspaces"]) == 6
        assert run_json(capsys, ["singular", "count"] + argv) == {"count": "6"}


class TestGeometryCommands:
    def test_arc_check(self, capsys):
        doc = run_json(
            capsys,
            ["arc", "check", "--ring", "Z4", "--points", "[[1,0],[0,1],[1,1]]"],
        )
        assert doc == {"arc": True}

    def test_arc_complete(self, capsys):
        doc = run_json(
            capsys,
            ["arc", "complete", "--ring", "Z4", "--points", "[[1,0],[0,1],[1,1]]"],
        )
        assert doc == {"complete": True}

    def test_arc_extend(self, capsys):
        doc = run_json(
            capsys, ["arc", "extend", "--ring", "Z2", "--points", "[[1,0],[0,1]]"]
        )
        assert doc == {"extensions": [[1, 1]]}

    def test_search_and_recheck_round_trip(self, capsys):
        doc = run_json(capsys, ["arc", "search", "--ring", "Z6", "-n", "2"])
        assert doc["size"] == 3
        doc2 = run_json(
            capsys,
            ["arc", "check", "--ring", "Z6", "--points", json.dumps(doc["points"])],
        )
        assert doc2 == {"arc": True}

    def test_cap_search(self, capsys):
        doc = run_json(capsys, ["cap", "search", "--ring", "Z2", "-n", "4"])
        assert doc["size"] == 8

    @pytest.mark.parametrize(
        "ring,points",
        [
            ("Z2xZ2", "[[[true,0],[0,1]]]"),
            ("Z2xZ2", '[[["a",1],[0,1]]]'),
            ("Z2xZ2", "[[[1],[0]]]"),
            ("Z4", "[[true,0]]"),
            ("Z4", "[[1.5,0]]"),
            ("Z4", "[[null,1]]"),
        ],
    )
    def test_point_entries_read_like_matrix_entries(self, capsys, ring, points):
        want = run(capsys, ["matrix", "rank", "--ring", ring, "--matrix", points])
        assert want[0] == 1 and want[1] == ""
        for group in ("arc", "cap"):
            for command in ("check", "complete", "extend"):
                argv = [group, command, "--ring", ring, "--points", points]
                assert run(capsys, argv) == want

    @pytest.mark.parametrize(
        "points,message",
        [
            ("[[]]", "point rows must not be empty"),
            ("[[],[]]", "point rows must not be empty"),
            ("[[1,0],[]]", "point rows must not be empty"),
            ("[[1,0,0],[1]]", "point rows must have equal length"),
            # the row shape is checked before the entries, as for matrices
            ("[[true],[1,0]]", "point rows must have equal length"),
            ("{}", "point set payload must be an array of point rows"),
        ],
    )
    def test_malformed_point_rows_name_the_payload(self, capsys, points, message):
        for group in ("arc", "cap"):
            for command in ("check", "complete", "extend"):
                argv = [group, command, "--ring", "Z4", "--points", points]
                assert run(capsys, argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "group,ring,points,n,length",
        [
            # dependent in Z2^3: padded to length 3 these rows are no arc
            ("arc", "Z2", "[[1,0],[0,1],[1,1]]", 3, 2),
            # caps need n >= 3
            ("cap", "Z3", "[[1,0,0]]", 2, 3),
        ],
    )
    def test_n_must_match_the_point_rows(self, capsys, group, ring, points, n, length):
        message = f"error: -n {n} does not match point rows of length {length}\n"
        for command in ("check", "complete", "extend"):
            argv = [group, command, "--ring", ring, "--points", points, "-n", str(n)]
            assert run(capsys, argv) == (2, "", message)
            argv[-1] = str(length)
            assert run(capsys, argv)[0] == 0

    def test_arc_max_known_and_unknown(self, capsys):
        doc = run_json(capsys, ["arc", "max", "--ring", "Z6", "-n", "4"])
        assert doc == {"size": 5}
        doc = run_json(capsys, ["cap", "max", "--ring", "Z6", "-n", "4"])
        assert doc == {"size": 8}
        doc = run_json(capsys, ["cap", "max", "--ring", "Z5", "-n", "5"])
        assert doc == {"size": None}


class TestVerifyCommand:
    def test_geometry_suite(self, capsys):
        doc = run_json(capsys, ["verify", "--suite", "geometry"])
        assert doc["mismatches"] == 0
        assert doc["total"] == 10
        assert all(r["match"] for r in doc["reports"])

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        def fake_verify(suite):
            return [EnumerationReport("forced", 1, 2, False)]

        # the handler looks verify_counts up in oracle when it runs
        monkeypatch.setattr(oracle, "verify_counts", fake_verify)
        code, out, err = run(capsys, ["verify", "--suite", "geometry"])
        assert code == 3
        doc = json.loads(out)
        assert doc["mismatches"] == 1


# 162 KB of JSON, more than a 64 KiB pipe buffer holds
LONG_OUTPUT = ["singular", "enumerate", "-m", "2", "-t", "1", "-n", "3", "-k", "2", "--ring", "Z4"]


class TestClosedStdout:
    """A reader that closes stdout early (``| head -c 10``) ends the command
    with exit 141, as SIGPIPE would, and no traceback."""

    @pytest.mark.parametrize(
        "entry",
        [["-m", "ringspace.cli"], ["-c", "import sys; from ringspace.cli import main; sys.exit(main())"]],
        ids=["module", "console script"],
    )
    def test_exit_141_without_traceback(self, entry):
        src = str(Path(ringspace.__file__).parent.parent)
        proc = subprocess.Popen(
            [sys.executable, *entry, *LONG_OUTPUT], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
        assert head == b'{\n  "count' and err == b""

    def test_stdout_closed_at_start(self):
        """Python sets sys.stdout to None; the output is dropped and the exit is 0."""
        src = str(Path(ringspace.__file__).parent.parent)
        r = subprocess.run(
            ["sh", "-c", 'exec "$0" -m ringspace.cli ring info --ring Z4 >&-', sys.executable],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (r.returncode, r.stderr) == (0, "")

    def test_a_callers_stream_is_left_alone(self, monkeypatch):
        """A caller's in-memory stdout has no descriptor to repoint."""

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        dups = []
        monkeypatch.setattr(os, "dup2", lambda *args: dups.append(args))
        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(LONG_OUTPUT) == 141 and dups == []


class TestContract:
    def test_byte_determinism(self, capsys):
        argv = ["subspace", "meet", "--ring", "Z12", "--a", "[[2,1]]", "--b", "[[0,1]]"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_exit_code_usage_bad_ring(self, capsys):
        code, out, err = run(
            capsys, ["count", "subspaces", "--ring", "Zx", "-n", "2", "-m", "1"]
        )
        assert code == 2
        assert out == ""

    def test_huge_ring_factor_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["ring", "info", "--ring", "Z2305843009213693951"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        """A broken invariant exits 4 with one stderr line, not a traceback."""
        from ringspace import geometry

        # the direct route now calls every arc complete
        monkeypatch.setattr(geometry, "_covered", lambda n, comp, keys: True)
        argv = ["arc", "complete", "--ring", "Z2", "--points", "[[1,0],[0,1]]"]
        assert run(capsys, argv) == (
            4, "", "internal error: completeness criteria disagree; this is a bug\n"
        )

    def test_exit_code_usage_bad_payload(self, capsys):
        assert run(capsys, ["matrix", "rank", "--ring", "Z4", "--matrix", "[[1,"]) == (
            2, "", "error: payload is not valid JSON: Expecting value: line 1 column 5 (char 4)\n"
        )

    @pytest.mark.parametrize(
        "payload",
        ["[[" + "1" * 5000 + "]]", "[" * 100_000, b"\xff"],
        ids=["5000-digit integer", "deep nesting", "file not utf-8"],
    )
    def test_undecodable_payload_is_usage_error(self, capsys, tmp_path, payload):
        if isinstance(payload, bytes):
            f = tmp_path / "m.json"
            f.write_bytes(payload)
            payload = f"@{f}"
        code, out, err = run(capsys, ["matrix", "rank", "--ring", "Z4", "--matrix", payload])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversize_integer_is_named_as_such(self, capsys):
        """The payload is valid JSON; what is refused is an integer past 4,300 digits."""
        argv = ["matrix", "rank", "--ring", "Z4", "--matrix", "[[" + "1" * 5000 + "]]"]
        assert run(capsys, argv) == (
            2, "", "error: payload has an integer of more than 4300 digits\n"
        )
        argv[-1] = "[[" + "1" * 4300 + "]]"
        assert run(capsys, argv)[0] == 0

    def test_exit_code_domain(self, capsys):
        for spec, rows in [("Z4", "[[2,0],[0,1]]"), ("Z12", "[[1,0],[0,3]]")]:
            code, _, err = run(capsys, ["matrix", "invert", "--ring", spec, "--matrix", rows])
            assert code == 1
            assert err == "error: matrix is not invertible\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["singular", "enumerate", "-n", "-1", "-k", "1", "--ring", "Z4"],
            ["arc", "max", "-n", "-2", "--ring", "Z4"],
            ["count", "gl", "-n", "-1", "--ring", "Z4"],
        ],
    )
    def test_negative_dimension_is_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 2
        assert out == ""

    def test_check_takes_no_budget(self, capsys):
        # check spends no nodes, so a budget option there would do nothing
        argv = ["arc", "check", "--ring", "Z4", "--points", "[[1,0]]", "--budget", "0"]
        code, out, _ = run(capsys, argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("spec,rows", [("Z4", "[[2,0]]"), ("Z12", "[[3,0]]"),
                                           ("Z2xZ2", "[[[1,0],[1,0]]]")])
    @pytest.mark.parametrize(
        "group,command,message",
        [
            ("matrix", "complete", "rows do not have full McCoy rank"),
            ("matrix", "right-inverse", "rows do not have full McCoy rank"),
            ("subspace", "canon", "rows do not span a free direct summand"),
            ("subspace", "dual", "rows do not span a free direct summand"),
        ],
    )
    def test_rank_defect_messages(self, capsys, spec, rows, group, command, message):
        code, out, err = run(capsys, [group, command, "--ring", spec, "--matrix", rows])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_table_output(self, capsys):
        code, out, err = run(
            capsys,
            [
                "count",
                "subspaces",
                "--ring",
                "Z4",
                "-n",
                "2",
                "-m",
                "1",
                "--output",
                "table",
            ],
        )
        assert code == 0
        assert "count: 6" in out

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                ["ring", "info", "--ring", "Z12"],
                "ring: Z4xZ3\n"
                "components:\n"
                "  prime=2  exponent=2  order=4\n"
                "  prime=3  exponent=1  order=3\n"
                "order: 12\nunits: 4\ncoprime: true\ngl2: 4608\n",
            ),
            (
                ["arc", "extend", "--ring", "Z2", "--points", "[[1,0,0],[0,1,0]]"],
                "extensions:\n  [0 0 1]\n  [0 1 1]\n  [1 0 1]\n  [1 1 1]\n",
            ),
            (["cap", "max", "--ring", "Z5", "-n", "5"], "size: -\n"),
            (
                ["singular", "type", "--ring", "Z4", "-n", "1", "-k", "1",
                 "--matrix", "[[2,1]]"],
                "m: 1\nt: 0\ntyped: false\n",
            ),
        ],
        ids=["list of dicts", "list of rows", "none", "bool"],
    )
    def test_table_output_of_nested_payloads(self, capsys, argv, text):
        assert run(capsys, argv + ["--output", "table"]) == (0, text, "")

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["singular", "enumerate", "--ring", "Z4", "-n", "1", "-k", "1", "-m", "1"], 2,
             "give both -m and -t, or neither"),
            (["subspace", "canon", "--ring", "Z4", "--matrix", "[[1,0],[0,1],[1,1]]"], 1,
             "more rows than ambient dimension"),
            (["matrix", "rank", "--ring", "Z4", "--matrix", "5"], 1,
             "matrix payload must be a nested JSON array"),
        ],
    )
    def test_input_refusals(self, capsys, argv, code, message):
        assert run(capsys, argv) == (code, "", f"error: {message}\n")

    def test_empty_point_set_needs_n(self, capsys):
        argv = ["arc", "check", "--ring", "Z4", "--points", "[]"]
        assert run(capsys, argv) == (2, "", "error: empty point set needs an explicit -n\n")
        assert run_json(capsys, argv + ["-n", "3"]) == {"arc": True}

    def test_residue_array_form_for_non_coprime_ring(self, capsys):
        doc = run_json(
            capsys,
            ["subspace", "canon", "--ring", "Z2xZ2", "--matrix", "[[[1,1],[0,1]]]"],
        )
        assert doc["rows"] == [[[1, 1], [0, 1]]]
