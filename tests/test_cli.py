"""Command line behavior: JSON contract, round trips, exit codes."""

import json

import pytest

from ringspace import Matrix, Subspace, parse_ring
from ringspace import cli, serialize
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
        back = serialize.parse_subspace(ring, doc)
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
        ],
    )
    def test_malformed_point_rows_name_the_payload(self, capsys, points, message):
        for group in ("arc", "cap"):
            for command in ("check", "complete", "extend"):
                argv = [group, command, "--ring", "Z4", "--points", points]
                assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_arc_max_known_and_unknown(self, capsys):
        doc = run_json(capsys, ["arc", "max", "--ring", "Z6", "-n", "4"])
        assert doc == {"size": 5}
        doc = run_json(capsys, ["cap", "max", "--ring", "Z6", "-n", "4"])
        assert doc == {"size": None}


class TestVerifyCommand:
    def test_geometry_suite(self, capsys):
        doc = run_json(capsys, ["verify", "--suite", "geometry"])
        assert doc["mismatches"] == 0
        assert doc["total"] == 7
        assert all(r["match"] for r in doc["reports"])

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        def fake_verify(suite):
            return [EnumerationReport("forced", 1, 2, False, 0.0)]

        monkeypatch.setattr(cli, "verify_counts", fake_verify)
        code, out, err = run(capsys, ["verify", "--suite", "geometry"])
        assert code == 3
        doc = json.loads(out)
        assert doc["mismatches"] == 1


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

    def test_exit_code_usage_bad_payload(self, capsys):
        code, _, err = run(
            capsys, ["matrix", "rank", "--ring", "Z4", "--matrix", "[[1,"]
        )
        assert code == 2

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

    def test_residue_array_form_for_non_coprime_ring(self, capsys):
        doc = run_json(
            capsys,
            ["subspace", "canon", "--ring", "Z2xZ2", "--matrix", "[[[1,1],[0,1]]]"],
        )
        assert doc["rows"] == [[[1, 1], [0, 1]]]
