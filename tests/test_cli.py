"""Scenario interchange format and the command-line entry point."""

import argparse
import dataclasses
import io as _io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracles

from stratalg import CondVector, Grid, GridFn, MeasurableSet, _solvers, cli, functions, linalg
from stratalg import sequences, sets
from stratalg._solvers import LPResult
from stratalg.io import ParseError, build_scenario, emit_document, load_document


def scenario_doc():
    """A small two-atom scenario exercising every section."""
    alternating = {}
    for t in range(1, 7):
        alternating[f"s{t}"] = [[(-1.0) ** t, 0.0]] * 2
    xs = np.arange(-2.0, 2.001, 0.5)
    return {
        "weights": [1.0, 2.0],
        "d": 2,
        "vectors": {
            "z": [[0.0, 0.0], [0.0, 0.0]],
            "e1": [[1.0, 0.0], [1.0, 0.0]],
            "e2": [[0.0, 1.0], [0.0, 1.0]],
            "m1": [[-1.0, 0.0], [-1.0, 0.0]],
            "m2": [[0.0, -1.0], [0.0, -1.0]],
            "p": [[1.0, 0.0], [1.0, 0.0]],
            "q": [[-1.0, 0.0], [-1.0, 0.0]],
            "far": [[3.0, 0.0], [3.0, 0.0]],
            "b1": [[-1.0, -1.0], [-1.0, -1.0]],
            "b2": [[1.0, -1.0], [1.0, -1.0]],
            "b3": [[1.0, 1.0], [1.0, 1.0]],
            "b4": [[-1.0, 1.0], [-1.0, 1.0]],
            "x0": [[0.25, 0.5], [0.5, 0.25]],
            **alternating,
        },
        "sets": {"A": [1, 0]},
        "scalars": {
            "zero": [0.0, 0.0],
            "half": [0.5, 0.5],
            "eps_wide": [3.0, 3.0],
            "eps_tight": [0.2, 0.2],
            "vbound": [1.0, 1.0],
            "sbound": [2.0, 2.0],
        },
        "convex_sets": {
            "box": {"points": ["b1", "b2", "b3", "b4"]},
            "dot": {"points": ["far"]},
            "ray_set": {"points": ["z"], "rays": ["e1"]},
            "line_x": {"points": ["z"], "lines": ["e1"]},
            "seg": {"points": ["z", "p"]},
        },
        "functions": {
            "absmax": {
                "type": "max_affine",
                "pieces": [["e1", "zero"], ["m1", "zero"], ["e2", "zero"], ["m2", "zero"]],
            },
            "gabs": {
                "type": "grid",
                "mins": [-2.0],
                "maxs": [2.0],
                "steps": [0.5],
                "values": [list(np.abs(xs))] * 2,
            },
        },
        "sequences": {
            "osc": {"terms": [f"s{t}" for t in range(1, 7)], "bound": "sbound"},
        },
    }


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(emit_document(scenario_doc()))
    return str(path)


def run_cli(argv):
    buf = _io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def num(v):
    """Undo the infinity sentinels of the interchange format."""
    if v == "+inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    return v


class TestInterchange:
    def test_round_trip_is_byte_stable(self, scenario_path):
        text = open(scenario_path).read()
        doc = load_document(scenario_path)
        assert emit_document(doc) == text

    def test_output_round_trips(self, scenario_path):
        _, out = run_cli(["separate", scenario_path, "--first", "box", "--second", "dot"])
        assert emit_document(json.loads(out)) == out

    def test_infinity_sentinels(self, tmp_path):
        doc = scenario_doc()
        doc["scalars"]["top"] = ["+inf", 0.0]
        path = tmp_path / "inf.json"
        path.write_text(emit_document(doc))
        text = path.read_text()
        assert '"+inf"' in text
        scn = build_scenario(load_document(str(path)))
        assert scn.ext_scalar("top").values.tolist() == [np.inf, 0.0]
        with pytest.raises(ParseError):
            scn.scalar("top")  # finite context rejects the sentinel

    def test_nan_never_emitted(self):
        with pytest.raises(ValueError):
            emit_document({"scalars": {"bad": [float("nan")]}})

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_document(str(bad))
        with pytest.raises(ParseError):
            load_document(str(tmp_path / "missing.json"))
        with pytest.raises(ParseError):
            build_scenario({"weights": [1.0]})  # no d
        with pytest.raises(ParseError):
            build_scenario({"weights": [1.0, -1.0], "d": 2})
        # an entry is checked when it is read
        scn = build_scenario({"weights": [1.0], "d": 2, "vectors": {"v": [[1.0]]}})
        with pytest.raises(ParseError, match="vector 'v' must be a 1x2 array"):
            scn.vector("v")
        scn = build_scenario(
            {"weights": [1.0], "d": 1, "convex_sets": {"c": {"points": ["ghost"]}}}
        )
        with pytest.raises(ParseError, match="unknown vector 'ghost'"):
            scn.convex_set("c")

    def test_scenario_accessors(self, scenario_path):
        scn = build_scenario(load_document(scenario_path))
        assert scn.vector("e1").values.shape == (2, 2)
        assert scn.measurable_set("A").mask.tolist() == [True, False]
        assert scn.sequence("osc").horizon == 6
        assert scn.convex_set("box").points.shape[2] == 2
        with pytest.raises(ParseError):
            scn.vector("nope")


class TestCommands:
    def test_separate_golden_gap(self, scenario_path):
        code, doc = run_json(
            ["separate", scenario_path, "--first", "seg", "--second", "dot"]
        )
        assert code == 0
        # nearest points (1,0) and (3,0): normal (-2,0), gap |Z|^2 = 4
        assert doc["sets"]["failure_set"] == [0, 0]
        z = np.array(doc["vectors"]["Z"])
        assert np.allclose(np.abs(z), [[2.0, 0.0]] * 2, atol=1e-6)
        assert np.allclose(doc["scalars"]["gap"], 4.0, atol=1e-6)
        assert np.allclose(doc["scalars"]["distance"], 2.0, atol=1e-6)

    def test_separate_strict_failure_exits_2(self, scenario_path):
        code, doc = run_json(
            ["separate", scenario_path, "--first", "box", "--second", "seg", "--strict"]
        )
        assert code == 2
        assert doc["certificates"]["failure_atom_count"] == 2
        code0, _ = run_cli(
            ["separate", scenario_path, "--first", "box", "--second", "seg"]
        )
        assert code0 == 0

    def test_separate_proper_rejects_tol(self, scenario_path):
        # proper separation reads no zero tolerance, so --tol would do nothing
        argv = ["separate", scenario_path, "--first", "box", "--second", "seg", "--kind", "proper"]
        code, doc = run_json([*argv, "--tol", "1e-3"])
        assert code == 1
        assert doc["error"]["kind"] == "ParseError"
        assert "--tol" in doc["error"]["message"]
        assert run_cli(argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ["fenchel-moreau", "--function", "gabs"],
        ["argmin", "--function", "absdom", "--set", "box"],
        ["bounded-test", "--set", "ray_set"],
        ["ri-test", "--point", "p", "--set", "seg", "--mode", "relative"],
    ], ids=lambda argv: argv[0])
    def test_strict_turns_a_failed_check_into_exit_2(self, tmp_path, monkeypatch, argv):
        doc = scenario_doc()
        # a domain that misses the box: argmin is infeasible on every atom
        doc["functions"]["absdom"] = {"type": "max_affine", "domain": "dot",
                                      "pieces": [["e1", "zero"], ["m1", "zero"]]}
        path = tmp_path / "scenario.json"
        path.write_text(emit_document(doc))
        real = cli.fenchel_moreau_check

        def idempotent_fails_on_atom_0(f, dual):
            rep = real(f, dual)
            return dataclasses.replace(rep, idempotent_ok=MeasurableSet(f.space, [False, True]))

        monkeypatch.setattr(cli, "fenchel_moreau_check", idempotent_fails_on_atom_0)
        argv = [argv[0], str(path), *argv[1:]]
        code, out = run_cli(argv)
        assert code == 0 and "error" not in json.loads(out)
        assert run_cli(argv + ["--strict"]) == (2, out)

    def test_basis_zero_generator(self, scenario_path):
        code, doc = run_json(["basis", scenario_path, "--generators", "z"])
        assert code == 0
        assert doc["integers"]["labels"] == [0, 0]

    def test_basis_and_orthonormalize(self, scenario_path):
        code, doc = run_json(
            ["basis", scenario_path, "--generators", "e1", "e2", "p"]
        )
        assert code == 0
        assert doc["integers"]["labels"] == [2, 2]
        code, doc = run_json(
            ["orthonormalize", scenario_path, "--generators", "e1", "e2"]
        )
        assert code == 0
        assert np.allclose(doc["vectors"]["U_1"], [[1.0, 0.0]] * 2)
        assert np.allclose(doc["scalars"]["gram_defect"], 0.0, atol=1e-12)

    def test_decompose(self, scenario_path):
        code, doc = run_json(
            ["decompose", scenario_path, "--vector", "x0", "--generators", "e1"]
        )
        assert code == 0
        y = np.array(doc["vectors"]["Y"])
        z = np.array(doc["vectors"]["Z"])
        assert np.allclose(y, [[0.25, 0.0], [0.5, 0.0]], atol=1e-9)
        assert np.allclose(z, [[0.0, 0.5], [0.0, 0.25]], atol=1e-9)
        assert doc["certificates"]["max_orthogonality_defect"] <= 1e-9

    def test_hahn_banach_certificate(self, scenario_path):
        code, doc = run_json(
            [
                "hahn-banach", scenario_path,
                "--bound", "absmax", "--subspace", "line_x", "--values", "half",
            ]
        )
        assert code == 0
        assert np.allclose(doc["vectors"]["h"], [[0.5, 0.0]] * 2, atol=1e-6)
        assert doc["certificates"]["max_probe_excess"] <= 1e-9
        assert doc["certificates"]["probe_count"] == 200

    def test_conjugate_grid(self, scenario_path):
        code, doc = run_json(
            [
                "conjugate", scenario_path, "--function", "gabs",
                "--mins", "-2", "--maxs", "2", "--steps", "0.5",
            ]
        )
        assert code == 0
        ys = np.arange(-2.0, 2.001, 0.5)
        want = np.where(np.abs(ys) <= 1.0, 0.0, 2.0 * (np.abs(ys) - 1.0))
        got = np.array(doc["functions"]["result"]["values"], dtype=float)
        assert np.allclose(got, want[None, :], atol=1e-9)

    def test_conjugate_needs_dual_grid_for_max_affine(self, scenario_path):
        code, doc = run_json(["conjugate", scenario_path, "--function", "absmax"])
        assert code == 1
        assert doc["error"]["kind"] == "ParseError"

    @pytest.mark.parametrize("argv, lps", [
        (["conjugate", "--function", "absmax", "--mins=-1,-1", "--maxs", "1,1", "--steps", "2,2"],
         4),
        (["ri-test", "--point", "z", "--set", "box"], 1),
        (["separate", "--first", "seg", "--second", "dot", "--kind", "proper"], 2),
    ], ids=["conjugate", "ri-test", "separate-proper"])
    def test_lp_failure_exits_2_with_atoms(self, tmp_path, monkeypatch, argv, lps):
        # atom 1 is atom 0 scaled by 2, so the two atoms are not one block
        # and each makes its own LPs: atom 0 makes its `lps` LPs first, and
        # every later LP is atom 1's
        doc = scenario_doc()
        doc["vectors"] = {name: [a, [2.0 * x for x in b]]
                          for name, (a, b) in doc["vectors"].items()}
        scenario_path = tmp_path / "scaled.json"
        scenario_path.write_text(emit_document(doc))
        real, calls = _solvers.solve_lp, []

        def fail_on_atom_1(model, k, c, hot=False):
            calls.append(c)
            return LPResult(4, None, None) if len(calls) > lps else real(model, k, c, hot=hot)

        for mod in (_solvers, functions):
            monkeypatch.setattr(mod, "solve_lp", fail_on_atom_1)
        code, doc = run_json([argv[0], str(scenario_path), *argv[1:]])
        assert code == 2
        assert doc["error"]["kind"] == "SolverError"
        assert doc["error"]["atoms"] == [1]
        assert len(calls) == lps + 1

    def test_separate_proper_certified_atoms_make_no_lp(self, scenario_path, monkeypatch):
        # the origin is interior to box - seg on both atoms: the spanning
        # certificate fails them with zero normals before any dual-cone LP
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(_solvers, "solve_lp", no_lp)
        code, doc = run_json(["separate", scenario_path, "--first", "box", "--second", "seg",
                              "--kind", "proper"])
        assert code == 0
        assert doc["sets"]["failure_set"] == [1, 1]
        assert doc["vectors"]["Z"] == [[0, 0], [0, 0]]

    def test_fenchel_moreau(self, scenario_path):
        code, doc = run_json(["fenchel-moreau", scenario_path, "--function", "gabs"])
        assert code == 0
        assert doc["sets"]["minorant_ok"] == [1, 1]
        assert doc["sets"]["idempotent_ok"] == [1, 1]
        assert doc["certificates"]["all_ok"] is True
        assert doc["certificates"]["max_deviation_overall"] <= 2 * 0.5

    def test_subgrad_with_and_without_bound(self, scenario_path):
        code, doc = run_json(
            ["subgrad", scenario_path, "--function", "absmax", "--point", "z"]
        )
        assert code == 0
        assert np.allclose(doc["vectors"]["Y"], 0.0, atol=1e-7)
        assert doc["certificates"]["max_probe_violation"] <= 1e-9
        code, doc = run_json(
            [
                "subgrad", scenario_path, "--function", "absmax",
                "--point", "z", "--bound", "vbound",
            ]
        )
        assert code == 0

    def test_argmin(self, scenario_path):
        code, doc = run_json(
            ["argmin", scenario_path, "--function", "absmax", "--set", "box"]
        )
        assert code == 0
        assert np.allclose(doc["scalars"]["value"], 0.0, atol=1e-7)
        assert np.allclose(doc["vectors"]["minimizer"], 0.0, atol=1e-7)
        assert doc["sets"]["unique_set"] == [1, 1]

    def test_infconv_with_checks(self, scenario_path):
        code, doc = run_json(
            [
                "infconv", scenario_path,
                "--functions", "gabs", "gabs", "--check",
            ]
        )
        assert code == 0
        xs = np.arange(-2.0, 2.001, 0.5)
        got = np.array(doc["functions"]["result"]["values"], dtype=float)
        assert np.allclose(got, np.abs(xs)[None, :])
        assert "split_1" in doc["integers"] and "split_2" in doc["integers"]
        assert doc["certificates"]["max_output_convexity_defect"] <= 1e-12
        assert "max_additivity_defect" in doc["certificates"]

    def test_bw_matches_oracle(self, scenario_path):
        code, doc = run_json(
            ["bw", scenario_path, "--sequence", "osc", "--depth", "2", "--slack", "0"]
        )
        assert code == 0
        data = np.array([[(-1.0) ** t, 0.0] for t in range(1, 7)])
        want, _ = oracles.bw_stages(data, 2, 0.0)
        assert doc["integers"]["N_1"] == [want[0]] * 2
        assert doc["integers"]["N_2"] == [want[1]] * 2
        assert np.allclose(doc["vectors"]["limit"], [[-1.0, 0.0]] * 2)

    def test_bw_stall_exits_2_with_atoms(self, scenario_path):
        code, doc = run_json(
            ["bw", scenario_path, "--sequence", "osc", "--depth", "5", "--slack", "0"]
        )
        assert code == 2
        assert doc["error"]["kind"] == "ExtractionStalledError"
        assert doc["error"]["atoms"] == [0, 1]

    def test_cauchy(self, scenario_path):
        code, doc = run_json(
            [
                "cauchy", scenario_path, "--sequence", "osc",
                "--eps", "eps_wide", "eps_tight",
            ]
        )
        assert code == 0
        assert doc["sets"]["cauchy_on"] == [0, 0]
        assert doc["integers"]["cut_1"] == [1, 1]
        assert doc["integers"]["cut_2"] == [0, 0]
        assert doc["scalars"]["tail_diameter_2"] == ["+inf", "+inf"]
        strict_code, _ = run_cli(
            [
                "cauchy", scenario_path, "--sequence", "osc",
                "--eps", "eps_tight", "--strict",
            ]
        )
        assert strict_code == 2

    def test_bounded_test(self, scenario_path):
        code, doc = run_json(["bounded-test", scenario_path, "--set", "ray_set"])
        assert code == 0
        assert doc["sets"]["bounded_on"] == [0, 0]
        assert np.allclose(doc["vectors"]["witness"], [[1.0, 0.0]] * 2)
        code, doc = run_json(["bounded-test", scenario_path, "--set", "box"])
        assert code == 0
        assert doc["sets"]["bounded_on"] == [1, 1]

    def test_ri_test(self, scenario_path):
        code, doc = run_json(
            ["ri-test", scenario_path, "--point", "z", "--set", "box"]
        )
        assert code == 0
        assert doc["sets"]["member_set"] == [1, 1]
        code, doc = run_json(
            ["ri-test", scenario_path, "--point", "p", "--set", "seg", "--mode", "relative"]
        )
        assert code == 0
        assert doc["sets"]["member_set"] == [0, 0]  # endpoint


class TestCliFailureModes:
    def test_missing_file(self):
        code, doc = run_json(["basis", "/nonexistent.json", "--generators", "z"])
        assert code == 1
        assert doc["error"]["kind"] == "ParseError"

    def test_dangling_name(self, scenario_path):
        code, doc = run_json(
            ["separate", scenario_path, "--first", "ghost", "--second", "dot"]
        )
        assert code == 1
        assert "ghost" in doc["error"]["message"]

    def test_oversized_integer_literal(self, tmp_path):
        # float() overflows on 401 digits; json itself refuses 5000 digits
        for digits, where in ((401, "vector big"), (5000, "not valid JSON")):
            doc = scenario_doc()
            doc["vectors"]["big"] = [[0.0, 12345.0], [0.0, 0.0]]
            path = tmp_path / f"big{digits}.json"
            path.write_text(emit_document(doc).replace("12345", "9" * digits))
            code, out = run_json(["basis", str(path), "--generators", "big"])
            assert code == 1
            assert out["error"]["kind"] == "ParseError"
            assert where in out["error"]["message"]

    @pytest.mark.parametrize("tol, code", [("1e-13", 1), ("1e-12", 1), ("1.1e-12", 0)])
    def test_ri_test_tol_floor(self, scenario_path, capsys, tol, code):
        # the margin LP matches the target to EQ_TOL = 1e-12, so a lower
        # --tol would call boundary points relatively interior
        argv = ["ri-test", scenario_path, "--point", "z", "--set", "box", "--tol", tol]
        got, out = run_cli(argv)
        assert got == code
        if code:
            assert out == "" and "> 1e-12" in capsys.readouterr().err
        else:
            assert json.loads(out)["sets"]["member_set"] == [1, 1]

    @pytest.mark.parametrize("flag, value", [("--mins", "nan"), ("--maxs", "inf"),
                                             ("--steps", "inf"), ("--mins", "-inf")])
    def test_non_finite_dual_grid(self, scenario_path, capsys, flag, value):
        grid = {"--mins": "-2", "--maxs": "2", "--steps": "0.5", flag: value}
        argv = ["conjugate", scenario_path, "--function", "gabs"]
        code, doc = run_json(argv + [a for pair in grid.items() for a in pair])
        assert code == 1
        assert doc["error"] == {"kind": "ShapeError", "message": "grid axes must be finite"}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("step", ["1e-300", "1e-7"])
    def test_dual_grid_over_the_node_cap(self, scenario_path, capsys, step):
        # 1e-300 was a ValueError traceback, 1e-7 a 40 000 001-node dual grid
        argv = ["conjugate", scenario_path, "--function", "gabs", "--mins", "-2", "--maxs", "2",
                "--steps", step]
        code, doc = run_json(argv)
        assert code == 1
        assert doc["error"] == {"kind": "ShapeError",
                                "message": "a grid holds at most 2**24 = 16777216 nodes"}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key, literal", [("mins", "NaN"), ("maxs", '"+inf"')])
    def test_non_finite_scenario_grid_axis(self, tmp_path, key, literal):
        text = emit_document(scenario_doc())
        bound = f'"{key}": [{"-2" if key == "mins" else "2"}]'
        assert text.count(bound) == 1
        path = tmp_path / "axis.json"
        path.write_text(text.replace(bound, f'"{key}": [{literal}]'))
        code, doc = run_json(["fenchel-moreau", str(path), "--function", "gabs"])
        assert code == 1
        assert doc["error"] == {"kind": "ParseError",
                                "message": "inconsistent scenario: grid axes must be finite"}

    def test_unknown_command(self, scenario_path):
        code, _ = run_cli(["frobnicate", scenario_path])
        assert code == 1

    def test_bad_flag_value_exits_1_without_doc(self, scenario_path, capsys):
        code, out = run_cli(
            ["ri-test", scenario_path, "--point", "z", "--set", "box", "--mode", "bogus"]
        )
        assert code == 1
        assert out == ""  # argparse complains on stderr only

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol", "0"),  # was silently replaced by the default
            ("--tol", "nan"),  # gave rank 0 on every atom
            ("--tol", "-1"),  # gave label 2 everywhere
            ("--tol", "inf"),
            ("--tol", "abc"),
            ("--seed", "-1"),  # crashed in numpy
            ("--seed", "1.5"),
            ("--probes", "-1"),  # crashed in numpy
            ("--probes", "0"),
            ("--probes", "65537"),  # drew a (count, d) array before any work
            ("--slack", "nan"),  # crashed in numpy
            ("--slack", "inf"),
            ("--slack", "-1"),
        ],
    )
    def test_bad_numeric_flag_exits_1(self, scenario_path, capsys, flag, value):
        argv = ["subgrad", scenario_path, "--function", "absmax", "--point", "x0"]
        if flag == "--tol":
            argv = ["basis", scenario_path, "--generators", "e1"]
        if flag == "--slack":
            argv = ["bw", scenario_path, "--sequence", "osc", "--depth", "2"]
        code, out = run_cli(argv + [flag, value])
        assert code == 1
        assert out == ""
        assert f"argument {flag}" in capsys.readouterr().err

    def test_smallest_numeric_flags_accepted(self, scenario_path):
        code, doc = run_json(["basis", scenario_path, "--generators", "e1", "--tol", "5e-324"])
        assert code == 0
        assert doc["integers"]["labels"] == [1, 1]
        argv = ["subgrad", scenario_path, "--function", "absmax", "--point", "x0"]
        code, doc = run_json(argv + ["--seed", "0", "--probes", "1"])
        assert code == 0
        assert doc["certificates"]["probe_count"] == 1

    @pytest.mark.parametrize("command", ["orthonormalize", "decompose"])
    def test_tol_reaches_the_frame(self, tmp_path, command):
        # b is independent of a at --tol 1e-12 but not at the default RANK_TOL,
        # so a frame that re-tested with the default would find the label wrong
        doc = {"weights": [1.0], "d": 2,
               "vectors": {"a": [[1.0, 0.0]], "b": [[1.0, 1e-11]], "x": [[0.3, 0.7]]}}
        path = tmp_path / "near.json"
        path.write_text(emit_document(doc))
        gens = ["--generators", "a", "b", "--tol", "1e-12"]
        code, out = run_json(["basis", str(path), *gens])
        assert code == 0 and out["integers"]["labels"] == [2]
        extra = ["--vector", "x"] if command == "decompose" else []
        code, out = run_json([command, str(path), *extra, *gens])
        assert code == 0
        if command == "orthonormalize":
            assert out["integers"]["labels"] == [2]
        else:
            assert np.allclose(out["vectors"]["Y"], [[0.3, 0.7]])


# shared flag -> the commands whose handlers read it; the other commands reject it
SHARED_FLAGS = {
    "--tol": ("basis", "orthonormalize", "decompose", "separate", "hahn-banach", "argmin",
              "bounded-test", "ri-test"),
    "--seed": ("hahn-banach", "subgrad"),
    "--strict": ("separate", "fenchel-moreau", "argmin", "cauchy", "bounded-test", "ri-test"),
}
FLAG_ARGS = {"--tol": ["--tol", "1e-9"], "--seed": ["--seed", "3"], "--strict": ["--strict"]}
COMMAND_ARGS = {
    "basis": ["--generators", "e1", "e2"],
    "orthonormalize": ["--generators", "e1", "e2"],
    "decompose": ["--vector", "x0", "--generators", "e1"],
    "separate": ["--first", "seg", "--second", "dot"],
    "hahn-banach": ["--bound", "absmax", "--subspace", "line_x", "--values", "half",
                    "--probes", "2"],
    "conjugate": ["--function", "gabs", "--mins", "-2", "--maxs", "2", "--steps", "0.5"],
    "fenchel-moreau": ["--function", "gabs"],
    "subgrad": ["--function", "absmax", "--point", "x0", "--probes", "2"],
    "argmin": ["--function", "absmax", "--set", "box"],
    "infconv": ["--functions", "gabs", "gabs"],
    "bw": ["--sequence", "osc", "--depth", "2", "--slack", "0"],
    "cauchy": ["--sequence", "osc", "--eps", "eps_wide"],
    "bounded-test": ["--set", "box"],
    "ri-test": ["--point", "z", "--set", "box"],
}


def library_results(scn, command):
    """Every vector, scalar, set and grid function in the document of
    ``command`` with its ``COMMAND_ARGS`` (``infconv`` with ``--check``),
    from the library ops, by section and name."""
    vec, fn, cset = scn.vector, scn.function, scn.convex_set
    gens = [vec("e1"), vec("e2")]

    def probe_max(margin):  # the handlers' probe certificates, seed 7, 2 probes
        rows = functions._probe_directions(7, 2, scn.d)
        return np.max([margin(CondVector.constant(scn.space, row)) for row in rows], axis=0)

    if command == "basis":
        basis = linalg.rank_partition(gens)
        return {"vectors": {f"X_{i + 1}": v for i, v in enumerate(basis.vectors)}}
    if command == "orthonormalize":
        frame = linalg.orthonormalize(linalg.rank_partition(gens))
        return {"vectors": {f"U_{i + 1}": frame.vector(i) for i in range(frame.dim)},
                "scalars": {"gram_defect": frame.gram_defect()}}
    if command == "decompose":
        y, z = linalg.decompose(vec("x0"), linalg.orthonormalize(linalg.rank_partition(gens[:1])))
        return {"vectors": {"Y": y, "Z": z},
                "scalars": {"norm_Y": y.norm(), "norm_Z": z.norm(),
                            "orthogonality": np.abs(z.inner(gens[0]).values)}}
    if command == "separate":
        res = sets.separate(cset("seg"), cset("dot"))
        scalars = {"gap": res.gap, "distance": res.distance, "strict_excess": res.strict_excess}
        return {"vectors": {"Z": res.normal}, "sets": {"failure_set": res.failure_set},
                "scalars": {name: v for name, v in scalars.items() if v is not None}}
    if command == "hahn-banach":
        p = fn("absmax")
        h = sets.hahn_banach_extend(p, cset("line_x"), [scn.scalar("half")])
        excess = probe_max(lambda u: h.inner(u).values - p.eval(u).values)
        return {"vectors": {"h": h}, "scalars": {"probe_excess": excess}}
    if command == "conjugate":
        return {"functions": {"result": functions.conjugate(fn("gabs"), Grid(-2.0, 2.0, 0.5))}}
    if command == "fenchel-moreau":
        rep = functions.fenchel_moreau_check(fn("gabs"))
        return {"functions": {"biconjugate": rep.biconjugate, "conjugate": rep.conjugate,
                              "envelope": rep.envelope},
                "scalars": {"max_deviation": rep.max_deviation},
                "sets": {"minorant_ok": rep.minorant_ok, "idempotent_ok": rep.idempotent_ok}}
    if command == "subgrad":
        f, x0 = fn("absmax"), vec("x0")
        y = functions.subdifferential(f, x0).representative
        f0 = f.eval(x0).values
        violation = probe_max(lambda u: f0 + u.inner(y).values - f.eval(x0 + u).values)
        return {"vectors": {"Y": y},
                "scalars": {"rep_norm": y.norm(), "probe_violation": violation}}
    if command == "argmin":
        r = functions.argmin(fn("absmax"), cset("box"))
        return {"vectors": {"minimizer": r.minimizer}, "scalars": {"value": r.value},
                "sets": {"unique_set": r.unique_set}}
    if command == "infconv":
        fs = [fn("gabs"), fn("gabs")]
        r = functions.inf_convolution(fs)
        checks = functions.infconv_checks(fs, r)
        return {"functions": {"result": r.value},
                "scalars": {"input_convexity_defect": r.input_convexity_defect,
                            "output_convexity_defect": r.output_convexity_defect,
                            "additivity_defect": checks.additivity_defect},
                "sets": {"subdiff_ok": checks.subdiff_ok, "interior_ok": checks.interior_ok}}
    if command == "bw":
        r = sequences.bw_extract(scn.sequence("osc"), 2, 0.0)
        return {"vectors": {"limit": r.limit, "stage_liminfs": r.stage_liminfs}}
    if command == "cauchy":
        r = sequences.cauchy_limit(scn.sequence("osc"), [scn.scalar("eps_wide")])
        return {"vectors": {"limit": r.limit}, "sets": {"cauchy_on": r.cauchy_on},
                "scalars": {f"tail_diameter_{j + 1}": t for j, t in enumerate(r.tail_diameters)}}
    if command == "bounded-test":
        bounded_on, witness = sets.bounded_test(cset("box"))
        return {"vectors": {"witness": witness}, "sets": {"bounded_on": bounded_on}}
    assert command == "ri-test"
    return {"sets": {"member_set": sets.ri_membership(vec("z"), cset("box"))}}


def bits(v):
    if isinstance(v, GridFn):
        return v.grid, v.values.tobytes()
    if isinstance(v, MeasurableSet):
        return v.mask.tobytes()
    return np.asarray(getattr(v, "values", v), dtype=float).tobytes()


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_reader_reads_back_what_the_writer_wrote(scenario_path, tmp_path, command):
    # a result document is a scenario: its accessors give back every
    # emitted value with the bits of the library result
    extra = ["--check"] if command == "infconv" else []
    code, out = run_cli([command, scenario_path, *COMMAND_ARGS[command], *extra])
    assert code == 0
    path = tmp_path / "result.json"
    path.write_text(out)
    back = build_scenario(load_document(str(path)))
    readers = {"vectors": back.vector, "scalars": back.ext_scalar, "sets": back.measurable_set,
               "functions": back.function}
    want = library_results(build_scenario(load_document(scenario_path)), command)
    emitted = json.loads(out)
    assert {s: sorted(emitted.get(s, {})) for s in readers} == {
        s: sorted(want.get(s, {})) for s in readers}
    for section, read in readers.items():
        for name, value in want.get(section, {}).items():
            assert bits(read(name)) == bits(value), (section, name)


@pytest.mark.parametrize("flag", list(SHARED_FLAGS))
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_each_command_takes_only_the_shared_flags_it_reads(scenario_path, capsys, command, flag):
    assert set(COMMAND_ARGS) == set(_commands())
    code, out = run_cli([command, scenario_path, *COMMAND_ARGS[command], *FLAG_ARGS[flag]])
    if command in SHARED_FLAGS[flag]:
        assert code in (0, 2)  # --strict may turn a failure set into exit 2
        assert "error" not in json.loads(out)
    else:
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {FLAG_ARGS[flag][0]}" in capsys.readouterr().err


def _commands():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


PROBES = ("0", "1", "1e-12", "1.1e-12", "-1", "2.5", "nan", "inf", "x")


def _type_verdicts(convert):
    """What an option's ``type=`` makes of a few probe texts."""
    out = []
    for text in PROBES:
        try:
            out.append(convert(text))
        except (argparse.ArgumentTypeError, ValueError):
            out.append("rejected")
    return tuple(out)


def command_options():
    return {
        name: {" ".join(a.option_strings) or a.dest:
               (type(a).__name__, a.required, a.nargs, a.type and _type_verdicts(a.type),
                a.default, a.choices)
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in _commands().items()
    }


# what each option type makes of PROBES
R = "rejected"
TOL = (R, 1.0, 1e-12, 1.1e-12, R, 2.5, R, R, R)
RI_TOL = (R, 1.0, R, 1.1e-12, R, 2.5, R, R, R)
SEED = (0, 1, R, R, R, R, R, R, R)
COUNT = (R, 1, R, R, R, R, R, R, R)
INT = (0, 1, R, R, -1, R, R, R, R)
SLACK = (0.0, 1.0, 1e-12, 1.1e-12, R, 2.5, R, R, R)
# every command's options by option string (or positional name): action,
# required, nargs, what its type makes of probe texts, default and choices
COMMAND_OPTIONS = {
    "basis": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--generators": ("_StoreAction", True, "+", None, None, None),
    },
    "orthonormalize": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--generators": ("_StoreAction", True, "+", None, None, None),
    },
    "decompose": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--vector": ("_StoreAction", True, None, None, None, None),
        "--generators": ("_StoreAction", True, "+", None, None, None),
    },
    "separate": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--first": ("_StoreAction", True, None, None, None, None),
        "--second": ("_StoreAction", True, None, None, None, None),
        "--kind": ("_StoreAction", False, None, None, "strong", ["strong", "weak", "proper"]),
    },
    "hahn-banach": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--seed": ("_StoreAction", False, None, SEED, 7, None),
        "--bound": ("_StoreAction", True, None, None, None, None),
        "--subspace": ("_StoreAction", True, None, None, None, None),
        "--values": ("_StoreAction", True, "+", None, None, None),
        "--probes": ("_StoreAction", False, None, COUNT, 200, None),
    },
    "conjugate": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--function": ("_StoreAction", True, None, None, None, None),
        "--mins": ("_StoreAction", False, None, None, None, None),
        "--maxs": ("_StoreAction", False, None, None, None, None),
        "--steps": ("_StoreAction", False, None, None, None, None),
    },
    "fenchel-moreau": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--function": ("_StoreAction", True, None, None, None, None),
        "--mins": ("_StoreAction", False, None, None, None, None),
        "--maxs": ("_StoreAction", False, None, None, None, None),
        "--steps": ("_StoreAction", False, None, None, None, None),
    },
    "subgrad": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--seed": ("_StoreAction", False, None, SEED, 7, None),
        "--function": ("_StoreAction", True, None, None, None, None),
        "--point": ("_StoreAction", True, None, None, None, None),
        "--bound": ("_StoreAction", False, None, None, None, None),
        "--probes": ("_StoreAction", False, None, COUNT, 200, None),
    },
    "argmin": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--function": ("_StoreAction", True, None, None, None, None),
        "--set": ("_StoreAction", True, None, None, None, None),
    },
    "infconv": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--functions": ("_StoreAction", True, "+", None, None, None),
        "--check": ("_StoreTrueAction", False, 0, None, False, None),
    },
    "bw": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--sequence": ("_StoreAction", True, None, None, None, None),
        "--depth": ("_StoreAction", True, None, INT, None, None),
        "--slack": ("_StoreAction", True, None, SLACK, None, None),
    },
    "cauchy": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--sequence": ("_StoreAction", True, None, None, None, None),
        "--eps": ("_StoreAction", True, "+", None, None, None),
    },
    "bounded-test": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--tol": ("_StoreAction", False, None, TOL, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--set": ("_StoreAction", True, None, None, None, None),
    },
    "ri-test": {
        "scenario": ("_StoreAction", True, None, None, None, None),
        "--strict": ("_StoreTrueAction", False, 0, None, False, None),
        "--tol": ("_StoreAction", False, None, RI_TOL, None, None),
        "--point": ("_StoreAction", True, None, None, None, None),
        "--set": ("_StoreAction", True, None, None, None, None),
        "--mode": ("_StoreAction", False, None, None, "interior", ["interior", "relative"]),
    },
}


def test_command_options():
    assert command_options() == COMMAND_OPTIONS


# -- the process entry -------------------------------------------------------
# ``python -m stratalg.cli`` ends through ``cli.run`` without interpreter
# teardown; each run below must give the bytes and exit code of ``main``.

PROCESS_ENV = dict(
    os.environ, COLUMNS="80",  # argparse wraps help to the terminal width
    PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
                                os.environ.get("PYTHONPATH", "")]))
PROCESS_ENV.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, so run() must flush it


def cli_process(argv, env=PROCESS_ENV, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "stratalg.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


def run_process(argv):
    """Exit code, stdout bytes and stderr text of ``python -m stratalg.cli``."""
    proc = cli_process(argv, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err.decode()


def run_in_process(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err


@pytest.mark.parametrize("argv, code, message", [
    (["basis", "{scn}", "--generators", "e1", "e2"], 0, None),
    (["basis", "{scn}", "--generators", "e1", "nowhere"], 1,  # error document
     "unknown vector 'nowhere'"),
    (["separate", "{scn}", "--first", "box", "--second", "seg", "--strict"], 2, None),
    (["basis", "{scn}", "--generators", "e1", "--bogus"], 1, None),  # usage on stderr
    (["--help"], 0, None),
    (["conjugate", "{scn}", "--function", "gabs", "--mins", "-2"], 1,
     "--mins, --maxs and --steps must be given together"),
    (["conjugate", "{scn}", "--function", "gabs", "--mins=-2", "--maxs", "2", "--steps", "half"],
     1, "expected comma-separated numbers, got 'half'"),
    (["fenchel-moreau", "{scn}", "--function", "absmax"], 1,
     "function 'absmax' must be a grid function"),
    (["subgrad", "{scn}", "--function", "gabs", "--point", "x0"], 1,
     "function 'gabs' must be max-affine"),
    (["conjugate", "{scn}", "--function", "absmax", "--mins", "-1,-1", "--maxs", "1,1",
      "--steps", "1,1"], 0, None),
], ids=["pass", "malformed", "strict-failure", "unknown-flag", "help", "dual-grid-flags-apart",
        "non-numeric-dual-grid", "max-affine-for-grid", "grid-for-max-affine",
        "negative-dual-grid-list"])
def test_process_matches_main(scenario_path, capsys, monkeypatch, argv, code, message):
    argv = [a.format(scn=scenario_path) for a in argv]
    want = run_in_process(argv, capsys, monkeypatch)
    assert want[0] == code
    assert run_process(argv) == want
    if "-1,-1" in argv:  # a negative list after its flag reads as joined to it by =
        i = argv.index("-1,-1")
        joined = [*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]]
        assert run_in_process(joined, capsys, monkeypatch) == want
    out, err = want[1:]
    if "--bogus" in argv:
        assert out == b"" and err.startswith("usage: stratalg") and "--bogus" in err
    elif code == 1:
        assert json.loads(out)["error"] == {"kind": "ParseError", "message": message}
        assert err == ""
    else:
        assert out and err == ""


@pytest.fixture
def large_grid_path(tmp_path):
    # 8 atoms of 801 nodes: a fenchel-moreau document of several MB
    xs = np.linspace(-2.0, 2.0, 801)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 2.0, (8, 1)) * xs**2 + rng.uniform(-1.0, 1.0, (8, 1)) * xs
    path = tmp_path / "grid.json"
    path.write_text(emit_document({"weights": [1.0] * 8, "d": 1, "functions": {"f": {
        "type": "grid", "mins": [-2.0], "maxs": [2.0], "steps": [0.005], "values": values}}}))
    return str(path)


def test_large_document_through_a_pipe_and_into_a_file(large_grid_path, tmp_path, capsys,
                                                       monkeypatch):
    argv = ["fenchel-moreau", large_grid_path, "--function", "f"]
    want = run_in_process(argv, capsys, monkeypatch)
    assert want[0] == 0 and len(want[1]) > 2_000_000
    assert run_process(argv) == want
    with open(tmp_path / "out.json", "wb") as fh:
        proc = cli_process(argv, stdout=fh)
        err = proc.communicate(timeout=120)[1]
    assert (proc.returncode, (tmp_path / "out.json").read_bytes(), err.decode()) == want


@pytest.mark.parametrize("large", [False, True], ids=["buffered", "multi-MB"])
def test_closed_pipe_ends_the_process_with_an_error(scenario_path, large_grid_path, large):
    # the reader is gone before the first byte: the write in run() raises
    # BrokenPipeError, and the process reports it and ends with a nonzero
    # status
    argv = (["fenchel-moreau", large_grid_path, "--function", "f"] if large
            else ["basis", scenario_path, "--generators", "e1", "e2"])
    proc = cli_process(argv, stdout=subprocess.PIPE)
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode != 0 and "BrokenPipeError" in err, (proc.returncode, err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_that_leaves_mid_document_fails_the_process(large_grid_path, unbuffered):
    # the pipe closes after the first bytes: the write that was under way
    # comes back short, and the next one raises BrokenPipeError; unbuffered
    # text I/O (python -u) would drop the short count and exit 0
    env = dict(PROCESS_ENV, PYTHONUNBUFFERED="1") if unbuffered else PROCESS_ENV
    proc = cli_process(["fenchel-moreau", large_grid_path, "--function", "f"], env=env,
                       stdout=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode != 0 and "BrokenPipeError" in err, (proc.returncode, err)


@pytest.mark.parametrize("command, cores", [
    ("fenchel-moreau", []),
    ("subgrad", []),
    ("argmin", ["scipy.optimize._highspy._core"]),
])
def test_a_command_loads_only_the_cores_it_solves_with(scenario_path, command, cores):
    # no command imports the scipy package; a QP-only command loads no
    # compiled scipy module, and none loads _slsqplib
    code = textwrap.dedent("""
        import contextlib, io, sys
        from stratalg import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(sys.argv[1:]) == 0
        print([name for name in ("scipy", "scipy.optimize", "scipy.optimize._highspy._core",
                                 "scipy.optimize._slsqplib") if name in sys.modules])
    """)
    proc = subprocess.run([sys.executable, "-c", code, command, scenario_path,
                           *COMMAND_ARGS[command]], env=PROCESS_ENV, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"{cores}\n"), proc.stderr
