"""Scenario interchange format and the command-line entry point."""

import io as _io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracles

from stratalg import cli, functions
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
        with pytest.raises(ParseError):
            build_scenario({"weights": [1.0], "d": 2, "vectors": {"v": [[1.0]]}})
        with pytest.raises(ParseError):
            build_scenario(
                {"weights": [1.0], "d": 1, "convex_sets": {"c": {"points": ["ghost"]}}}
            )

    def test_scenario_accessors(self, scenario_path):
        scn = build_scenario(load_document(scenario_path))
        assert scn.vector("e1").values.shape == (2, 2)
        assert scn.measurable_set("A").mask.tolist() == [True, False]
        assert scn.sequence("osc").horizon == 6
        assert scn.convex_set("box").points[0].dim == 2
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

    def test_conjugate_lp_failure_exits_2_with_atoms(self, scenario_path, monkeypatch):
        real = functions.solve_lp

        def fail_on_atom_1(c, **kw):  # 4 dual nodes per atom, atom 0 first
            fail_on_atom_1.calls += 1
            return LPResult(4, None, None) if fail_on_atom_1.calls > 4 else real(c, **kw)

        fail_on_atom_1.calls = 0
        monkeypatch.setattr(functions, "solve_lp", fail_on_atom_1)
        code, doc = run_json(
            [
                "conjugate", scenario_path, "--function", "absmax",
                "--mins=-1,-1", "--maxs", "1,1", "--steps", "2,2",
            ]
        )
        assert code == 2
        assert doc["error"]["kind"] == "SolverError"
        assert doc["error"]["atoms"] == [1]

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
        ],
    )
    def test_bad_numeric_flag_exits_1(self, scenario_path, capsys, flag, value):
        argv = ["subgrad", scenario_path, "--function", "absmax", "--point", "x0"]
        code, out = run_cli(argv + [flag, value])
        assert code == 1
        assert out == ""
        assert f"argument {flag}" in capsys.readouterr().err

    def test_smallest_numeric_flags_accepted(self, scenario_path):
        argv = ["subgrad", scenario_path, "--function", "absmax", "--point", "x0"]
        code, doc = run_json(argv + ["--tol", "5e-324", "--seed", "0", "--probes", "1"])
        assert code == 0
        assert doc["certificates"]["probe_count"] == 1
