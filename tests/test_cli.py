import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import h1curves
from h1curves.cesaro import pansu_sphere
from h1curves.cli import main
from h1curves.expressions import ScalarFn


@pytest.fixture
def runner():
    return CliRunner()


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


INTRINSIC_PANSU = {
    "type": "intrinsic",
    "kappa": "2",
    "tau": "0",
    "range": [0, np.pi],
    "initial": {"point": [0, 0, 0], "heading": 0},
}


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestAnalyze:
    def test_intrinsic_constant_kappa(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        result = runner.invoke(main, ["analyze", spec, "--step", "1e-3"])
        assert result.exit_code == 0
        header, data = parse_csv(result.output)
        assert header == ["s", "x", "y", "z", "kappa", "tau"]
        assert np.max(np.abs(data[:, 4] - 2.0)) < 1e-7
        assert np.max(np.abs(data[:, 5])) < 1e-9

    def test_analytic_pansu_curve(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic",
            "x": "sin(2*s)/2",
            "y": "(1 - cos(2*s))/2",
            "z": "sin(2*s)/4 - s/2",
            "range": [0, np.pi],
        })
        result = runner.invoke(main, ["analyze", spec, "--step", "0.01"])
        assert result.exit_code == 0
        _, data = parse_csv(result.output)
        assert np.max(np.abs(data[:, 4] - 2.0)) < 1e-9
        assert np.max(np.abs(data[:, 5])) < 1e-9

    def test_vertical_line_regularity_exit(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "0", "y": "0", "z": "s", "range": [0, 1],
        })
        result = runner.invoke(main, ["analyze", spec])
        assert result.exit_code == 3

    def test_bad_expression_exit(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "sin(q)", "y": "s", "z": "0", "range": [0, 1],
        })
        result = runner.invoke(main, ["analyze", spec])
        assert result.exit_code == 2

    def test_determinism(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        a = runner.invoke(main, ["analyze", spec, "--step", "0.05"])
        b = runner.invoke(main, ["analyze", spec, "--step", "0.05"])
        assert a.output == b.output

    def test_17_digit_round_trip(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "s^2/3", "z": "0", "range": [0, 1],
        })
        result = runner.invoke(main, ["analyze", spec, "--step", "0.25"])
        header, data = parse_csv(result.output)
        again = runner.invoke(main, ["analyze", spec, "--step", "0.25"])
        _, data2 = parse_csv(again.output)
        assert np.array_equal(data, data2)

    def test_output_file_and_json_format(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        out = tmp_path / "out.json"
        result = runner.invoke(main, [
            "analyze", spec, "--step", "0.5", "--format", "json",
            "--output", str(out),
        ])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["s", "x", "y", "z", "kappa", "tau"]

    def test_config_file_flags_win(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        config = write_json(tmp_path, "cfg.json", {"step": 0.5, "fmt": "json"})
        result = runner.invoke(main, ["analyze", spec, "--config", config])
        doc = json.loads(result.output)
        assert doc["columns"][0] == "s"
        # flag overrides config
        result2 = runner.invoke(
            main, ["analyze", spec, "--config", config, "--format", "csv"]
        )
        assert result2.output.startswith("s,x,y,z,kappa,tau")


class TestReconstruct:
    def test_line(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "0", "tau": "0", "range": [0, 2],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["reconstruct", spec, "--step", "0.25"])
        assert result.exit_code == 0
        header, data = parse_csv(result.output)
        assert header == ["s", "x", "y", "z"]
        assert np.allclose(data[:, 1], data[:, 0], atol=1e-10)

    def test_pansu_table(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        result = runner.invoke(main, ["reconstruct", spec, "--step", "1e-3"])
        _, data = parse_csv(result.output)
        s = data[:, 0]
        assert np.max(np.abs(data[:, 1] - np.sin(2 * s) / 2)) < 1e-6
        assert np.max(np.abs(data[:, 2] - (1 - np.cos(2 * s)) / 2)) < 1e-6
        assert np.max(np.abs(data[:, 3] - (np.sin(2 * s) / 4 - s / 2))) < 1e-6

    def test_last_row_is_the_endpoint(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1 + 0.5*sin(s)", "tau": "0.2", "range": [0, 4],
        })
        result = runner.invoke(main, ["reconstruct", spec, "--step", "1e-3"])
        assert result.exit_code == 0
        last = result.output.strip().split("\n")[-1]
        assert last.split(",")[0] == "4"

    def test_domain_error_exit(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1/s", "tau": "0", "range": [0, 1],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["reconstruct", spec])
        assert result.exit_code == 2

    def test_requires_intrinsic(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "0", "z": "0", "range": [0, 1],
        })
        result = runner.invoke(main, ["reconstruct", spec])
        assert result.exit_code == 2

    def test_json_emits_samples_schema(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "0", "tau": "0", "range": [0, 1],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["reconstruct", spec, "--step", "0.25", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["type"] == "samples"
        # the emitted document is itself a valid curve spec
        spec2 = write_json(tmp_path, "c2.json", doc)
        result2 = runner.invoke(main, ["analyze", spec2, "--step", "0.25"])
        assert result2.exit_code == 0


class TestBertrand:
    def test_paired_csv(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1", "tau": "0", "range": [0, 4],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, [
            "bertrand", spec, "--c1", "3", "--c2", "4", "--step", "0.01",
        ])
        assert result.exit_code == 0
        header, data = parse_csv(result.output)
        assert header == ["s", "x", "y", "z", "x_bar", "y_bar", "z_bar", "dist"]
        planar = np.hypot(data[:, 4] - data[:, 1], data[:, 5] - data[:, 2])
        assert np.max(np.abs(planar - 5.0)) < 1e-7

    def test_zero_branch_requires_g(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "0", "tau": "0", "range": [0, 2],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["bertrand", spec, "--c1", "1"])
        assert result.exit_code == 2
        result2 = runner.invoke(main, ["bertrand", spec, "--c1", "1", "--g", "s"])
        assert result2.exit_code == 0


class TestClassify:
    def test_helix_verdict(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "sin(s)", "y": "cos(s)", "z": "s",
            "range": [0, 7],
        })
        result = runner.invoke(main, ["classify", spec])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["tag"] == "CircularHelix"
        assert doc["witness"]["radius"] == pytest.approx(1.0, abs=1e-8)

    def test_general_verdict(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1 + 0.4*sin(s)", "tau": "0.3",
            "range": [0, 4], "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["classify", spec])
        assert json.loads(result.output)["tag"] == "General"


class TestErrorExits:
    @pytest.fixture
    def spec(self, tmp_path):
        return write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "s^2", "z": "0", "range": [0, 1],
        })

    @staticmethod
    def assert_one_error_line(result):
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_classify_interval_too_short(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "s^2", "z": "0", "range": [0, 1e-7],
        })
        self.assert_one_error_line(runner.invoke(main, ["classify", spec]))

    def test_classify_ambiguous(self, runner, spec, monkeypatch):
        from h1curves import cli
        from h1curves.classify import AmbiguousClassificationError, ClassTag

        def ambiguous(h, tol):
            raise AmbiguousClassificationError([ClassTag.CIRCULAR_HELIX])

        monkeypatch.setattr(cli, "classify_position", ambiguous)
        self.assert_one_error_line(runner.invoke(main, ["classify", spec]))

    @pytest.mark.parametrize("flag,value", [
        ("--step", "0"), ("--step", "-1e-3"), ("--step", "nan"), ("--step", "inf"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
    ])
    def test_nonpositive_or_nonfinite_step_and_tol(self, runner, spec, flag, value):
        self.assert_one_error_line(runner.invoke(main, ["analyze", spec, flag, value]))

    def test_bad_step_from_config(self, runner, spec, tmp_path):
        config = write_json(tmp_path, "cfg.json", {"step": "fine"})
        self.assert_one_error_line(runner.invoke(main, ["analyze", spec, "--config", config]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_curve_is_a_domain_error(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "exp(exp(s))", "y": "s", "z": "0", "range": [0, 10],
        })
        result = runner.invoke(main, ["analyze", spec])
        assert result.exit_code == 2
        errors = [l for l in result.stderr.splitlines() if l.startswith("error: ")]
        assert len(errors) == 1 and "not finite" in errors[0]

    def test_nan_sample_names_its_column(self, runner, tmp_path):
        data = [[u, u, u * u, 0.0] for u in range(8)]
        data[3][1] = float("nan")
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"type": "samples", "data": data}))  # writes NaN
        result = runner.invoke(main, ["analyze", str(spec)])
        self.assert_one_error_line(result)
        assert "column x is not finite" in result.stderr

    @pytest.mark.parametrize("hi", [1e9, (1_000_000 + 1) * 1e-3])
    def test_intrinsic_range_over_grid_budget(self, runner, tmp_path, hi):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1", "tau": "0", "range": [0, hi],
        })
        result = runner.invoke(main, ["reconstruct", spec, "--step", "1e-3"])
        self.assert_one_error_line(result)
        assert "panels requested" in result.stderr

    @pytest.fixture
    def pole_spec(self, tmp_path):
        # x and y are regular; z has a pole on the grid at s = 0.5
        return write_json(tmp_path, "pole.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "1/(s-0.5)",
            "range": [0, 1],
        })

    @pytest.mark.parametrize("step", ["0.1", "0.05"])
    def test_analyze_curve_that_fails_to_evaluate(self, runner, pole_spec, step):
        result = runner.invoke(main, ["analyze", pole_spec, "--step", step])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: cannot evaluate curve: division by zero")

    def test_bertrand_blames_the_curve_not_the_offset(self, runner, pole_spec):
        result = runner.invoke(main, ["bertrand", pole_spec, "--c1", "0.3", "--step", "0.1"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: cannot evaluate curve: division by zero")

    def test_classify_rejects_a_helix_fit_with_a_bad_height(self, runner, pole_spec):
        # x, y fit a helix exactly; the pole falls between the nodes of the
        # classification grid, so z only fits an affine height with a
        # residual in the thousands
        result = runner.invoke(main, ["classify", pole_spec, "--step", "0.1"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: cannot classify")

    @pytest.mark.parametrize("tau_bar,reason", [
        ("1/(s-0.5)", "division by zero"), ("1e999", "not finite near s = 0"),
    ])
    def test_bertrand_offset_that_fails_to_evaluate(self, runner, tmp_path, tau_bar, reason):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0.2*s", "range": [0, 1],
        })
        result = runner.invoke(main, [
            "bertrand", spec, "--c1", "0.3", "--tau-bar", tau_bar, "--step", "0.1",
        ])
        self.assert_one_error_line(result)
        assert result.stderr.startswith(f"error: bad offset expression tau_bar: {reason}")

    def test_output_grid_over_budget(self, runner, tmp_path):
        # 1000 reparametrization panels, but an arc length of 1e7
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1e7*s", "y": "0", "z": "0", "range": [0, 1],
        })
        result = runner.invoke(main, ["analyze", spec])
        self.assert_one_error_line(result)
        assert "10000000000 panels requested" in result.stderr


class TestSurface:
    def test_pansu_membership(self, runner):
        result = runner.invoke(main, ["surface", "pansu", "--lam", "1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["certificate"]["membership"]["member"] is True
        assert doc["certificate"]["kappa_error"] < 1e-9

    @pytest.mark.parametrize("lam", ["0.775", "1.55"])
    def test_pansu_profile_touching_axis(self, runner, lam):
        result = runner.invoke(main, ["surface", "pansu", "--lam", lam])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["certificate"]["membership"]["member"] is True

    @pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
    def test_pansu_names_a_bad_lambda(self, runner, lam):
        result = runner.invoke(main, ["surface", "pansu", "--lam", lam])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: lam must be positive and finite")

    @pytest.mark.parametrize("lam", ["1e300", "1e-300"])
    def test_pansu_names_a_lambda_out_of_range(self, runner, lam):
        result = runner.invoke(main, ["surface", "pansu", "--lam", lam])
        assert result.exit_code == 2
        assert result.stderr == ("error: lam must be positive and finite, with 4 lam^2 and "
                                 f"pi/lam finite and nonzero, got {float(lam)!r}\n")

    def test_pansu_honours_tol(self, runner):
        result = runner.invoke(main, ["surface", "pansu", "--lam", "1", "--tol", "1e-30"])
        assert result.exit_code == 1
        membership = json.loads(result.stdout)["certificate"]["membership"]
        assert membership["member"] is False
        assert 0.0 < membership["max_defect"] < 1e-9

    def test_pansu_passes_step_and_tol(self, runner, monkeypatch):
        from h1curves import cli

        seen = {}

        def spy(lam, **kwargs):
            seen.update(kwargs)
            return pansu_sphere(lam, **kwargs)

        monkeypatch.setattr(cli, "pansu_sphere", spy)
        result = runner.invoke(main, [
            "surface", "pansu", "--lam", "1", "--step", "0.1", "--tol", "1e-5",
        ])
        assert result.exit_code == 0
        assert seen == {"step": 0.1, "tol": 1e-5}

    @pytest.mark.parametrize("doc", [
        {"g": "1", "f": "s", "range": [1, 1]},
        {"g": "1", "f": "s", "range": [2, 1]},
        {"g": "1", "f": "log(s)", "range": [-1, 1]},
    ])
    def test_check_rejects_bad_surface(self, runner, tmp_path, doc):
        surface = write_json(tmp_path, "s.json", doc)
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        result = runner.invoke(main, ["surface", "check", surface, curve])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: bad surface spec")

    @pytest.mark.parametrize("lo,hi", [
        (0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0), (-1e308, 1e308),
    ])
    def test_check_rejects_a_range_that_is_not_finite(self, runner, tmp_path, lo, hi):
        # the spec's JSON may spell Infinity and NaN; a range whose width
        # overflows is no more usable
        surface = write_json(tmp_path, "s.json", {"g": "1", "f": "s", "range": [lo, hi]})
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        result = runner.invoke(main, ["surface", "check", surface, curve])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: bad surface spec: profile range")

    def test_check_line_vs_sphere(self, runner, tmp_path):
        surface = write_json(tmp_path, "s.json", {
            "g": "sin(s)", "f": "cos(s)", "range": [0.01, np.pi - 0.01],
        })
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "0", "z": "0", "range": [0.2, 2],
        })
        result = runner.invoke(main, ["surface", "check", surface, curve])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["member"] is False

    def test_check_lift_on_cylinder(self, runner, tmp_path):
        surface = write_json(tmp_path, "s.json", {
            "g": "1", "f": "-s", "range": [-0.5, 6.5],
        })
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s",
            "range": [0, 6],
        })
        result = runner.invoke(main, ["surface", "check", surface, curve])
        assert result.exit_code == 0
        assert json.loads(result.output)["member"] is True

    def test_gen_const_kappa_json(self, runner):
        result = runner.invoke(main, [
            "surface", "gen-const-kappa", "--kappa", "2", "--c1", "-1",
            "--c2", "0", "--c3g", "1", "--c3f", "1",
            "--range", str(-np.pi), "0", "--format", "json",
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert "sqrt" in doc["g"]
        assert doc["range"] == [-np.pi, 0.0]

    def test_gen_const_kappa_negative_radicand(self, runner):
        result = runner.invoke(main, [
            "surface", "gen-const-kappa", "--kappa", "2", "--c1", "-1",
            "--c2", "0", "--c3g", "0.5", "--c3f", "0",
            "--range", str(-np.pi), "0",
        ])
        assert result.exit_code == 2

    def test_gen_const_kappa_radicand_negative_between_check_nodes(self, runner):
        # c3g < hypot(c1, c2): the radicand dips below zero within 5e-4 of
        # s = pi, between the generator's check nodes; the output grid finds it
        result = runner.invoke(main, [
            "surface", "gen-const-kappa", "--kappa", "1", "--c1", "-1", "--c2", "0",
            "--c3g", "0.9999999", "--range", "0", "10", "--step", "1e-4",
        ])
        assert result.exit_code == 2
        assert result.stderr == "error: negative squared radius on the profile\n"

    def test_gen_const_tau_csv(self, runner):
        result = runner.invoke(main, [
            "surface", "gen-const-tau", "--kappa", "2 + sin(s)", "--tau", "0.3",
            "--g2-const", "1.0", "--range", "0", "5", "--step", "0.05",
        ])
        assert result.exit_code == 0
        header, data = parse_csv(result.output)
        assert header == ["s", "g", "f"]
        assert np.all(data[:, 1] >= 0)


class TestCsvFormat:
    def test_bytes_match_per_value_formatting(self):
        from h1curves.cli import _csv

        rows = np.array([
            [-0.0, 1e-300, 1e300, 3.0],
            [-2.5, 0.1, -7.0, 1.0 / 3.0],
            [123456789012345678.0, -1e-5, 2.0**-1074, -np.pi],
        ])
        header = ["a", "b", "c", "d"]
        expected = "\n".join(
            [",".join(header)]
            + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
        ) + "\n"
        assert _csv(header, rows) == expected
        assert expected.split("\n")[1] == "-0,1e-300,1.0000000000000001e+300,3"
        assert _csv(header, np.empty((0, 4))) == "a,b,c,d\n"


class TestJsonTable:
    DOCS = [({"columns": ["a", "b", "c"]}, "rows"), ({"type": "samples"}, "data")]

    @staticmethod
    def dumps(doc, key, rows):
        return json.dumps({**doc, key: rows.tolist()}, indent=2) + "\n"

    @pytest.mark.parametrize("doc,key", DOCS)
    def test_bytes_match_json_dumps(self, doc, key):
        from h1curves.cli import _json_table

        rows = np.array([
            [-0.0, 5e-324, 1e300],
            [0.1, -1e-5, 2.0**-1074],
            [123456789012345678.0, 1e16, -np.pi],
            [3.0, 1.0 / 3.0, -7.0],
        ])
        assert _json_table(doc, key, rows) == self.dumps(doc, key, rows)
        assert _json_table(doc, key, rows[:1]) == self.dumps(doc, key, rows[:1])

    @pytest.mark.parametrize("doc,key", DOCS)
    def test_zero_rows(self, doc, key):
        from h1curves.cli import _json_table

        rows = np.empty((0, 3))
        assert _json_table(doc, key, rows) == self.dumps(doc, key, rows)

    @pytest.mark.parametrize("doc,key", DOCS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_fall_back_to_json_dumps(self, doc, key, bad):
        from h1curves.cli import _json_table

        rows = np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]])
        text = _json_table(doc, key, rows)
        assert text == self.dumps(doc, key, rows)
        assert "NaN" in text or "Infinity" in text


class TestFreshProcess:
    """The CLI as users start it: a new interpreter per command."""

    @staticmethod
    def run(*args):
        src = str(Path(h1curves.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_import_loads_no_scipy(self):
        proc = self.run("-c", "import sys, h1curves.cli; "
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_membership_past_the_float_range_writes_no_warning(self, tmp_path):
        # d^2 overflows on most of a profile grid spanning 1e300
        surface = write_json(tmp_path, "s.json", {"g": "1", "f": "-s", "range": [0, 1e300]})
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        proc = self.run("-m", "h1curves.cli", "surface", "check", surface, curve)
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""

    def test_overflow_error_is_the_only_stderr_line(self, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "exp(exp(s))", "y": "s", "z": "0", "range": [0, 10],
        })
        proc = self.run("-m", "h1curves.cli", "analyze", spec)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# values that stress option and range parsing: zero, negatives, non-finite
# and huge magnitudes; ordinary ones are drawn alongside
_EDGE_VALUES = [0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 1e-300]


def _values(lo, hi):
    return st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(lo, hi))


class TestSurfaceErrorContract:
    """Every `surface check` and `surface pansu` input ends in exit 0-3 and
    no exception escapes.  An error exit (2 or 3) writes exactly one stderr
    line, starting `error:`; exit 1 is the non-member verdict, printed as
    the report on stdout with nothing on stderr.  Ordinary steps stay at or
    above 1e-3, so no generated grid is larger than the commands' defaults
    make."""

    @staticmethod
    def assert_contract(result):
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exception)
        assert result.exit_code in (0, 1, 2, 3)
        event(f"exit {result.exit_code}")
        if result.exit_code in (2, 3):
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        if result.exit_code == 1:
            assert result.stderr == ""
            doc = json.loads(result.stdout)
            assert doc.get("certificate", {}).get("membership", doc)["member"] is False

    @staticmethod
    def options(step, tol):
        args = []
        for flag, value in (("--step", step), ("--tol", tol)):
            if value is not None:
                args += [flag, repr(value)]
        return args

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lam=_values(0.3, 3.0), step=st.none() | _values(1e-3, 0.5),
           tol=st.none() | _values(1e-12, 1.0))
    def test_pansu(self, lam, step, tol):
        args = ["surface", "pansu", "--lam", repr(lam), *self.options(step, tol)]
        self.assert_contract(CliRunner().invoke(main, args))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lo=_values(-2.0, 2.0), width=_values(-1.0, 8.0),
           step=st.none() | _values(1e-3, 0.5), tol=st.none() | _values(1e-12, 1.0))
    def test_check(self, tmp_path_factory, lo, width, step, tol):
        # the lift of the unit circle against the cylinder g = 1, f = -s over
        # a generated profile range [lo, lo + width], which may be empty,
        # reversed or not finite
        workdir = tmp_path_factory.mktemp("check")
        surface = write_json(workdir, "s.json", {"g": "1", "f": "-s", "range": [lo, lo + width]})
        curve = write_json(workdir, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        args = ["surface", "check", surface, curve, *self.options(step, tol)]
        self.assert_contract(CliRunner().invoke(main, args))


def _options(**ordinary):
    """Values for the named options, each drawn from its ordinary strategy,
    with up to two of them replaced by edge values."""
    edges = st.dictionaries(st.sampled_from(sorted(ordinary)), st.sampled_from(_EDGE_VALUES),
                            max_size=2)
    return st.builds(lambda o, e: {**o, **e}, st.fixed_dictionaries(ordinary), edges)


class TestGeneratorErrorContract:
    """Every `surface gen-const-kappa` and `surface gen-const-tau` input ends
    in exit 0, 2 or 3 with no exception escaping; an error exit writes
    exactly one stderr line, starting `error:`.  On exit 0 every CSV number
    is finite, and so is every printed profile text on the generator's own
    check grid of its range.  Ordinary widths stay at or under 8 and steps
    at or above 1e-2 or at the default 1e-3, so no output grid has more
    than 8000 panels; edge values either give grids of a few panels or
    exceed the grid budget."""

    @staticmethod
    def assert_contract(result, fmt):
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exception)
        assert result.exit_code in (0, 2, 3)
        event(f"exit {result.exit_code}")
        if result.exit_code:
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
            return
        if fmt == "csv":
            _, data = parse_csv(result.stdout)
            assert np.all(np.isfinite(data))
            return
        doc = json.loads(result.stdout)
        if "samples" in doc:
            assert np.all(np.isfinite(np.asarray(doc["samples"], dtype=float)))
            return
        grid = np.linspace(*doc["range"], 4097)
        for text in (doc["g"], doc["f"]):
            assert np.all(np.isfinite(ScalarFn.parse(text)(grid))), text

    @staticmethod
    def args(command, opts, fmt, extra=()):
        """The command line; "lo" and "width" make --range, and a step of
        None leaves --step at its default."""
        opts = dict(opts)
        lo, width, step = opts.pop("lo"), opts.pop("width"), opts.pop("step")
        args = ["surface", command, *extra, "--range", repr(lo), repr(lo + width),
                "--format", fmt]
        if step is not None:
            args += ["--step", repr(step)]
        for name, value in opts.items():
            args += [f"--{name}", repr(value)]
        return args

    _range = {"lo": st.floats(-3.0, 3.0), "width": st.floats(0.1, 8.0),
              "step": st.none() | st.floats(1e-2, 0.5)}
    _kappa_defaults = {"kappa": 1.0, "tau": 0.0, "c1": -1.0, "c2": 0.0, "c3g": 1.0,
                       "c3f": 0.0, "lo": 0.0, "width": 1.0, "step": 0.1}
    _tau_defaults = {"tau": 0.0, "g2-const": 4.0, "f-const": 0.0, "C1": 1.0, "C2": 0.0,
                     "C3": 0.0, "C4": 1.0, "C5": 0.0, "C6": 0.0, "lo": 0.0, "width": 1.0,
                     "step": 0.1}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(opts=_options(kappa=st.floats(0.2, 3.0) | st.floats(-3.0, -0.2),
                         **{k: st.floats(-3.0, 3.0) for k in ("tau", "c1", "c2", "c3g", "c3f")},
                         **_range),
           fmt=st.sampled_from(["csv", "json"]))
    @example(opts={**_kappa_defaults, "tau": float("inf")}, fmt="csv")
    @example(opts={**_kappa_defaults, "tau": float("nan")}, fmt="json")
    @example(opts={**_kappa_defaults, "kappa": float("nan")}, fmt="csv")
    @example(opts={**_kappa_defaults, "kappa": float("inf")}, fmt="json")
    @example(opts={**_kappa_defaults, "c1": float("nan")}, fmt="csv")
    @example(opts={**_kappa_defaults, "c3f": float("inf")}, fmt="json")
    def test_gen_const_kappa(self, opts, fmt):
        self.assert_contract(CliRunner().invoke(main, self.args("gen-const-kappa", opts, fmt)),
                             fmt)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kappa=st.sampled_from(["2 + sin(s)", "1.5", "-1 - 0.3*cos(s)", "s", "0"]),
           opts=_options(tau=st.floats(-3.0, 3.0), **{"g2-const": st.floats(0.0, 100.0)},
                         **{"f-const": st.floats(-3.0, 3.0)},
                         **{f"C{i}": st.floats(-2.0, 2.0) for i in range(1, 7)}, **_range),
           fmt=st.sampled_from(["csv", "json"]))
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "g2-const": float("nan")}, fmt="csv")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "f-const": float("inf")}, fmt="csv")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "tau": float("inf")}, fmt="json")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "C5": float("nan")}, fmt="csv")
    # Delta = C2 C3 - C1 C4 is subnormal: the weights of I1 and I2 overflow
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "C1": -5e-324, "C2": 0.8, "C3": 5e-324,
                                       "C4": -1.7}, fmt="csv")
    def test_gen_const_tau(self, kappa, opts, fmt):
        opts = dict(opts)
        constants = [repr(opts.pop(f"C{i}")) for i in range(1, 7)]
        args = self.args("gen-const-tau", opts, fmt,
                         ["--kappa", kappa, "--constants", *constants])
        self.assert_contract(CliRunner().invoke(main, args), fmt)
