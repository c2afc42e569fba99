import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    def test_small_scale_curve_is_regular(self, runner, tmp_path):
        # a contact speed of 1e-13 is small only against the curve's own
        # speeds, which are all equal here: kappa = 1/radius
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1e-13*cos(s)", "y": "1e-13*sin(s)", "z": "5e-27*s",
            "range": [0, 3],
        })
        result = runner.invoke(main, ["analyze", spec, "--step", "1e-3"])
        assert result.exit_code == 0, result.output
        _, data = parse_csv(result.output)
        assert np.max(np.abs(data[:, 4] / 1e13 - 1.0)) < 1e-6

    def test_fast_parametrization_is_regular(self, runner, tmp_path):
        # an arc of length 3 on a circle of radius 1e155, run through at
        # speed 1e155: the squared speed would overflow, the unit velocity
        # does not
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1e155*cos(s)", "y": "1e155*sin(s)", "z": "0",
            "range": [0, 3e-155],
        })
        result = runner.invoke(main, ["analyze", spec, "--step", "0.01"])
        assert result.exit_code == 0 and result.stderr == ""
        _, data = parse_csv(result.output)
        assert np.max(np.abs(data[:, 4] / 1e-155 - 1.0)) < 1e-12
        assert np.max(np.abs(data[:, 5] / 1e155 - 1.0)) < 1e-12

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

    def test_builds_no_sampled_field(self, runner, tmp_path, sampled_fields):
        # the table is the cascade's own nodes, checked where they are made;
        # nothing reads it back as samples
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1 + 0.3*sin(s)", "tau": "0.2", "range": [0, 3],
            "initial": {"point": [0.5, -0.2, 0.1], "heading": 0.4},
        })
        for fmt in ("csv", "json"):
            result = runner.invoke(main, ["reconstruct", spec, "--step", "0.01", "--format", fmt])
            assert result.exit_code == 0, result.stderr
        assert sampled_fields == []

    @pytest.mark.parametrize("command", ["reconstruct", "analyze"])
    @pytest.mark.parametrize("spec,step", [
        # the rounding of x, about 1e184, dwarfs a curve of length 4
        ({"kappa": "1", "tau": "0.2", "range": [0, 4],
          "initial": {"point": [1e200, 0, 0]}}, "1e-3"),
        # a node spacing of 5e-304, whose square underflows
        ({"kappa": "cos(s)", "tau": "0", "range": [0, 1e-300]}, "1e-303"),
        # eps 2e8 is above 1e-8 of the length
        ({"kappa": "1", "tau": "0.2", "range": [0, 4],
          "initial": {"point": [2e8, 0, 0]}}, "1e-3"),
    ], ids=["far", "fine", "past-the-resolution"])
    def test_refuses_what_analyze_refuses(self, runner, tmp_path, command, spec, step):
        path = write_json(tmp_path, "c.json", {"type": "intrinsic", **spec})
        result = runner.invoke(main, [command, path, "--step", step])
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad curve spec: ")

    @pytest.mark.parametrize("command", ["reconstruct", "analyze"])
    @pytest.mark.parametrize("p", [1e5, 1e8])
    def test_far_curve_within_the_resolution(self, runner, tmp_path, command, p):
        path = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1", "tau": "0.2", "range": [0, 4],
            "initial": {"point": [p, 0, 0]}})
        result = runner.invoke(main, [command, path, "--step", "1e-2"])
        assert result.exit_code == 0, result.stderr
        assert result.stderr == ""

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

    @pytest.mark.parametrize("step", ["0.1", "0.005"])
    def test_planar_distance_is_exact_on_the_step_grid(self, runner, tmp_path, step):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1.5*cos(1.2*s) + 0.2", "y": "0.8*sin(1.2*s) - 0.1",
            "z": "0.3*s", "range": [0, 4],
        })
        result = runner.invoke(main, ["bertrand", spec, "--c1", "0.3", "--c2", "-0.5",
                                      "--step", step])
        assert result.exit_code == 0
        _, data = parse_csv(result.output)
        planar = np.hypot(data[:, 4] - data[:, 1], data[:, 5] - data[:, 2])
        assert np.max(np.abs(planar - np.hypot(0.3, -0.5))) < 1e-14

    @pytest.mark.parametrize("step", ["3", "5", "100"])
    def test_coarse_step_prints_five_rows(self, runner, tmp_path, step):
        # the curve's horizontal length is 5.68: every grid has 4 panels
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1.5*cos(1.2*s) + 0.2", "y": "0.8*sin(1.2*s) - 0.1",
            "z": "0.3*s", "range": [0, 4],
        })
        result = runner.invoke(main, ["bertrand", spec, "--c1", "0.3", "--step", step])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 1 + 5

    def test_analytic_spec_builds_no_sampled_field(self, runner, tmp_path, sampled_fields):
        # the CLI prints the mate points it built; the mate is never resampled
        # into a curve
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "1.5*cos(1.2*s) + 0.2", "y": "0.8*sin(1.2*s) - 0.1",
            "z": "0.3*s", "range": [0, 4],
        })
        result = runner.invoke(main, ["bertrand", spec, "--c1", "0.3", "--c2", "-0.5",
                                      "--step", "0.1"])
        assert result.exit_code == 0
        assert sampled_fields == []

    def test_intrinsic_spec_builds_no_sampled_field(self, runner, tmp_path, sampled_fields):
        # a reconstruction is a tree over the cascade's own integrals: nothing
        # is resampled or differentiated by finite differences
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "1 + 0.3*sin(s)", "tau": "0.2", "range": [0, 3],
            "initial": {"point": [0.5, -0.2, 0.1], "heading": 0.4},
        })
        for command in ("analyze", "bertrand", "classify"):
            result = runner.invoke(main, [command, spec, "--step", "0.01"])
            assert result.exit_code == 0, result.stderr
        assert sampled_fields == []

    def test_zero_branch_requires_g(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "intrinsic", "kappa": "0", "tau": "0", "range": [0, 2],
            "initial": {"point": [0, 0, 0], "heading": 0},
        })
        result = runner.invoke(main, ["bertrand", spec, "--c1", "1"])
        assert result.exit_code == 2
        result2 = runner.invoke(main, ["bertrand", spec, "--c1", "1", "--g", "s"])
        assert result2.exit_code == 0

    @pytest.mark.parametrize("curve,offsets,message", [
        (("cos(s)", "sin(s)", "0.5*s"), ["--g", "5*s"],
         "the kappa != 0 branch takes tau_bar, not the vertical offset g"),
        (("s", "0", "0"), ["--g", "s", "--tau-bar", "7"],
         "the kappa == 0 branch takes g, not the offset tau_bar"),
    ], ids=["general", "zero-kappa"])
    def test_offset_of_the_other_branch_is_refused(self, runner, tmp_path, curve, offsets,
                                                   message):
        # each branch reads one of the two offsets; the other may not be dropped
        # without a word
        x, y, z = curve
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": x, "y": y, "z": z, "range": [0, 3]})
        result = runner.invoke(main, ["bertrand", spec, "--c1", "0.3", *offsets])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"


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
        # no length is too short: the scale rule reads kappa * S = 2e-7 as
        # nonzero, so a parabola on [0, 1e-7] is classified as at length 1
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "s^2", "z": "0", "range": [0, 1e-7],
        })
        result = runner.invoke(main, ["classify", spec])
        assert result.exit_code == 0 and result.stderr == ""
        assert json.loads(result.output)["tag"] == "PlanarCurveXY"

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
        result = runner.invoke(main, ["classify", spec, flag, value])
        self.assert_one_error_line(result)
        assert "must be positive and finite" in result.stderr

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

    @pytest.mark.parametrize("command", ["reconstruct", "analyze"])
    @pytest.mark.parametrize("fields,column", [
        ({"kappa": "1", "tau": "1e308"}, "z"),
        ({"kappa": "1e308", "tau": "0"}, "x"),
        ({"kappa": "1", "tau": "0", "initial": {"point": [1e308, 1e308, 0]}}, "z"),
        ({"kappa": "1", "tau": "0", "initial": {"point": [0, -1e308, 0]}}, "z"),
    ], ids=["tau", "kappa", "point", "negative-y"])
    def test_reconstruction_past_the_float_range(self, runner, tmp_path, command, fields,
                                                 column):
        # the cascade overflows; the first column that does is refused at
        # its s, with no numpy warning before the error line
        spec = write_json(tmp_path, "c.json", {"type": "intrinsic", "range": [0, 1], **fields})
        result = runner.invoke(main, [command, spec, "--step", "0.25"])
        self.assert_one_error_line(result)
        assert f"{column}: not finite near s = " in result.stderr

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

    @pytest.mark.parametrize("command", [
        ["analyze"], ["bertrand", "--c1", "0.3"], ["classify"],
        ["surface", "check", "cylinder"],
    ], ids=["analyze", "bertrand", "classify", "check"])
    def test_curve_that_fails_to_evaluate_is_blamed(self, runner, tmp_path, command):
        # x and y are regular, so reparametrization succeeds; z first fails
        # inside the command's own computation
        spec = write_json(tmp_path, "log.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "log(s - 0.5)",
            "range": [0, 1],
        })
        if command[-1] == "cylinder":
            command = [*command[:-1], write_json(tmp_path, "s.json", {
                "g": "1", "f": "-s", "range": [0, 1]})]
        result = runner.invoke(main, [*command, spec, "--step", "0.1"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith(
            "error: cannot evaluate curve: log of a non-positive argument in 'log(s - 0.5)'")

    @pytest.mark.parametrize("args", [
        ["analyze", "intrinsic"],
        ["surface", "gen-const-tau", "--kappa", "1e999", "--range", "0", "1"],
    ], ids=["intrinsic", "gen-const-tau"])
    def test_kappa_that_is_not_finite_is_named(self, runner, tmp_path, args):
        if args[-1] == "intrinsic":
            args = [args[0], write_json(tmp_path, "c.json", {
                "type": "intrinsic", "kappa": "1e999", "tau": "0", "range": [0, 1]})]
        result = runner.invoke(main, args)
        self.assert_one_error_line(result)
        assert "kappa: not finite near s = 0" in result.stderr

    @pytest.mark.parametrize("tau_bar,reason", [
        ("1/(s-0.5)", "division by zero"), ("1e999", "not finite near s = 0"),
        # constants fold by the evaluator's own kernels
        ("(-2)^0.5*s", "fractional power of a negative base in '(-2.0)^0.5'"),
        ("(-8)^(1/3)*s", "fractional power of a negative base in '(-8.0)^0.3333"),
        ("0^(-1) + s", "not finite near s = 0"),
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

    # sigma(u) rounds to repeated values on subnormal panels
    TINY_ANALYTIC = {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0",
                     "range": [0, 1e-300]}
    # products of four node offsets underflow in the cubic slopes
    TINY_INTRINSIC = {"type": "intrinsic", "kappa": "cos(s)", "tau": "0", "range": [0, 1e-300]}

    @pytest.mark.parametrize("command,spec", [
        ("analyze", TINY_ANALYTIC), ("classify", TINY_ANALYTIC), ("analyze", TINY_INTRINSIC),
        ("reconstruct", TINY_INTRINSIC), ("classify", TINY_INTRINSIC),
    ])
    def test_range_too_short_to_resolve(self, runner, tmp_path, command, spec):
        result = runner.invoke(main, [command, write_json(tmp_path, "c.json", spec)])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: bad curve spec: ")

    @pytest.mark.parametrize("x", [
        "(" * 400 + "s" + ")" * 400, "sin(" * 400 + "s" + ")" * 400, "-" * 500 + "s",
        "+".join(["s"] * 1000),
    ], ids=["parentheses", "sin", "minus", "sum"])
    def test_expression_too_deep(self, runner, tmp_path, x):
        # the parser or the evaluation ran out of stack: a RecursionError
        # traceback, exit 1
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": x, "y": "s^2", "z": "0", "range": [0, 1]})
        result = runner.invoke(main, ["analyze", spec, "--step", "0.1"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: bad curve spec: expression deeper than 50 levels")

    @pytest.mark.parametrize("depth,exit_code", [(50, 0), (51, 2)])
    @pytest.mark.parametrize("shape", [lambda k: "sin(" * (k - 1) + "s" + ")" * (k - 1),
                                       lambda k: "+".join(["s"] * k)], ids=["sin", "sum"])
    def test_expression_depth_bound(self, runner, tmp_path, shape, depth, exit_code):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": shape(depth), "y": "s", "z": "0", "range": [0, 1]})
        result = runner.invoke(main, ["analyze", spec, "--step", "0.25"])
        assert result.exit_code == exit_code
        if exit_code:
            self.assert_one_error_line(result)
        else:
            assert result.stderr == ""

    @pytest.mark.parametrize("flag,value,reason", [
        ("--c1", "inf", "c1 must be finite"), ("--c2", "nan", "c2 must be finite"),
        ("--c1", "1e300", "mate distance overflows"), ("--c2", "-1e155", "mate distance overflows"),
    ])
    def test_bertrand_offset_out_of_range(self, runner, tmp_path, flag, value, reason):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0.2*s", "range": [0, 2],
        })
        result = runner.invoke(main, ["bertrand", spec, flag, value, "--step", "0.01"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith(f"error: {reason}")

    @pytest.mark.parametrize("offsets", [["--c1", "1.7e308", "--c2", "1.7e308"],
                                         ["--c1", "0.3", "--tau-bar", "1e308"]],
                             ids=["frame-offsets", "vertical-offset"])
    def test_bertrand_mate_point_not_finite(self, runner, tmp_path, offsets):
        # finite offsets whose mate point overflows: refused at its s, with no
        # numpy warning before the error line
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0.2*s", "range": [0, 2],
        })
        result = runner.invoke(main, ["bertrand", spec, *offsets, "--step", "0.1"])
        self.assert_one_error_line(result)
        assert result.stderr.startswith("error: mate: not finite near s = 0.1")


class TestErrorBoundary:
    """Failures outside the computations: output paths, config files, spec
    shapes and click usage errors all end in exit 2 with one `error:` line."""

    assert_one_error_line = staticmethod(TestErrorExits.assert_one_error_line)

    @pytest.fixture
    def spec(self, tmp_path):
        return write_json(tmp_path, "c.json", INTRINSIC_PANSU)

    def test_output_into_a_missing_directory(self, runner, spec, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        self.assert_one_error_line(runner.invoke(main, ["analyze", spec, "--output", str(out)]))
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["analyze", "reconstruct", "bertrand", "classify"])
    def test_output_is_checked_before_the_curve_is_built(self, runner, spec, tmp_path,
                                                          monkeypatch, command):
        from h1curves import cli

        built = []
        monkeypatch.setattr(cli, "_curve_from_spec", lambda *args: built.append(args))
        out = tmp_path / "missing" / "x.csv"
        self.assert_one_error_line(runner.invoke(main, [command, spec, "--output", str(out)]))
        assert built == []

    def test_output_is_checked_before_a_surface_is_generated(self, runner, tmp_path,
                                                             monkeypatch):
        from h1curves import cli

        built = []
        monkeypatch.setattr(cli, "generate_surface_constant_kappa",
                            lambda *args: built.append(args))
        result = runner.invoke(main, ["surface", "gen-const-kappa", "--kappa", "1",
                                      "--range", "0", "1", "--output",
                                      str(tmp_path / "missing" / "x.csv")])
        self.assert_one_error_line(result)
        assert built == []

    def test_failed_run_leaves_the_output_alone(self, runner, tmp_path):
        bad = write_json(tmp_path, "bad.json", {"type": "analytic", "x": "(", "y": "0",
                                                "z": "0", "range": [0, 1]})
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier result\n")
        for out in (kept, fresh):
            self.assert_one_error_line(runner.invoke(main, ["analyze", bad, "--output", str(out)]))
        assert kept.read_text() == "earlier result\n"
        assert not fresh.exists()

    def test_output_onto_a_directory(self, runner, spec, tmp_path):
        self.assert_one_error_line(
            runner.invoke(main, ["analyze", spec, "--output", str(tmp_path)]))

    @pytest.mark.parametrize("output", [7, ["a"]])
    def test_config_output_that_is_not_a_string(self, runner, spec, tmp_path, output):
        # an integer output once opened that file descriptor
        config = write_json(tmp_path, "cfg.json", {"output": output})
        result = runner.invoke(main, ["analyze", spec, "--config", config])
        self.assert_one_error_line(result)
        assert result.stdout == ""

    def test_config_format_outside_the_choices(self, runner, spec, tmp_path):
        config = write_json(tmp_path, "cfg.json", {"fmt": "xml"})
        result = runner.invoke(main, ["analyze", spec, "--config", config])
        self.assert_one_error_line(result)
        assert "'xml' is not one of 'csv', 'json'" in result.stderr

    @pytest.mark.parametrize("doc", [{"format": "json"}, {"step": 0.5, "config": "x.json"}])
    def test_config_key_outside_the_options(self, runner, spec, tmp_path, doc):
        config = write_json(tmp_path, "cfg.json", doc)
        result = runner.invoke(main, ["analyze", spec, "--config", config])
        self.assert_one_error_line(result)
        assert "the keys are step, tol, fmt, output" in result.stderr

    @pytest.mark.parametrize("doc", [
        [0.5], "step", {"step": [0.5]}, {"tol": {"v": 1}}, {"step": None}, {"fmt": None},
        {"step": True}, {"tol": True},
    ])
    def test_config_that_is_not_an_object_of_values(self, runner, spec, tmp_path, doc):
        config = write_json(tmp_path, "cfg.json", doc)
        self.assert_one_error_line(runner.invoke(main, ["analyze", spec, "--config", config]))

    def test_config_fills_every_option(self, runner, spec, tmp_path):
        out = tmp_path / "out.json"
        config = write_json(tmp_path, "cfg.json", {
            "step": "0.5", "tol": 1e-3, "fmt": "json", "output": str(out),
        })
        result = runner.invoke(main, ["analyze", spec, "--config", config])
        assert result.exit_code == 0 and result.stdout == ""
        direct = runner.invoke(main, ["analyze", spec, "--step", "0.5", "--format", "json"])
        assert out.read_text() == direct.stdout

    def test_intrinsic_initial_that_is_not_an_object(self, runner, tmp_path):
        spec = write_json(tmp_path, "c.json", {**INTRINSIC_PANSU, "initial": [0, 0, 0]})
        for command in ("analyze", "reconstruct"):
            result = runner.invoke(main, [command, spec])
            self.assert_one_error_line(result)
            assert result.stderr.startswith("error: bad curve spec: intrinsic initial")

    @pytest.mark.parametrize("doc", [[1, 2], "intrinsic", 3, None])
    def test_reconstruct_of_a_spec_that_is_not_an_object(self, runner, tmp_path, doc):
        spec = write_json(tmp_path, "c.json", doc)
        result = runner.invoke(main, ["reconstruct", spec])
        self.assert_one_error_line(result)
        assert result.stderr == "error: reconstruct needs an intrinsic curve spec\n"

    @pytest.mark.parametrize("args", [
        ["analyze", "{spec}", "--step", "abc"],
        ["analyze", "{spec}", "--bogus"],
        # an option another command takes
        ["analyze", "{spec}", "--tol", "1e-3"],
        ["classify", "{spec}", "--format", "csv"],
        ["surface", "pansu", "--lam", "1", "--format", "json"],
        ["analyze"],
        ["surface", "pansu"],
        ["surface", "pansu", "--lam"],
        ["nocommand"],
        ["surface", "nocommand"],
        ["--bogus"],
    ])
    def test_usage_error(self, runner, spec, args):
        result = runner.invoke(main, [a.format(spec=spec) for a in args])
        self.assert_one_error_line(result)
        assert "Usage:" not in result.stderr

    @pytest.mark.parametrize("args", [[], ["surface"]])
    def test_bare_group_prints_its_help(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Usage:" in result.output and "Commands:" in result.output
        assert "error:" not in result.output

    def test_help(self, runner):
        result = runner.invoke(main, ["analyze", "--help"])
        assert result.exit_code == 0
        assert "--config PATH" in result.stdout and result.stderr == ""

    def test_each_command_takes_the_options_it_reads(self):
        # --tol only where a verdict reads it, --format only where a table is
        # printed; classify, check and pansu always print JSON
        table = ["--step", "--format", "--output", "--config"]
        verdict = ["--step", "--tol", "--output", "--config"]
        commands = {name: c for name, c in main.commands.items() if name != "surface"}
        commands.update({f"surface {name}": c
                         for name, c in main.commands["surface"].commands.items()})
        options = {name: [p.opts[0] for p in c.params if isinstance(p, click.Option)]
                   for name, c in commands.items()}
        assert options == {
            "analyze": table, "reconstruct": table,
            "bertrand": ["--c1", "--c2", "--tau-bar", "--g", *table],
            "classify": verdict, "surface check": verdict, "surface pansu": ["--lam", *verdict],
            "surface gen-const-kappa": ["--kappa", "--tau", "--c1", "--c2", "--c3g", "--c3f",
                                        "--range", *table],
            "surface gen-const-tau": ["--kappa", "--tau", "--constants", "--g2-const",
                                      "--f-const", "--range", *table],
        }

    @pytest.mark.parametrize("args,doc,message", [
        (["analyze", "{doc}"], {"type": "analytic", "x": "s", "y": "s^2", "z": "0",
                                "range": [0, 1], "kappa": "1"},
         "bad curve spec: unknown key 'kappa'; the keys are type, x, y, z, range"),
        (["analyze", "{doc}"], {"type": "samples", "data": [[u, u, u * u, 0] for u in range(5)],
                                "range": [0, 4]},
         "bad curve spec: unknown key 'range'; the keys are type, data"),
        (["analyze", "{doc}"], {"type": "intrinsic", "kappa": "1", "tau": "0", "range": [0, 1],
                                "intial": {"point": [5, 0, 0], "heading": 1}},
         "bad curve spec: unknown key 'intial'; the keys are type, kappa, tau, range, initial"),
        (["reconstruct", "{doc}"], {"type": "intrinsic", "kappa": "1", "tau": "0",
                                    "range": [0, 1], "intial": {"point": [5, 0, 0], "heading": 1}},
         "bad curve spec: unknown key 'intial'; the keys are type, kappa, tau, range, initial"),
        (["reconstruct", "{doc}"], {**INTRINSIC_PANSU, "initial": {"point": [0, 0, 0], "phi": 1}},
         "bad curve spec: unknown key 'phi'; the keys are point, heading"),
        (["surface", "check", "{doc}", "{curve}"], {"g": "1", "f": "s", "range": [-1, 1],
                                                    "rnage": [5, 6]},
         "bad surface spec: unknown key 'rnage'; the keys are g, f, range"),
    ], ids=["analytic", "samples", "intrinsic", "reconstruct", "initial", "surface"])
    def test_spec_key_outside_its_kind(self, runner, tmp_path, args, doc, message):
        # a misspelled key may not pass for an absent one: the intrinsic spec
        # above would start at the origin with heading 0
        paths = {"doc": write_json(tmp_path, "doc.json", doc), "curve": write_json(
            tmp_path, "c.json", {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s",
                                 "range": [0, 1]})}
        result = runner.invoke(main, [a.format(**paths) for a in args])
        self.assert_one_error_line(result)
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("heading", [float("nan"), float("-inf")])
    def test_nonfinite_heading_is_refused(self, runner, tmp_path, heading):
        # json reads NaN and -Infinity; the spec names the heading, not the
        # pose's rotation angle
        doc = write_json(tmp_path, "doc.json", {**INTRINSIC_PANSU, "initial": {"heading": heading}})
        result = runner.invoke(main, ["reconstruct", doc])
        self.assert_one_error_line(result)
        assert result.stderr == "error: bad curve spec: non-finite heading\n"

    _ANALYTIC = {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1]}
    _SAMPLES = {"type": "samples", "data": [[0, 1, 0, 0], [0.25, True, 0, 0], [0.5, 1, 0.5, 0],
                                            [0.75, 1, 0.75, 0], [1, 1, 1, 0]]}
    _SURFACE = {"g": "1", "f": "s", "range": [-1, 1]}

    @pytest.mark.parametrize("args,doc,key", [
        (["reconstruct", "{doc}", "--step", "0.25"],
         {"type": "intrinsic", "kappa": "1", "tau": "0", "range": [0, True],
          "initial": {"point": [True, 0, 0], "heading": False}}, "range"),
        (["reconstruct", "{doc}"], {**INTRINSIC_PANSU, "initial": {"point": [True, 0, 0]}},
         "point"),
        (["reconstruct", "{doc}"], {**INTRINSIC_PANSU, "initial": {"heading": False}}, "heading"),
        (["analyze", "{doc}"], {**INTRINSIC_PANSU, "kappa": True}, "kappa"),
        (["analyze", "{doc}"], {**INTRINSIC_PANSU, "tau": False}, "tau"),
        (["analyze", "{doc}"], _SAMPLES, "data"),
        (["analyze", "{doc}"], {**_ANALYTIC, "x": True}, "x"),
        (["analyze", "{doc}"], {**_ANALYTIC, "y": False}, "y"),
        (["analyze", "{doc}"], {**_ANALYTIC, "z": False}, "z"),
        (["analyze", "{doc}"], {**_ANALYTIC, "range": [False, True]}, "range"),
        (["surface", "check", "{doc}", "{curve}"], {**_SURFACE, "g": True}, "g"),
        (["surface", "check", "{doc}", "{curve}"], {**_SURFACE, "f": False}, "f"),
        (["surface", "check", "{doc}", "{curve}"], {**_SURFACE, "range": [False, True]}, "range"),
    ], ids=["intrinsic-range", "point", "heading", "kappa", "tau", "data", "x", "y", "z",
            "analytic-range", "g", "f", "surface-range"])
    def test_boolean_in_a_spec_is_refused(self, runner, tmp_path, args, doc, key):
        # json reads true and false as Python's True and False, which pass
        # for 1 and 0 wherever a number is taken
        paths = {"doc": write_json(tmp_path, "doc.json", doc),
                 "curve": write_json(tmp_path, "c.json", self._ANALYTIC)}
        result = runner.invoke(main, [a.format(**paths) for a in args])
        self.assert_one_error_line(result)
        kind = "surface" if args[0] == "surface" else "curve"
        assert result.stderr == (f"error: bad {kind} spec: key {key!r} holds a boolean; "
                                 "true and false are not numbers\n")


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

    def test_pansu_certifies_a_large_sphere(self, runner):
        # heights of 7.9e7 carry a graph defect of 4.5e-8 in rounding alone;
        # the verdict is membership's, by the absolute --tol
        result = runner.invoke(main, ["surface", "pansu", "--lam", "1e-4", "--step", "0.1"])
        assert result.exit_code in (0, 1), result.stderr
        assert result.stderr == ""

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
        {"g": "(-2)^0.5*s", "f": "s", "range": [0, 1]},
        {"g": "1", "f": "(-8)^(1/3)*s", "range": [0, 1]},
        {"g": "1", "f": "0^(-1) + s", "range": [0, 1]},
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

    def test_gen_const_kappa_csv_samples_the_json_texts(self, runner):
        # the table's profiles are the printed texts evaluated on its s, bit
        # for bit: f is parsed from its text, with no quadrature of tau
        args = ["surface", "gen-const-kappa", "--kappa", "1.5", "--tau", "0.3", "--c1", "-0.8",
                "--c2", "0.3", "--c3g", "1.2", "--c3f", "0.5", "--range", "0.7", "2.9"]
        table, texts = runner.invoke(main, args), runner.invoke(main, [*args, "--format", "json"])
        assert table.exit_code == texts.exit_code == 0
        header, data = parse_csv(table.output)
        doc = json.loads(texts.output)
        assert header == ["s", "g", "f"]
        assert np.array_equal(data[:, 1], ScalarFn.parse(doc["g"])(data[:, 0]))
        assert np.array_equal(data[:, 2], ScalarFn.parse(doc["f"])(data[:, 0]))

    @pytest.mark.parametrize("step", ["0.5", "0.001"])
    def test_gen_const_kappa_json_refuses_a_step_flag(self, runner, tmp_path, step):
        # the JSON is the closed-form texts, which no step samples; a config
        # file's step serves every command and stays accepted
        args = ["surface", "gen-const-kappa", "--kappa", "2", "--range", "-3", "0"]
        result = runner.invoke(main, [*args, "--format", "json", "--step", step])
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --step samples the csv table")
        plain = runner.invoke(main, [*args, "--format", "json"])
        config = write_json(tmp_path, "cfg.json", {"step": float(step)})
        configured = runner.invoke(main, [*args, "--format", "json", "--config", config])
        assert plain.exit_code == configured.exit_code == 0
        assert configured.stdout == plain.stdout
        assert runner.invoke(main, [*args, "--step", step]).exit_code == 0

    def test_gen_const_kappa_negative_radicand(self, runner):
        result = runner.invoke(main, [
            "surface", "gen-const-kappa", "--kappa", "2", "--c1", "-1",
            "--c2", "0", "--c3g", "0.5", "--c3f", "0",
            "--range", str(-np.pi), "0",
        ])
        assert result.exit_code == 2

    def test_gen_const_kappa_radicand_negative_between_check_nodes(self, runner):
        # c3g < hypot(c1, c2): the radicand dips to -1e-7 within 5e-4 of
        # s = pi, between the generator's check nodes; its exact minimum
        # refuses it before any profile is sampled
        result = runner.invoke(main, [
            "surface", "gen-const-kappa", "--kappa", "1", "--c1", "-1", "--c2", "0",
            "--c3g", "0.9999999", "--range", "0", "10", "--step", "1e-4",
        ])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: negative radicand for g at s = 3.141592653589793: the profile is not real there\n")

    @pytest.mark.parametrize("args,exit_code", [
        # the coarse step and the JSON text once hid the dip at s = pi
        (["--kappa", "1", "--c1", "-1", "--c3g", "0.9999999", "--range", "0", "10",
          "--step", "0.01"], 2),
        # kappa < 0: g^2 = cos(s) + 0.9999999 reaches -1e-7 at s = pi
        (["--kappa", "-1", "--c1", "1", "--c3g", "-0.9999999", "--range", "0", "10",
          "--format", "json"], 2),
        (["--kappa", "-1", "--c1", "1", "--c3g", "-0.9999999", "--range", "3", "3.2",
          "--format", "json"], 2),
        # shorter than a period: the dip at s = pi lies outside [0, 3] and [3.2, 6]
        (["--kappa", "1", "--c1", "-1", "--c3g", "0.9999999", "--range", "0", "3"], 0),
        (["--kappa", "-1", "--c1", "1", "--c3g", "-0.9999999", "--range", "3.2", "6",
          "--format", "json"], 0),
    ])
    def test_gen_const_kappa_radicand_minimum_is_exact(self, runner, args, exit_code):
        result = runner.invoke(main, ["surface", "gen-const-kappa", *args])
        assert result.exit_code == exit_code, result.stderr
        if exit_code:
            assert result.stderr.startswith("error: negative radicand for g at s = 3.14159")

    def test_gen_const_tau_csv(self, runner):
        result = runner.invoke(main, [
            "surface", "gen-const-tau", "--kappa", "2 + sin(s)", "--tau", "0.3",
            "--g2-const", "1.0", "--range", "0", "5", "--step", "0.05",
        ])
        assert result.exit_code == 0
        header, data = parse_csv(result.output)
        assert header == ["s", "g", "f"]
        assert np.all(data[:, 1] >= 0)

    @pytest.mark.parametrize("kappa", ["s - 0.50005", "s - 0.5"],
                             ids=["between-nodes", "on-a-node"])
    def test_gen_const_tau_through_a_zero_of_kappa(self, runner, kappa):
        # the closed forms divide by kappa at the left endpoint only, so f is
        # smooth through the zero: adjacent rows differ by about 0.0020
        result = runner.invoke(main, ["surface", "gen-const-tau", "--kappa", kappa,
                                      "--range", "0", "1", "--g2-const", "1e9"])
        assert result.exit_code == 0, result.stderr
        _, data = parse_csv(result.output)
        assert np.max(np.abs(np.diff(data[:, 2]))) < 0.01

    def test_gen_const_tau_kappa_vanishing_at_the_start_is_refused(self, runner):
        result = runner.invoke(main, ["surface", "gen-const-tau", "--kappa", "s - 0.25",
                                      "--range", "0.25", "1"])
        assert result.exit_code == 2
        assert result.stderr == ("error: kappa vanishes at s = 0.25 but is not identically "
                                 "zero; the closed forms' constants need 1/kappa there\n")

    def test_gen_const_tau_json_is_json_dumps_of_the_csv_table(self, runner):
        args = ["surface", "gen-const-tau", "--kappa", "2 + sin(s)", "--tau", "0.3",
                "--g2-const", "1.0", "--range", "0", "5", "--step", "0.05"]
        text = runner.invoke(main, args).output
        doc = runner.invoke(main, [*args, "--format", "json"]).output
        _, data = parse_csv(text)  # %.17g reads back to the same doubles
        assert doc == json.dumps({"samples": data.tolist(), "range": [0.0, 5.0]}, indent=2) + "\n"


class TestCsvFormat:
    def test_bytes_match_per_value_formatting(self):
        from h1curves.cli import _table

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
        assert _table("csv", header, rows) == expected
        assert expected.split("\n")[1] == "-0,1e-300,1.0000000000000001e+300,3"
        assert _table("csv", header, np.empty((0, 4))) == "a,b,c,d\n"

    @staticmethod
    def assert_per_value(rows):
        from h1curves.cli import _table

        header = [f"c{j}" for j in range(rows.shape[1])]
        lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
        # a list reports its first bad line
        assert _table("csv", header, rows).split("\n") == lines + [""]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                           elements=st.floats(allow_nan=True, allow_infinity=True,
                                              allow_subnormal=True)))
    def test_property_matches_per_value_formatting(self, rows):
        self.assert_per_value(rows)

    @staticmethod
    def ulps(values, reach=2):
        """Each value and its neighbours up to ``reach`` ulps away, one row each."""
        columns = [np.asarray(values, dtype=float)]
        for _ in range(reach):
            columns.insert(0, np.nextafter(columns[0], -np.inf))
            columns.append(np.nextafter(columns[-1], np.inf))
        return np.column_stack(columns)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_their_neighbours(self, sign):
        powers = [float(f"1e{e}") for e in range(-323, 309)]
        self.assert_per_value(sign * self.ulps(powers))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_seventeen_digit_boundaries(self, sign):
        edges = [9.999999999999999e16, 1e17, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
                 9.9999999999999998e149, 99999999999999998.0, 1e16 - 1]
        self.assert_per_value(sign * self.ulps(edges))

    def test_exact_ties_round_half_even(self):
        from h1curves import textout

        # m/1024 with m odd, about 3e10: 8 digits before the point and the
        # 18th significant digit an exact 5, after an even and an odd 17th
        m = 3 * 10**10 + 1 + 2 * np.arange(2000, dtype=np.int64)
        ties = np.concatenate([m / 1024.0, -m / 1024.0])
        assert textout._digits(ties)[2].all()  # each one is left to Python
        self.assert_per_value(ties.reshape(-1, 4))

    def test_zero_column_and_all_nan_table(self):
        from h1curves import textout

        assert not textout._digits(np.array([0.0, -0.0]))[2].any()  # zeros stay in numpy
        rows = np.column_stack([np.linspace(0, 4, 2501), np.zeros(2501), -np.zeros(2501)])
        self.assert_per_value(rows)
        self.assert_per_value(np.full((5, 3), np.nan))
        self.assert_per_value(np.array([[np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0]]))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(18).integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
        self.assert_per_value(bits.view(np.float64).reshape(-1, 5))

    @pytest.mark.parametrize("ncols", [3, 7])
    def test_separators_across_chunks(self, ncols):
        from h1curves import textout

        rng = np.random.default_rng(ncols)
        nrows = 3 * textout._CHUNK // ncols + 5  # three whole chunks and a part
        rows = rng.normal(size=(nrows, ncols)) * 10.0 ** rng.integers(-30, 30, (nrows, ncols))
        self.assert_per_value(rows)


class TestJsonTable:
    DOCS = [({"columns": ["a", "b", "c"]}, "rows"), ({"type": "samples"}, "data")]

    @staticmethod
    def dumps(doc, key, rows):
        return json.dumps({**doc, key: rows.tolist()}, indent=2) + "\n"

    @pytest.mark.parametrize("doc,key", DOCS)
    def test_bytes_match_json_dumps(self, doc, key):
        from h1curves.cli import _table

        rows = np.array([
            [-0.0, 5e-324, 1e300],
            [0.1, -1e-5, 2.0**-1074],
            [123456789012345678.0, 1e16, -np.pi],
            [3.0, 1.0 / 3.0, -7.0],
        ])
        assert _table("json", None, rows, doc, key) == self.dumps(doc, key, rows)
        assert _table("json", None, rows[:1], doc, key) == self.dumps(doc, key, rows[:1])

    @pytest.mark.parametrize("doc,key", DOCS)
    def test_zero_rows(self, doc, key):
        from h1curves.cli import _table

        rows = np.empty((0, 3))
        assert _table("json", None, rows, doc, key) == self.dumps(doc, key, rows)

    @pytest.mark.parametrize("doc,key", DOCS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_fall_back_to_json_dumps(self, doc, key, bad):
        from h1curves.cli import _table

        rows = np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]])
        text = _table("json", None, rows, doc, key)
        assert text == self.dumps(doc, key, rows)
        assert "NaN" in text or "Infinity" in text

    # both document shapes the CLI writes, and the table before another key
    # as gen-const-tau places it
    SHAPES = DOCS + [({"samples": None, "range": [0.0, 2.5]}, "samples")]

    @classmethod
    def assert_dumps(cls, rows):
        from h1curves.cli import _table

        for doc, key in cls.SHAPES:
            want = cls.dumps(doc, key, rows).split("\n")
            # a list reports its first bad line
            assert _table("json", None, rows, doc, key).split("\n") == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                           elements=st.floats(allow_nan=True, allow_infinity=True,
                                              allow_subnormal=True)))
    def test_property_matches_json_dumps(self, rows):
        self.assert_dumps(rows)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("base", [2, 10])
    def test_powers_and_their_neighbours(self, sign, base):
        if base == 2:
            powers = 2.0 ** np.arange(-1074, 1024)
        else:
            powers = [float(f"1e{e}") for e in range(-323, 309)]
        self.assert_dumps(sign * TestCsvFormat.ulps(powers))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_repr_form_boundaries(self, sign):
        # repr is fixed point for exponents -4 to 15; %.17g goes on to 16
        edges = [9999999999999998.0, 1e16, 9.999999999999999e-05, 0.0001, 1e15, 123.0, 0.5]
        self.assert_dumps(sign * TestCsvFormat.ulps(edges))

    def test_ties_of_the_nearest_multiple_go_to_python(self):
        from h1curves import textout

        # a shortest interval holding two 17-digit candidates equally near:
        # repr rounds the tie half-even, to ...384.8, not ...384.7
        ties = np.array([2191075020463384.75, -2191075020463384.75, 1125899906842623.75])
        assert textout._shortest(ties)[2].all()
        self.assert_dumps(ties.reshape(-1, 1))
        assert "2191075020463384.8" in TestJsonTable.dumps({}, "r", ties[:1].reshape(1, 1))

    def test_interval_ends_on_an_integer_go_to_python(self):
        from h1curves import textout

        # doubles near 1e19 are the multiples of 2048, half a gap 1024; the
        # rounding interval ends on a 17-digit integer where x +- 1024 is a
        # multiple of 10**(k - 16), and which end reads back depends on the
        # mantissa's parity
        m = 2048.0 * (np.arange(-3000, 3000) + int(1e19) // 2048)
        exact = [any((int(v) + h) % 10 ** (len(str(int(v))) - 17) == 0 for h in (-1024, 1024))
                 for v in m]
        assert sum(exact) > 20
        assert textout._shortest(m)[2][exact].all()
        self.assert_dumps(np.column_stack([m, -m]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_large_integers_go_to_python(self, sign):
        from h1curves import textout

        # from 2**52 to 1e17 the rounding interval ends on exact integers,
        # inside it for an even mantissa and outside for an odd one
        rng = np.random.default_rng(52)
        x = np.concatenate([rng.uniform(2.0**52, 1e17, 20000), 2.0 ** np.arange(52, 57),
                            2.0**52 + np.arange(-40.0, 40.0), 2.0**53 + np.arange(-40.0, 40.0, 2.0),
                            np.nextafter(1e17, 0) - 16.0 * np.arange(40), 1e16 + 2.0 * np.arange(40)])
        assert textout._shortest(x[x >= 2.0**52])[2].all()
        self.assert_dumps(sign * x.reshape(-1, 5))

    def test_integers_extremes_and_zeros(self):
        from h1curves import textout

        rows = np.array([[123.0, 5e-324, 1e300, 0.0], [-7.0, -5e-324, -1e-300, -0.0],
                         [1e22, 2.0**53, 1e-280, 1e280]])
        self.assert_dumps(rows)
        zeros = np.zeros((2501, 2))
        zeros[:, 1] = -0.0
        assert not textout._shortest(zeros.ravel())[2].any()  # zeros stay in numpy
        self.assert_dumps(np.column_stack([np.linspace(0, 4, 2501), zeros]))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
        self.assert_dumps(bits.view(np.float64).reshape(-1, 5))

    def test_workload_grids_need_no_python(self):
        from h1curves import textout

        # step grids, their powers of two among them, and smooth columns
        s = np.arange(20001) * 0.001
        rows = np.column_stack([s, np.cos(s), np.sin(3.0 * s) * 0.37, s * s - 2.0])
        assert not textout._shortest(rows.ravel())[2].any()
        self.assert_dumps(rows)

    @pytest.mark.parametrize("ncols", [3, 7])
    def test_separators_across_chunks(self, ncols):
        from h1curves import textout

        rng = np.random.default_rng(ncols + 20)
        nrows = 3 * textout._CHUNK // ncols + 5  # three whole chunks and a part
        rows = rng.normal(size=(nrows, ncols)) * 10.0 ** rng.integers(-30, 30, (nrows, ncols))
        rows[::97, 1] = np.nan  # Python's text in some chunks
        self.assert_dumps(rows)


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

    def test_import_builds_no_format_table(self):
        # the text kernel's tables, CSV and JSON, are built by the first
        # table it formats
        proc = self.run("-c", "import sys, h1curves.cli; "
                              "t = sys.modules.get('h1curves.textout'); "
                              "print(t is None or sum(f.cache_info().currsize for f in "
                              "(t._tables, t._layout, t._powers)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() in ("True", "0")

    def test_membership_past_the_float_range_writes_no_warning(self, tmp_path):
        # d^2 overflows on most of a profile grid spanning 1e300
        surface = write_json(tmp_path, "s.json", {"g": "1", "f": "-s", "range": [0, 1e300]})
        curve = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        proc = self.run("-m", "h1curves.cli", "surface", "check", surface, curve)
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""

    def test_output_into_a_missing_directory(self, tmp_path):
        spec = write_json(tmp_path, "c.json", INTRINSIC_PANSU)
        proc = self.run("-m", "h1curves.cli", "analyze", spec,
                        "--output", str(tmp_path / "missing" / "x.csv"))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_overflow_error_is_the_only_stderr_line(self, tmp_path):
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "exp(exp(s))", "y": "s", "z": "0", "range": [0, 10],
        })
        proc = self.run("-m", "h1curves.cli", "analyze", spec)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_arc_length_past_the_float_range_is_the_only_stderr_line(self, tmp_path):
        # a regular curve whose arc length sigma overflows: refused as a bad
        # spec, not as an irregular curve against a floor of inf
        spec = write_json(tmp_path, "c.json", {
            "type": "analytic", "x": "s", "y": "s^2", "z": "0", "range": [-1e154, 1e154],
        })
        proc = self.run("-m", "h1curves.cli", "analyze", spec, "--step", "1e150")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: bad curve spec: arc length: not finite near u = ")


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
           step=st.none() | _values(1e-3, 0.5), tol=st.none() | _values(1e-12, 1.0),
           profile=st.sampled_from([{}, {}, {}, {"g": "1e999"}, {"f": "1e999 + s"}]))
    @example(lo=-1.0, width=3.0, step=None, tol=None, profile={"g": "1e999"})
    @example(lo=-1.0, width=3.0, step=None, tol=None, profile={"f": "1e999 + s"})
    def test_check(self, tmp_path_factory, lo, width, step, tol, profile):
        # the lift of the unit circle against the cylinder g = 1, f = -s over
        # a generated profile range [lo, lo + width], which may be empty,
        # reversed or not finite; a profile that is not finite gives no
        # verdict
        workdir = tmp_path_factory.mktemp("check")
        surface = write_json(workdir, "s.json", {
            "g": "1", "f": "-s", "range": [lo, lo + width], **profile})
        curve = write_json(workdir, "c.json", {
            "type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-s", "range": [0, 1],
        })
        args = ["surface", "check", surface, curve, *self.options(step, tol)]
        result = CliRunner().invoke(main, args)
        self.assert_contract(result)
        if profile:
            assert result.exit_code == 2, result.stdout


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
    @given(kappa=st.sampled_from(["2 + sin(s)", "1.5", "-1 - 0.3*cos(s)", "s", "0",
                                  "(-2)^0.5*s", "(-8)^(1/3)*s", "0^(-1) + s"]),
           opts=_options(tau=st.floats(-3.0, 3.0), **{"g2-const": st.floats(0.0, 100.0)},
                         **{"f-const": st.floats(-3.0, 3.0)},
                         **{f"C{i}": st.floats(-2.0, 2.0) for i in range(1, 7)}, **_range),
           fmt=st.sampled_from(["csv", "json"]))
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "g2-const": float("nan")}, fmt="csv")
    @example(kappa="(-8)^(1/3)*s", opts=_tau_defaults, fmt="csv")
    @example(kappa="0^(-1) + s", opts=_tau_defaults, fmt="json")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "f-const": float("inf")}, fmt="csv")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "tau": float("inf")}, fmt="json")
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "C5": float("nan")}, fmt="csv")
    # Delta = C2 C3 - C1 C4 is subnormal but nonzero: the constants are accepted,
    # and Q, which does not divide by Delta, stays finite
    @example(kappa="2 + sin(s)", opts={**_tau_defaults, "C1": -5e-324, "C2": 0.8, "C3": 5e-324,
                                       "C4": -1.7}, fmt="csv")
    def test_gen_const_tau(self, kappa, opts, fmt):
        opts = dict(opts)
        constants = [repr(opts.pop(f"C{i}")) for i in range(1, 7)]
        args = self.args("gen-const-tau", opts, fmt,
                         ["--kappa", kappa, "--constants", *constants])
        self.assert_contract(CliRunner().invoke(main, args), fmt)


# curve specs for the property test of the curve commands: good ones, and
# good ones spoiled by one bad value (texts that do not parse, fail to
# evaluate or overflow, and values that are not texts), a dropped key or a
# shape that is not a spec
_TEXTS = ["cos(s)", "sin(s)", "0.2*s", "s", "0.5*s^2", "0", "1 + 0.5*sin(s)", "2"]
_BAD_VALUES = ["sin(q)", "1/(s-0.5)", "exp(exp(s))", "(-2)^0.5*s", "(-8)^(1/3)*s", "0^(-1) + s",
               "1e999 + s", "(", "", 3, None, ["s"], "analytic",
               [0, 1e-300], [1, 0], [0, float("nan")], [0, float("inf")], [0, 1e300], [-1, 1],
               {"point": [1, 2]}, {"point": "abc"}, {"heading": "x"}, {"heading": [1]}]


def _spec_range(lo):
    return st.builds(lambda a, w: [a, a + w], lo, st.floats(0.1, 4.0))


def _samples(n, width, corrupt):
    u = np.linspace(0.0, width, n)
    rows = np.column_stack([u, np.cos(u), np.sin(u), 0.2 * u]).tolist()
    if corrupt == "column" and rows:
        rows = [row[:3] for row in rows]
    elif corrupt == "nan" and rows:
        rows[n // 2][2] = float("nan")
    elif corrupt == "text" and rows:
        rows[0][1] = "x"
    elif corrupt == "order":
        rows.reverse()
    elif corrupt == "ragged" and rows:
        rows[-1] = rows[-1][:2]
    return {"type": "samples", "data": rows}


def _spoiled(spec, index, bad):
    """``spec`` with one of its keys dropped (``bad`` is None) or set to ``bad``."""
    keys = sorted(spec)
    key = keys[index % len(keys)]
    rest = {k: v for k, v in spec.items() if k != key}
    return rest if bad is None else {**rest, key: bad}


_ANALYTIC = st.fixed_dictionaries({
    "type": st.just("analytic"), "x": st.sampled_from(_TEXTS), "y": st.sampled_from(_TEXTS),
    "z": st.sampled_from(_TEXTS), "range": _spec_range(st.floats(-2.0, 2.0)),
})
_SAMPLES = st.builds(_samples, st.integers(0, 40), st.floats(0.5, 4.0),
                     st.sampled_from([None, None, None, "column", "nan", "text", "order",
                                      "ragged"]))
_INITIAL = st.fixed_dictionaries({}, optional={
    "point": st.sampled_from([[0, 0, 0], [1, -2, 0.5]]), "heading": st.sampled_from([0, 1.3, -2.0]),
})
_INTRINSIC = st.fixed_dictionaries({
    "type": st.just("intrinsic"), "kappa": st.sampled_from(_TEXTS),
    "tau": st.sampled_from(_TEXTS), "range": _spec_range(st.just(0.0)),
}, optional={"initial": _INITIAL})
_CURVE_SPECS = st.one_of(
    _ANALYTIC, _SAMPLES, _INTRINSIC,
    st.builds(_spoiled, _ANALYTIC | _INTRINSIC, st.integers(0, 5),
              st.none() | st.sampled_from(_BAD_VALUES)),
    st.sampled_from([[1, 2], "curve", 3, None, {}, {"type": "spiral"}, {"type": 7}]),
)
# config files: good ones, and bad ones that break one rule each; an
# "output" of "out", "missing" or "dir" names a path in the example's own
# directory
_CONFIGS = st.fixed_dictionaries({}, optional={
    "step": st.sampled_from([0.5, 0.05, "0.25"]), "tol": st.sampled_from([1e-3, 1e-8]),
    "fmt": st.sampled_from(["csv", "json"]), "output": st.just("out"),
})
_BAD_CONFIGS = [
    {"step": "fine"}, {"step": -1}, {"step": float("nan")}, {"step": None}, {"step": [0.1]},
    {"tol": 0}, {"tol": {"v": 1}}, {"fmt": "xml"}, {"fmt": None}, {"output": "missing"},
    {"output": "dir"}, {"output": 7}, {"output": ["a"]}, {"format": "json"}, [0.5],
    {"step": True},
]
# common flags: ordinary values, or with one of them at an edge
_FLAGS = st.builds(
    lambda ordinary, edge: {**ordinary, **edge},
    st.fixed_dictionaries({
        "step": st.none() | st.floats(1e-2, 0.5), "tol": st.none() | st.floats(1e-12, 1.0),
        "fmt": st.sampled_from([None, "csv", "json"]), "bogus": st.just(False),
        "config": st.none() | _CONFIGS,
    }),
    st.booleans().flatmap(lambda edge: st.one_of(
        st.sampled_from(_EDGE_VALUES).map(lambda v: {"step": v}),
        st.sampled_from(_EDGE_VALUES).map(lambda v: {"tol": v}),
        st.just({"fmt": "xml"}),
        st.just({"bogus": True}),
        st.sampled_from(_BAD_CONFIGS).map(lambda c: {"config": c}),
    ) if edge else st.just({})),
)
_BERTRAND_OFFSETS = st.fixed_dictionaries({
    "--c1": st.floats(-2.0, 2.0) | st.sampled_from(_EDGE_VALUES), "--c2": st.floats(-2.0, 2.0),
}, optional={
    "--tau-bar": st.sampled_from(["0.3", "s", "1 + 0.2*cos(s)", "1/(s-0.5)", "1e999", "sin(",
                                  "(-2)^0.5*s", "(-8)^(1/3)*s", "0^(-1) + s"]),
    "--g": st.sampled_from(["s", "0", "1/(s-0.5)", "(", "(-2)^0.5*s", "(-8)^(1/3)*s",
                            "0^(-1) + s"]),
})


class TestCurveCommandErrorContract:
    """Every `analyze`, `reconstruct`, `bertrand` and `classify` input ends
    in exit 0, 2 or 3 (these commands give no negative verdict) with no
    exception escaping; an error exit writes exactly one stderr line,
    starting `error:`, and a success writes nothing there.  Specs are
    analytic, sampled, intrinsic or malformed; flags are ordinary or have
    one edge: a step or tolerance, a format, an unknown option or a bad
    config file.  An unknown option, or one that only other commands take,
    exits 2.  Ordinary spec ranges are at most 4 wide and ordinary
    steps at least 1e-2 or the default 1e-3, so range/step ratios stay at
    or under 1e4 before the arc length stretches them; edge values either
    give grids of a few panels or exceed the grid budget."""

    @staticmethod
    def assert_contract(result):
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exception)
        assert result.exit_code in (0, 2, 3)
        event(f"exit {result.exit_code}")
        if result.exit_code:
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        else:
            assert result.stderr == ""

    @staticmethod
    def args(workdir, command, step, tol, fmt, bogus, config):
        """The options; --tol goes only to classify and --format only to
        the others, and a ``bogus`` of "foreign" is whichever of the two the
        command does not take."""
        verdict = command == "classify"
        args = []
        for flag, value in (("--step", step), ("--tol", tol if verdict else None)):
            if value is not None:
                args += [flag, repr(value)]
        if fmt is not None and not verdict:
            args += ["--format", fmt]
        if bogus == "foreign":
            args += ["--format", "csv"] if verdict else ["--tol", "1e-3"]
        elif bogus:
            args += ["--bogus"]
        if config is not None:
            paths = {"out": workdir / "out.txt", "missing": workdir / "no" / "x.txt",
                     "dir": workdir}
            if isinstance(config, dict) and isinstance(config.get("output"), str):
                config = {**config, "output": str(paths[config["output"]])}
            args += ["--config", write_json(workdir, "cfg.json", config)]
        return args

    _plain = {"step": 0.1, "tol": None, "fmt": None, "bogus": False, "config": None}

    @pytest.mark.parametrize("command", ["analyze", "reconstruct", "bertrand", "classify"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spec=_CURVE_SPECS, offsets=_BERTRAND_OFFSETS, flags=_FLAGS)
    # points that are not finite, and constants that fold outside their domain
    @example(spec={"type": "analytic", "x": "1e999 + s", "y": "sin(s)", "z": "0.2*s",
                   "range": [0, 1]}, offsets={"--c1": 0.3, "--c2": 0.0}, flags=_plain)
    @example(spec={"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0^(-1) + s",
                   "range": [0, 1]}, offsets={"--c1": 0.3, "--c2": 0.0}, flags=_plain)
    @example(spec={"type": "intrinsic", "kappa": "(-8)^(1/3)*s", "tau": "0", "range": [0, 1]},
             offsets={"--c1": 0.3, "--c2": 0.0}, flags=_plain)
    @example(spec={"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "0.2*s",
                   "range": [0, 1]}, offsets={"--c1": 0.3, "--c2": 0.0, "--tau-bar": "(-2)^0.5*s"},
             flags=_plain)
    # an option another command takes is a usage error
    @example(spec=INTRINSIC_PANSU, offsets={"--c1": 0.3, "--c2": 0.0},
             flags={**_plain, "bogus": "foreign"})
    def test_curve_command(self, tmp_path_factory, command, spec, offsets, flags):
        workdir = tmp_path_factory.mktemp(command)
        args = [command, write_json(workdir, "c.json", spec)]
        if command == "bertrand":
            for flag, value in offsets.items():
                args += [flag, value if isinstance(value, str) else repr(value)]
        args += self.args(workdir, command, **flags)
        result = CliRunner().invoke(main, args)
        self.assert_contract(result)
        if flags["bogus"]:
            assert result.exit_code == 2, result.stdout
