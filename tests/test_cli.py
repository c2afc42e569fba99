import json

import numpy as np
import pytest
from click.testing import CliRunner

from h1curves.cesaro import pansu_sphere
from h1curves.cli import main


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
