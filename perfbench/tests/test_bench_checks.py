"""Every workload's reduced round passes its checks, and every check fails
on a deliberately corrupted output."""

import io
import json
import re

import numpy as np
import pytest

import checks
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_passes(rounds, workload):
    for op, code, text in rounds(workload):
        assert code == op["expect_exit"], op["args"]
        rep = checks.check(op, text)
        assert rep.ok, (op["args"], rep.worst())


def _outputs(rounds, workload, kind, fmt=None):
    found = [(op, text) for op, _, text in rounds(workload)
             if op["check"]["kind"] == kind and (fmt is None or op["check"].get("fmt") == fmt)]
    assert found, (workload, kind, fmt)
    return found


def _perturb_row(text: str, fmt: str, column: int, delta: float) -> str:
    """Add delta to one column of the middle row of a CSV or JSON table."""
    if fmt == "csv":
        header, body = text.split("\n", 1)
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        rows[len(rows) // 2, column] += delta
        lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = json.loads(text)
    rows = doc["rows"] if "rows" in doc else doc["data"]
    rows[len(rows) // 2][column] += delta
    return json.dumps(doc)


def _rejects(op, text):
    return not checks.check(op, text).ok


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", [1, 2, 3])  # x, y, z
def test_reconstruct_rejects_one_perturbed_row(rounds, fmt, column):
    for op, text in _outputs(rounds, "reconstruct", "reconstruct", fmt):
        assert _rejects(op, _perturb_row(text, fmt, column, 1e-4)), op["args"]


@pytest.mark.parametrize("column", [1, 2, 3, 4, 5])  # x, y, z, kappa, tau
def test_analyze_rejects_one_perturbed_row(rounds, column):
    for op, text in _outputs(rounds, "analytic", "analyze"):
        assert _rejects(op, _perturb_row(text, op["check"]["fmt"], column, 1e-4)), op["args"]


@pytest.mark.parametrize("column", [1, 2, 4, 5])  # x, y, x_bar, y_bar
def test_bertrand_rejects_one_perturbed_row(rounds, column):
    for op, text in _outputs(rounds, "analytic", "bertrand"):
        assert _rejects(op, _perturb_row(text, op["check"]["fmt"], column, 1e-4)), op["args"]


def test_classify_rejects_a_wrong_tag(rounds):
    tags = ["LineInXYPlane", "PlanarCurveXY", "VerticalPlaneCurve", "CircularHelix", "General"]
    for op, text in _outputs(rounds, "analytic", "classify"):
        doc = json.loads(text)
        for tag in tags:
            if tag != doc["tag"]:
                assert _rejects(op, json.dumps({**doc, "tag": tag})), (op["args"], tag)


def test_check_rejects_a_flipped_verdict(rounds):
    for op, text in _outputs(rounds, "membership", "check"):
        doc = json.loads(text)
        assert _rejects(op, json.dumps({**doc, "member": not doc["member"]})), op["args"]


def test_check_rejects_a_wrong_offset(rounds):
    offsets = [(op, text) for op, text in _outputs(rounds, "membership", "check")
               if not op["check"]["member"]]
    assert offsets
    for op, text in offsets:
        doc = json.loads(text)
        assert _rejects(op, json.dumps({**doc, "max_defect": doc["max_defect"] * 1.001}))


def test_pansu_rejects_corruption(rounds):
    for op, text in _outputs(rounds, "membership", "pansu"):
        doc = json.loads(text)
        flipped = json.loads(text)
        flipped["certificate"]["membership"]["member"] = False
        assert _rejects(op, json.dumps(flipped))
        moved = json.loads(text)
        moved["certificate"]["north_pole"][2] += 1e-6
        assert _rejects(op, json.dumps(moved))
        reshaped = json.loads(text)
        reshaped["surface"]["f"] = doc["surface"]["f"].replace("2*", "2.001*", 1)
        assert _rejects(op, json.dumps(reshaped))


def test_gen_kappa_rejects_a_changed_profile(rounds):
    for op, text in _outputs(rounds, "membership", "gen_kappa"):
        doc = json.loads(text)
        for key in ("g", "f"):
            # nudge the last digit run of the first constant in the profile
            changed = re.sub(r"\((-?\d+\.\d+)", lambda m: f"({float(m.group(1)) * 1.0001!r}",
                             doc[key], count=1)
            assert changed != doc[key]
            assert _rejects(op, json.dumps({**doc, key: changed})), key


def test_unparsable_output_is_rejected(rounds):
    for op, _, _ in rounds("analytic")[:1] + rounds("reconstruct")[:1]:
        assert _rejects(op, "")
        assert _rejects(op, "error: something\n")
