"""The command itself: result line format, traced metrics, and refusal to
run without the program's sources."""

import json
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc["metrics"]


def test_end_to_end_metrics():
    metrics = _result(_run(ROOT, "--workload", "reconstruct", "--seed", "3",
                           "--seconds", "0.5", "--trace", "0"))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics():
    metrics = _result(_run(ROOT, "--workload", "analytic", "--seed", "3",
                           "--seconds", "0.5", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["bertrand.bertrand_mate.calls"]["value"] == 2
    assert metrics["frenet.reconstruct.calls"]["value"] == 0
    assert metrics["accuracy.worst_err_ratio"]["value"] <= 1.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = _run(tmp_path, "--workload", "reconstruct", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
