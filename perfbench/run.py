"""Benchmark of the h1curves CLI pipeline.

    python3 perfbench/run.py --workload reconstruct|membership|analytic \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; h1curves is imported from ./src, so
nothing needs installing.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; lines before it that
start with '#' are reference figures (latency tails with sample counts).

--trace 0 measures the end-to-end metrics with no tracing:
  setup_s      median over 3 fresh interpreters of import h1curves.cli plus
               the first call of each command kind in the round (one set-up
               worker and the two timed workers)
  op_p50_ms    median in-process wall time of one command after set-up
  ops_per_s    in-process commands per second: commands in a round over the
               median round time
  peak_rss_mb  peak resident set of the in-process workers
  cli_cold_ms  median wall time of each command of the round run as a fresh
               `python -m h1curves.cli` process, launch to exit
--trace 1 runs the same rounds with layer spans (spans.py) and reports the
per-layer figures per round, the -X importtime figures and the worst
output error over its tolerance.

Every output is checked by checks.py; a fresh-process output must equal the
in-process output of the same command byte for byte or pass the checks
itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUDGET_S = 170.0  # the whole run, so it ends well inside 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the benchmark's child processes within the run's time budget."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

    def run(self, argv, cwd=None) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            return subprocess.run(argv, cwd=cwd or self.workdir, env=self.env,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"timed out: {' '.join(argv)}") from exc

    def worker(self, mode: str, seconds: float, trace_out=None) -> dict:
        argv = [sys.executable, str(BENCH / "worker.py"), str(self.workdir),
                "--mode", mode, "--seconds", repr(seconds)]
        if trace_out:
            argv += ["--trace-out", str(trace_out)]
        proc = self.run(argv)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-2000:]}")
        return json.loads(lines[-1])


def _tail(label: str, samples_s) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = sorted(1000.0 * t for t in samples_s)
    n = len(ms)
    text = f"# {label}: n={n} p50={statistics.median(ms):.4g} ms"
    if n >= 40:
        for p in (99.9, 99, 95, 90, 75):
            if n * (1 - p / 100) >= 10:
                q = ms[min(n - 1, math.ceil(p / 100 * n) - 1)]
                text += f" p{p:g}={q:.4g} ms"
                break
    return text + f" max={ms[-1]:.4g} ms"


def _cold(runner: Runner, ops, indices) -> tuple[list, int, list]:
    """The ops at indices as fresh processes; returns (times, failed, bad)."""
    import checks

    times, failed, bad = [], 0, []
    for i in indices:
        op = ops[i]
        argv = [sys.executable, "-m", "h1curves.cli", *op["args"]]
        t = time.perf_counter()
        proc = runner.run(argv)
        times.append(time.perf_counter() - t)
        if proc.returncode != op["expect_exit"]:
            failed += 1
            continue
        ref = runner.workdir / f"out{i:02d}.bin"
        if ref.is_file() and ref.read_bytes() == proc.stdout:
            continue
        rep = checks.check(op, proc.stdout.decode())
        if not rep.ok:
            ratio, name = rep.worst()
            bad.append(f"cold {' '.join(op['args'])}: {name} (ratio {ratio:.3g})")
    return times, failed, bad


def _importtime(runner: Runner) -> dict:
    """Cumulative import seconds per module from -X importtime, one run."""
    proc = runner.run([sys.executable, "-X", "importtime", "-c", "import h1curves.cli"], cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.decode()[-2000:]}")
    found = {"h1curves_cli": 0.0, "scipy_interpolate": 0.0, "scipy_integrate": 0.0, "numpy": 0.0}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) * 1e-6
        raw = parts[2][1:]
        name = raw.strip()
        if raw == name and (name == "h1curves" or name.startswith("h1curves.")):
            found["h1curves_cli"] += cumulative  # top-level entries of the import
        elif name in ("numpy", "scipy.interpolate", "scipy.integrate"):
            found[name.replace(".", "_")] = cumulative
    return found


def measure(runner: Runner, ops, seconds: float) -> dict:
    """Set-up sample, then two timed workers of seconds/2 each with half of
    the fresh-process runs after each.  Spreading the samples over the whole
    run makes a run's medians less dependent on how busy the machine happens
    to be during one stretch of it."""
    setups = [runner.worker("setup", seconds)["setup_s"]]
    timed, cold, cold_failed, bad = [], [], 0, []
    for half in (0, 1):
        part = runner.worker("timed", seconds / 2)
        timed.append(part)
        setups.append(part["setup_s"])
        times, failed, cold_bad = _cold(runner, ops, range(half, len(ops), 2))
        cold += times
        cold_failed += failed
        bad += part["bad_checks"] + cold_bad
    times = [t for part in timed for t in part["times_s"]]
    round_s = [t for part in timed for t in part["round_s"]]
    worst = max(timed, key=lambda part: part["worst_ratio"])
    for line in [f for part in timed for f in part["failures"]] + bad:
        print(f"# {line}", file=sys.stderr)
    print(_tail("in-process op latency", times))
    print(_tail("fresh-process command latency", cold))
    print(f"# setup_s samples: {', '.join(f'{s:.4g}' for s in setups)}; "
          f"rounds={len(round_s)} worst check ratio {worst['worst_ratio']:.3g} "
          f"({worst['worst_check']})")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cli_cold_ms": (1000.0 * statistics.median(cold), "ms"),
        "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "ops_per_s": (len(ops) / statistics.median(round_s), "ops/s"),
        "peak_rss_mb": (max(part["rss_mb"] for part in timed), "MB"),
    }
    return {
        "correct": not bad,
        "attempted": len(times) + len(cold),
        "failed": sum(part["failed"] for part in timed) + cold_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure_traced(runner: Runner, ops, seconds: float, workload: str, seed: int) -> dict:
    imports = [_importtime(runner) for _ in range(3)]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    traced = runner.worker("trace", seconds, out_dir / f"trace-{workload}-{seed}.json")
    for line in traced["failures"] + traced["bad_checks"]:
        print(f"# {line}", file=sys.stderr)
    print(_tail("traced in-process op latency", traced["times_s"]))
    metrics = {f"import.{k}_s": {"value": statistics.median(d[k] for d in imports), "unit": "s"}
               for k in imports[0]}
    metrics.update(traced["layers"])
    metrics["accuracy.worst_err_ratio"] = {"value": traced["worst_ratio"], "unit": "ratio"}
    return {
        "correct": not traced["bad_checks"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args(argv)
    if not (SRC / "h1curves" / "cli.py").is_file():
        print(f"error: no h1curves sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = BENCH / ".work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    try:
        ops = workloads.build(opts.workload, opts.seed, workdir)
        (workdir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
        runner = Runner(workdir)
        if opts.trace:
            result = measure_traced(runner, ops, opts.seconds, opts.workload, opts.seed)
        else:
            result = measure(runner, ops, opts.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
