"""One fresh interpreter running a workload's ops in-process.

    python worker.py WORKDIR --mode setup|timed|trace --seconds N [--trace-out PATH]

Reads WORKDIR/ops.json (written by run.py) and prints one JSON line.

* setup: time from before ``import h1curves.cli`` to the end of the first,
  untimed call of each command kind of the round (steady state starts
  there); nothing else.
* timed: setup, then whole rounds of the ops through the click group until
  N seconds have passed, then the checks of every output.  Round 1's output
  of each op is checked; a later round must reproduce it byte for byte or is
  checked as well.  Round 1's outputs are left in WORKDIR for run.py to
  compare the fresh-process runs against.
* trace: as timed, with the layer spans of spans.py installed after set-up.

numpy is imported by the checks only after set-up has been measured, so
set-up time counts the program's own imports.

Commands run through ``main.main()`` with sys.stdout and sys.stderr pointed
at one pair of StringIO objects kept for the whole run.  click caches a
wrapper per stdout object in a WeakKeyDictionary whose value holds the key,
so a fresh stream per command (as click.testing.CliRunner makes) is never
freed: resident memory then grows by each command's output and the timings
slow with it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter


def _kind(args):
    return tuple(args[:2]) if args[0] == "surface" else (args[0],)


class Invoker:
    """Runs one CLI command in-process; returns (exit code, stdout bytes, error)."""

    def __init__(self, cli):
        self.cli = cli
        self.out = io.StringIO(newline="")
        self.err = io.StringIO()

    def __call__(self, args):
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self.out, self.err
        code, error = 0, None
        try:
            self.cli.main(args=args, prog_name="h1curves")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is recorded as a failed operation
            code, error = 1, f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdout, sys.stderr = saved
        return code, self.out.getvalue().encode("utf-8"), error


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--mode", choices=["setup", "timed", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace-out", default=None)
    opts = ap.parse_args()
    workdir = Path(opts.workdir).resolve()
    ops = json.loads((workdir / "ops.json").read_text(encoding="utf-8"))
    os.chdir(workdir)

    t0 = perf_counter()
    from h1curves.cli import main as cli

    invoke = Invoker(cli)
    seen = set()
    for op in ops:
        if _kind(op["args"]) not in seen:
            seen.add(_kind(op["args"]))
            invoke(op["args"])
    setup_s = perf_counter() - t0
    if opts.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    run = invoke
    tracer = None
    if opts.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

        def run(args):
            return tracer.span("cli.command", invoke, args)

    first = [None] * len(ops)
    later = []  # (index, output) of later rounds that differ from round 1
    times, failures, round_s = [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for i, op in enumerate(ops):
            t = perf_counter()
            code, out, error = run(op["args"])
            times.append(perf_counter() - t)
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(out)
            if error or code != op["expect_exit"]:
                failures.append(f"{' '.join(op['args'])}: exit {code} "
                                f"(want {op['expect_exit']}) {error or ''}")
            elif first[i] is None:
                first[i] = out
            elif out != first[i]:
                later.append((i, out))
        round_s.append(perf_counter() - round_start)
        if perf_counter() - start >= opts.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    if tracer is not None:
        tracer.restore()

    import checks

    worst, worst_name, bad = 0.0, "", []
    outputs = [(i, out) for i, out in enumerate(first) if out is not None] + later
    for i, out in outputs:
        rep = checks.check(ops[i], out.decode("utf-8"))
        ratio, name = rep.worst()
        if ratio > worst:
            worst, worst_name = ratio, f"{' '.join(ops[i]['args'])}: {name}"
        if not rep.ok:
            bad.append(f"{' '.join(ops[i]['args'])}: {name} (ratio {ratio:.3g})")
    for i, out in enumerate(first):
        if out is not None:
            (workdir / f"out{i:02d}.bin").write_bytes(out)

    result = {
        "setup_s": setup_s,
        "times_s": times,
        "round_s": round_s,
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:10],
        "worst_ratio": worst,
        "worst_check": worst_name,
        "bad_checks": bad[:10],
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, len(round_s))
        result["layers"]["trace.op_p50_ms"] = {
            "value": 1000.0 * statistics.median(times), "unit": "ms"}
        if opts.trace_out:
            tracer.dump(opts.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
