"""Tests of the benchmark itself:

    PYTHONPATH=src python -m pytest perfbench/tests -q

Each workload's round is run once in-process at a reduced size and its
outputs are shared by the tests of this directory.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

SMOKE_SCALE = 0.25
SMOKE_SEED = 7


def run_round(workload: str, workdir: Path):
    """(op, exit code, stdout text) for each op of a reduced-size round, run
    in-process the way the benchmark's worker runs them."""
    from h1curves.cli import main

    import workloads
    from worker import Invoker

    ops = workloads.build(workload, SMOKE_SEED, workdir, scale=SMOKE_SCALE)
    invoke = Invoker(main)
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op in ops:
            code, out, error = invoke(op["args"])
            assert error is None, (op["args"], error)
            results.append((op, code, out.decode()))
    finally:
        os.chdir(cwd)
    return results


@pytest.fixture(scope="session")
def rounds(tmp_path_factory):
    cache = {}

    def get(workload: str):
        if workload not in cache:
            cache[workload] = run_round(workload, tmp_path_factory.mktemp(workload))
        return cache[workload]

    return get
