#!/usr/bin/env python3
"""Check that the text writers print every double as Python does.

Compares ``h1curves.textout.csv`` with per-value "%.17g" text, and
``h1curves.textout.json_table`` with ``json.dumps(..., indent=2)`` (each
number Python's shortest ``repr``), on the same seeded random bit
patterns (nan, inf, subnormals and zeros among them) and on sweeps of the
hard cases: powers of two and of ten and their neighbours up to 2 ulps,
the 17-digit and ``repr`` form boundaries, exact decimal ties, doubles
whose shortest-digit interval ends on an integer, and zero columns.  The
sweeps compare whole JSON documents; the random doubles compare their
numbers.  Exits 1, naming the first differing value, if any table differs.

    PYTHONPATH=src python -W error::RuntimeWarning scripts/check_text_format.py --count 2000000
"""

import argparse
import json
import sys

import numpy as np

from h1curves.textout import csv, json_table

_BLOCK = 100_000  # values compared at a time


def _neighbours(values, reach=2):
    """Each value and the doubles up to ``reach`` ulps away, one row each."""
    columns = [np.asarray(values, dtype=float)]
    for _ in range(reach):
        columns.insert(0, np.nextafter(columns[0], -np.inf))
        columns.append(np.nextafter(columns[-1], np.inf))
    table = np.column_stack(columns)
    return np.concatenate([table, -table])


def sweeps():
    """Named tables of the values a digit kernel gets wrong first."""
    odd = 3 * 10**10 + 1 + 2 * np.arange(20_000, dtype=np.int64)  # m/1024 ends in an exact 5
    quarters = 2**50 + 3 + 4 * np.arange(20_000, dtype=np.int64)  # m/4 ends in .75 at 16 digits
    powers = [float(f"{d}e{e}") for d in (1, 5) for e in range(-323, 309)]
    yield "powers of ten and five times them", _neighbours(powers)
    yield "powers of two", _neighbours(2.0 ** np.arange(-1074, 1024))
    yield "17-digit boundaries", _neighbours([9.999999999999999e16, 1e17, 2.0**53 - 1, 2.0**53,
                                              9.9999999999999998e149, 1e16 - 1])
    yield "repr form boundaries", _neighbours([9999999999999998.0, 1e16, 9.999999999999999e-05,
                                               1e-4, 1e15, 123.0])
    yield "ties m/1024", np.concatenate([odd / 1024.0, -odd / 1024.0]).reshape(-1, 4)
    yield "ties m/4", np.concatenate([quarters / 4.0, -quarters / 4.0]).reshape(-1, 4)
    yield "multiples of 2048 near 1e19", _neighbours(
        2048.0 * (np.arange(-20_000, 20_000) + int(1e19) // 2048), reach=0)
    yield "zero columns", np.column_stack([np.linspace(-1, 1, 999), np.zeros(999), -np.zeros(999)])
    yield "non-finite", np.array([[np.nan, np.inf, -np.inf], [np.nan] * 3])


def random_bits(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
        yield f"random bits {start}-{start + size}", bits.view(np.float64).reshape(size, 1)


def _first(got: list, want: list):
    for line, (mine, python) in enumerate(zip(got, want)):
        if mine != python:
            return line, mine, python
    return None if len(got) == len(want) else (len(want), "<rows>", "<rows>")


def csv_difference(rows: np.ndarray):
    """The first CSV line whose text differs from "%.17g", with both texts, or None."""
    got = csv(["v"] * rows.shape[1], rows).split("\n")[1:-1]
    want = [",".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
    return _first(got, want)


def json_difference(rows: np.ndarray, layout: bool = True):
    """The first JSON line that differs from json.dumps, with both texts, or
    None.  Without ``layout`` only the number lines are compared, against
    the C encoder's numbers: ``json.dumps`` with an indent runs in Python,
    four times slower than the rest of this check."""
    got = json_table({"type": "samples"}, "data", rows).split("\n")
    if layout:
        want = (json.dumps({"type": "samples", "data": rows.tolist()}, indent=2) + "\n").split("\n")
        return _first(got, want)
    got = [line[6:].rstrip(",") for line in got if line.startswith(" " * 6)]
    return _first(got, json.dumps(rows.ravel().tolist())[1:-1].split(", "))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=2_000_000, help="random doubles to compare")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    checked = 0
    tables = [(name, rows, True) for name, rows in sweeps()]
    tables += [(name, rows, False) for name, rows in random_bits(args.count, args.seed)]
    for name, rows, layout in tables:
        for style, bad in (("%.17g", csv_difference(rows)),
                           ("json.dumps", json_difference(rows, layout))):
            if bad is not None:
                line, mine, python = bad
                print(f"{name}: line {line} is {mine!r}, {style} gives {python!r}")
                return 1
        checked += rows.size
    print(f"{checked} values match %.17g and json.dumps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
