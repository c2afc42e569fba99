#!/usr/bin/env python3
"""Check that the CSV writer prints every double as Python's "%.17g" does.

Compares ``h1curves.textout.csv`` with per-value "%.17g" text on seeded
random bit patterns (nan, inf, subnormals and zeros among them) and on
sweeps of the hard cases: powers of ten and their neighbours up to 2 ulps,
the 17-digit boundaries, exact decimal ties and zero columns.  Exits 1,
naming the first differing value, if any table differs.

    PYTHONPATH=src python -W error::RuntimeWarning scripts/check_csv_format.py --count 2000000
"""

import argparse
import sys

import numpy as np

from h1curves.textout import csv

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
    powers = [float(f"{d}e{e}") for d in (1, 5) for e in range(-323, 309)]
    yield "powers of ten and five times them", _neighbours(powers)
    yield "17-digit boundaries", _neighbours([9.999999999999999e16, 1e17, 2.0**53 - 1, 2.0**53,
                                              9.9999999999999998e149, 1e16 - 1])
    yield "ties m/1024", np.concatenate([odd / 1024.0, -odd / 1024.0]).reshape(-1, 4)
    yield "zero columns", np.column_stack([np.linspace(-1, 1, 999), np.zeros(999), -np.zeros(999)])
    yield "non-finite", np.array([[np.nan, np.inf, -np.inf], [np.nan] * 3])


def random_bits(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
        yield f"random bits {start}-{start + size}", bits.view(np.float64).reshape(size, 1)


def first_difference(rows: np.ndarray):
    """The first value whose text differs, with both texts, or None."""
    got = csv(["v"] * rows.shape[1], rows).split("\n")[1:-1]
    want = [",".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
    for line, (mine, python) in enumerate(zip(got, want)):
        if mine != python:
            return line, mine, python
    return None if len(got) == len(want) else (len(want), "<rows>", "<rows>")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=2_000_000, help="random doubles to compare")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    checked = 0
    for name, rows in [*sweeps(), *random_bits(args.count, args.seed)]:
        bad = first_difference(rows)
        if bad is not None:
            line, mine, python = bad
            print(f"{name}: row {line} is {mine!r}, %.17g gives {python!r}")
            return 1
        checked += rows.size
    print(f"{checked} values match %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main())
