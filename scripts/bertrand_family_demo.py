#!/usr/bin/env python3
"""Construct a one-parameter family of Bertrand mates of a single base
curve and measure, on the arrays each mate was built as, its unit contact
speed, its tau_bar, the shared tangent (so the shared normal) and the
constant contact-plane distance sqrt(c1^2 + c2^2)."""

import argparse

import numpy as np

from h1curves import H1Point, InvariantPair, PshTransform, reconstruct_curve
from h1curves.bertrand import BertrandSpec, bertrand_mate, mate_residuals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", default="1 + 0.4*sin(s)")
    ap.add_argument("--tau", default="0.2*cos(s)")
    ap.add_argument("--s-max", type=float, default=5.0)
    ap.add_argument("--count", type=int, default=6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    base = reconstruct_curve(
        InvariantPair(args.kappa, args.tau),
        PshTransform(0.0, H1Point.origin()),  # start at the origin with heading 0
        args.s_max,
    )
    rng = np.random.default_rng(args.seed)
    print(f"base: kappa = {args.kappa}, tau = {args.tau}, S = {base.s_max:.6g}")
    for i in range(args.count):
        c1, c2 = rng.uniform(-2, 2, size=2)
        tau_bar = f"{rng.uniform(-0.5, 0.5):.4f}*cos(s)"
        mate = bertrand_mate(base, BertrandSpec(c1, c2, tau_bar=tau_bar))
        r = mate_residuals(mate)
        b_offset = mate.points[:, 2] - mate.base[:, 2]
        print(
            f"mate {i}: c = ({c1:+.3f}, {c2:+.3f})  "
            f"contact distance {np.hypot(c1, c2):.9f} (deviation {r.distance:.2e})  "
            f"speed {r.speed:.2e}  tau_bar {r.tau_bar:.2e}  alignment {r.align:.2e}  "
            f"b-offset range [{b_offset.min():+.3f}, {b_offset.max():+.3f}]"
        )


if __name__ == "__main__":
    main()
