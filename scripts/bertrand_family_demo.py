#!/usr/bin/env python3
"""Construct a one-parameter family of Bertrand mates of a single base
curve and verify the shared-normal property and the constant
contact-plane distance sqrt(c1^2 + c2^2) numerically."""

import argparse

import numpy as np

from h1curves import InitialPose, InvariantPair, reconstruct_curve
from h1curves.bertrand import (
    BertrandSpec,
    bertrand_mate,
    check_frame_relation,
    mate_curve,
    mate_distance,
)


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
        InitialPose.origin(),
        args.s_max,
    )
    rng = np.random.default_rng(args.seed)
    print(f"base: kappa = {args.kappa}, tau = {args.tau}, S = {base.s_max:.6g}")
    for i in range(args.count):
        c1, c2 = rng.uniform(-2, 2, size=2)
        tau_bar = f"{rng.uniform(-0.5, 0.5):.4f}*cos(s)"
        mate = bertrand_mate(base, BertrandSpec(c1, c2, tau_bar=tau_bar))
        rel = check_frame_relation(base, mate_curve(mate), 1e-8)
        dist = mate_distance(mate)
        print(
            f"mate {i}: c = ({c1:+.3f}, {c2:+.3f})  "
            f"relation = {rel.value}  "
            f"contact distance = {dist.contact_mean:.9f} "
            f"(expected {np.hypot(c1, c2):.9f}, "
            f"deviation {dist.contact_deviation:.2e})  "
            f"b-offset range [{dist.b_offset_min:+.3f}, {dist.b_offset_max:+.3f}]"
        )


if __name__ == "__main__":
    main()
