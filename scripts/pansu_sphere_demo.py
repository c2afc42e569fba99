#!/usr/bin/env python3
"""Build Pansu spheres for a few shape parameters and print their
certificates: pole positions, invariants of the generating geodesic, the
graph identity defect (these two read on the lambda = 1 sphere, so
unit-free), and the membership report."""

import argparse

import numpy as np

from h1curves.cesaro import pansu_sphere


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lams", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--profile-csv", default=None,
                    help="write the lam=1 generator profile here")
    args = ap.parse_args()

    for lam in args.lams:
        sphere = pansu_sphere(lam)
        cert = sphere.certificate
        print(f"lambda = {lam}")
        print(f"  poles: z = +/-{cert.north_pole[2]:.12g} "
              f"(expected {np.pi / (4 * lam * lam):.12g})")
        print(f"  kappa error: {cert.kappa_error:.3e}   "
              f"tau error: {cert.tau_error:.3e}")
        print(f"  distance to the graph z = +/-F(rho): {cert.graph_defect:.3e}")
        print(f"  membership: {cert.membership.member} "
              f"(max defect {cert.membership.max_defect:.3e})")

    if args.profile_csv:
        sphere = pansu_sphere(1.0)
        s = np.linspace(sphere.surface.s_lo, sphere.surface.s_hi, 801)
        g, f = sphere.surface.profile(s)
        with open(args.profile_csv, "w", encoding="utf-8") as fh:
            fh.write("s,g,f\n")
            for row in zip(s, g, f):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"wrote {args.profile_csv}")


if __name__ == "__main__":
    main()
