#!/usr/bin/env python3
"""Refinement study: Dirichlet harmonic solves on a square against the closed form.

Runs the trivial rank-2 Dirichlet solve on the unit square at several
resolutions, with the closed-form metric diag(e^u, e^-u) of
``rectangle_harmonic_exact`` as boundary data and the identity inside, and
prints the final residual, the relative deviation from the closed form and the
ratio of consecutive deviations. The discrete fixed point is exp(u_h sigma_3)
with u_h the discrete harmonic interpolant of the boundary values, so the
deviation is a real discretization error of second order: about 4 per halving
of the spacing (sites per axis 9 -> 17 -> 33).
"""
import argparse

import numpy as np

import bundleflow as bf


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sites", type=int, nargs="+", default=[9, 17, 33])
    ap.add_argument("--tolerance", type=float, default=1e-10)
    args = ap.parse_args()

    print(f"{'sites':>6} {'steps':>8} {'residual':>12} {'deviation':>12} {'ratio':>8}")
    previous = None
    for n in args.sites:
        dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
        oracle = bf.rectangle_harmonic_exact(dom)
        start = np.broadcast_to(np.eye(2, dtype=complex), oracle.shape).copy()
        start[dom.boundary] = oracle[dom.boundary]
        rep = bf.solve_harmonic(conn, start, bf.SolveOptions(tolerance=args.tolerance))
        dev = float(np.abs(rep.metric - oracle).max() / np.abs(oracle).max())
        ratio = f"{previous / dev:>8.3f}" if previous else f"{'':>8}"
        print(f"{n:>6} {rep.steps:>8} {rep.residual_sup:>12.3e} {dev:>12.3e} {ratio}")
        previous = dev


if __name__ == "__main__":
    main()
