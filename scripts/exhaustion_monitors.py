#!/usr/bin/env python3
"""Exhaustion study on an annulus: per-level Dirichlet Poisson monitors.

Solves the nested Dirichlet problems over the sublevel bands and prints, per
level, the two uniform-in-level monitors (sup ||log h_s|| and the L2 norm of
Dh_s) and the Cauchy-in-level distance: the sup Donaldson distance to the
previous level's metric on the sites the two share.

The reference is K = diag(e^phi, e^-phi) with a radial defect phi(r):

- ``bump``: phi = A sin^2(pi r / r0) for r < r0 and 0 beyond (r0 = 0.4 by
  default). The defect has compact support, so past it every level finds the
  same metric and the Cauchy distance drops to the tolerance scale.
- ``decay``: phi = A e^{-r / r0}. The Cauchy distance decays at a rate set by
  the geometry rather than dropping to zero (see the README's exhaustion
  section).

    PYTHONPATH=src python3 scripts/exhaustion_monitors.py --profile decay --r0 0.2
"""
import argparse

import numpy as np

import bundleflow as bf


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--angular", type=int, default=64)
    ap.add_argument("--radial", type=int, default=16)
    ap.add_argument("--levels", type=int, nargs="+", default=[9, 11, 13, 15])
    ap.add_argument("--amplitude", type=float, default=0.3)
    ap.add_argument("--profile", choices=("bump", "decay"), default="bump")
    ap.add_argument("--r0", type=float, default=None,
                    help="bump support or decay length (default 0.4 / 0.2)")
    args = ap.parse_args()

    dom = bf.build_domain("annulus", (args.angular, args.radial), (2 * np.pi, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    r = dom.coords()[:, 1]
    if args.profile == "bump":
        r0 = 0.4 if args.r0 is None else args.r0
        phi = np.where(r < r0, args.amplitude * np.sin(np.pi * r / r0) ** 2, 0.0)
    else:
        r0 = 0.2 if args.r0 is None else args.r0
        phi = args.amplitude * np.exp(-r / r0)
    k = np.zeros((dom.n_sites, 2, 2), dtype=complex)
    k[:, 0, 0] = np.exp(phi)
    k[:, 1, 1] = np.exp(-phi)

    reports, monitors = bf.exhaustion_solve(conn, k, [float(s) for s in args.levels])
    print(f"{'level':>6} {'radius':>7} {'sites':>6} {'verdict':>10} {'steps':>6} "
          f"{'sup|log h|':>12} {'||Dh||_L2':>12} {'cauchy sup':>12}")
    for rep, mon in zip(reports, monitors):
        print(f"{mon.level:>6g} {mon.level * dom.spacings[1]:>7.4f} {mon.n_sites:>6} "
              f"{rep.verdict:>10} {rep.steps:>6} {mon.sup_log_h:>12.6f} "
              f"{mon.dh_l2:>12.6f} {mon.cauchy_sup:>12.4e}")


if __name__ == "__main__":
    main()
