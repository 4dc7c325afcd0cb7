#!/usr/bin/env python3
"""Non-semisimple monodromy: watch the metric flow run away.

The unipotent block admits no harmonic metric; the flow drives sup ||log h||
without bound while the residual decays along the escape valley. The edge
quantities are carried in the scaled frame of the metric, so the residual
stays resolved far below machine epsilon (about 1e-33 at sup ||log h|| = 50
on 100 sites) and the run ends ``diverged`` once the threshold is held. A
tolerance that the residual passes before that ends the run early, as
``converged`` above the residual's roundoff floor and as ``precision_floor``
at or below it; the defaults keep the tolerance out of the way.

The tolerance lies below the implicit step's roundoff floor, so the run keeps
the explicit heat flow, and once sup ||log h|| passes a tenth of the
threshold dt doubles after each accepted step that lowered the residual
(``flow.RUNAWAY_GROWTH``): the script prints how many steps did. The verdict
reason names the invariant sub-bundle along which the metric degenerates and
says that it has no invariant complement.
"""
import argparse

import numpy as np

import bundleflow as bf


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sites", type=int, default=100)
    ap.add_argument("--threshold", type=float, default=30.0)
    ap.add_argument("--tolerance", type=float, default=1e-30)
    args = ap.parse_args()

    dom = bf.build_domain("circle", args.sites, 2 * np.pi)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    k = np.broadcast_to(np.eye(2, dtype=complex), (dom.n_sites, 2, 2)).copy()
    opts = bf.SolveOptions(
        tolerance=args.tolerance, divergence_threshold=args.threshold, max_steps=40000
    )
    rep = bf.solve_harmonic(conn, k, opts)
    print(f"verdict: {rep.verdict} after {rep.steps} steps ({rep.verdict_reason})")
    print(f"sup||log h||: {rep.logh_sup:.3f}   final residual: {rep.residual_sup:.3e}")
    doubled = next((note for note in rep.notes if note.startswith("dt doubled on ")),
                   "dt doubled on 0 accepted steps")
    print(f"{doubled}; {rep.rejected_steps} steps rejected")
    hist = rep.history
    stride = max(1, len(hist) // 12)
    print(f"{'step':>8} {'dt':>12} {'residual':>12} {'sigma':>14}")
    for row in hist[::stride]:
        print(f"{int(row[0]):>8} {row[2]:>12.3e} {row[4]:>12.3e} {row[9]:>14.6e}")


if __name__ == "__main__":
    main()
