#!/usr/bin/env python3
"""Step counts and wall time of the Dirichlet solves: heat flow against the implicit step.

``implicit`` is ``solve_poisson``, which takes the linearly implicit Euler
step from ``flow.default_dt(domain, implicit=True)`` on a domain with a
boundary. ``heat`` runs the same problem through the same driver with
the explicit heat direction, ``flow._drive`` with ``partial(_diagnostics,
conn)`` from the heat flow's default dt. Both are Poisson solves to tolerance
1e-8 and report accepted steps, trial steps, wall time (median over
``--repeats``, alternating which side runs first) and the largest metric
difference between the two.

Inputs:

- ``rectangle-<n>``: the unit square with n = 9, 17, 33, 65 sites per axis,
  trivial rank-2 bundle, reference ``config.smooth_random_metric`` (seed
  ``--seed``, amplitude 0.3).
- ``annulus-exhaustion``: the set-up of the benchmark's workload of that name
  (``perfbench/workloads.py``), both levels, each level from K on its own
  band (as cold one-level solves).

The heat flow's step count grows as n^2, so at 65 sites per axis it runs
``--heat-repeats`` times only (default 1: about 16k steps, several minutes).
The BLAS and OpenMP thread pools are pinned to one thread before numpy loads.

    PYTHONPATH=src python3 scripts/bench_dirichlet.py [--seed 1] [--repeats 5] \
        [--out BENCH_dirichlet.json]
"""
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bundleflow as bf  # noqa: E402
from bundleflow.config import smooth_random_metric  # noqa: E402
from bundleflow.flow import _diagnostics, _drive  # noqa: E402

sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import AnnulusExhaustion  # noqa: E402

SIZES = (9, 17, 33, 65)
TOLERANCE = 1e-8


def implicit(conn, reference):
    return bf.solve_poisson(conn, reference, bf.SolveOptions(tolerance=TOLERANCE))


def heat(conn, reference):
    opts = bf.SolveOptions(tolerance=TOLERANCE)
    return _drive(conn.domain, reference, opts, partial(_diagnostics, conn), tracefree=True)[0]


def problems(seed: int) -> dict:
    """name -> list of (connection, reference) Dirichlet problems, solved in turn."""
    out = {}
    for n in SIZES:
        dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
        out[f"rectangle-{n}"] = [(conn, smooth_random_metric(dom, 2, seed, 0.3))]
    work = AnnulusExhaustion()
    work.setup(bf, np.random.default_rng(seed), Path("."))
    bands = []
    for level in work.levels:
        sub, idx = bf.sublevel_domain(work.conn.domain, level)
        bands.append((bf.from_monodromy(sub, [np.diag([2.0, 0.5]).astype(complex)]),
                      work.reference[idx]))
    out["annulus-exhaustion"] = bands
    return out


def measure(runs, repeats: int, heat_repeats: int) -> dict:
    """Per side: wall times and the last run's reports, alternating which side runs first."""
    times = {"implicit": [], "heat": []}
    reports = {}
    for i in range(repeats):
        for side in (("implicit", "heat") if i % 2 == 0 else ("heat", "implicit")):
            if side == "heat" and i >= heat_repeats:
                continue
            solver = implicit if side == "implicit" else heat
            t0 = time.perf_counter()
            reports[side] = [solver(conn, ref) for conn, ref in runs]
            times[side].append(time.perf_counter() - t0)
    return {side: {
        "wall_s_median": statistics.median(times[side]),
        "wall_s": times[side],
        "accepted_steps": [rep.steps for rep in reports[side]],
        "trial_steps": [rep.trial_steps for rep in reports[side]],
        "verdicts": [rep.verdict for rep in reports[side]],
        "metrics": [rep.metric for rep in reports[side]],
    } for side in times}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--heat-repeats", type=int, default=1,
                    help="heat-flow runs at the largest rectangle")
    ap.add_argument("--out", default="BENCH_dirichlet.json")
    args = ap.parse_args()

    implicit(*problems(args.seed)["rectangle-9"][0])  # imports and first-call set-up, untimed
    result = {
        "seed": args.seed,
        "tolerance": TOLERANCE,
        "repeats": args.repeats,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {},
    }
    for name, runs in problems(args.seed).items():
        heat_repeats = args.heat_repeats if name == f"rectangle-{SIZES[-1]}" else args.repeats
        sides = measure(runs, args.repeats, heat_repeats)
        diff = max(float(np.abs(a - b).max()) for a, b in
                   zip(sides["implicit"].pop("metrics"), sides["heat"].pop("metrics")))
        result["inputs"][name] = {**sides, "max_metric_difference": diff}
        print(f"{name}: implicit steps {sides['implicit']['accepted_steps']} "
              f"({sides['implicit']['wall_s_median']:.3f} s), heat steps "
              f"{sides['heat']['accepted_steps']} ({sides['heat']['wall_s_median']:.3f} s), "
              f"max |H_implicit - H_heat| = {diff:.2e}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
