#!/usr/bin/env python3
"""Step counts and wall time of closed-domain solves: heat flow against the implicit step.

``implicit`` is ``solve_harmonic`` on a closed domain at a tolerance above the
implicit step's roundoff floor (``flow._implicit_floor``), which takes the
linearly implicit Euler step from ``flow.default_dt(domain, implicit=True)``.
``heat`` runs the same problem through the same driver with the explicit heat
direction, ``flow._drive`` with ``partial(_diagnostics, conn)`` from the heat
flow's default dt. Both report accepted steps, trial steps, wall time (median
over ``--repeats``, alternating which side runs first), the final residual
and the energy. The monodromies are reducible, so the harmonic metrics form a
family: the two sides are compared by energy, not by metric.

Inputs:

- ``circle-<n>``: the circle of length 1 with n = 16, 32, 64, 128, 256 sites,
  monodromy diag(2, 1/2), reference ``config.smooth_random_metric`` (seed
  ``--seed``, amplitude 0.25), tolerance 1e-7. The harmonic energy is
  2 (ln 2)^2.
- ``circle-harmonic``: the inputs of the benchmark's workload of that name
  (``perfbench/workloads.py``, set up from ``--seed``), solved in-process
  through ``solve_harmonic`` instead of the CLI.

The heat flow's step count grows as n^2: at 64 sites it runs
``--heat-repeats`` times only (default 1: about 56k steps, over a minute),
and above 64 sites not at all. The BLAS and OpenMP thread pools are pinned to
one thread before numpy loads.

    PYTHONPATH=src python3 scripts/bench_closed.py [--seed 44] [--repeats 5] \
        [--out BENCH_closed.json]
"""
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bundleflow as bf  # noqa: E402
from bundleflow.config import (  # noqa: E402
    load_config,
    make_connection,
    make_domain,
    make_reference_metric,
    smooth_random_metric,
)
from bundleflow.flow import _diagnostics, _drive  # noqa: E402

sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CircleHarmonic  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
HEAT_LAST = 64     # the heat flow runs --heat-repeats times at 64 sites, not above
TOLERANCE = 1e-7


def implicit(conn, reference, tolerance):
    return bf.solve_harmonic(conn, reference, bf.SolveOptions(tolerance=tolerance))


def heat(conn, reference, tolerance):
    opts = bf.SolveOptions(tolerance=tolerance)
    return _drive(conn.domain, reference, opts, partial(_diagnostics, conn), tracefree=False)[0]


def problems(seed: int, work: Path) -> dict:
    """name -> (connection, reference, tolerance, sites)."""
    out = {}
    for n in SIZES:
        dom = bf.build_domain("circle", n, 1.0)
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
        out[f"circle-{n}"] = (conn, smooth_random_metric(dom, 2, seed, 0.25), TOLERANCE, n)
    bench = CircleHarmonic()
    bench.setup(bf, np.random.default_rng(seed), work)
    cfg = load_config(bench.config)
    dom = make_domain(cfg)
    out["circle-harmonic"] = (make_connection(cfg, dom), make_reference_metric(cfg, dom),
                              cfg.solver.tolerance, dom.n_sites)
    return out


def measure(conn, reference, tolerance, repeats: int, heat_repeats: int) -> dict:
    """Per side: wall times and the last run's report, alternating which side runs first."""
    times = {"implicit": [], "heat": []}
    reports = {}
    for i in range(repeats):
        for side in (("implicit", "heat") if i % 2 == 0 else ("heat", "implicit")):
            if side == "heat" and i >= heat_repeats:
                continue
            solver = implicit if side == "implicit" else heat
            t0 = time.perf_counter()
            reports[side] = solver(conn, reference, tolerance)
            times[side].append(time.perf_counter() - t0)
    return {side: {
        "wall_s_median": statistics.median(times[side]),
        "wall_s": times[side],
        "accepted_steps": reports[side].steps,
        "trial_steps": reports[side].trial_steps,
        "step_kind": reports[side].step_kind,
        "verdict": reports[side].verdict,
        "residual_sup": reports[side].residual_sup,
        "energy": reports[side].energy,
    } for side in reports}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=44)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--heat-repeats", type=int, default=1,
                    help=f"heat-flow runs on the {HEAT_LAST}-site circle")
    ap.add_argument("--out", default="BENCH_closed.json")
    args = ap.parse_args()

    result = {
        "seed": args.seed,
        "tolerance": TOLERANCE,
        "repeats": args.repeats,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {},
    }
    with tempfile.TemporaryDirectory() as work:
        runs = problems(args.seed, Path(work))
    implicit(*runs["circle-16"][:3])  # imports and first-call set-up, untimed
    for name, (conn, reference, tolerance, n) in runs.items():
        heat_repeats = (0 if n > HEAT_LAST else args.heat_repeats if n == HEAT_LAST
                        else args.repeats)
        sides = measure(conn, reference, tolerance, args.repeats, heat_repeats)
        result["inputs"][name] = {"sites": n, "tolerance": tolerance, **sides}
        line = (f"{name}: implicit steps {sides['implicit']['accepted_steps']} "
                f"({sides['implicit']['wall_s_median']:.3f} s, energy "
                f"{sides['implicit']['energy']:.15g})")
        if "heat" in sides:
            line += (f", heat steps {sides['heat']['accepted_steps']} "
                     f"({sides['heat']['wall_s_median']:.3f} s, energy "
                     f"{sides['heat']['energy']:.15g})")
        print(line, flush=True)
    steps = [result["inputs"][f"circle-{n}"]["implicit"]["accepted_steps"] for n in SIZES]
    result["implicit_step_ratio"] = max(steps) / min(steps)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"implicit steps over n = {SIZES}: {steps}, max/min {result['implicit_step_ratio']:.3f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
