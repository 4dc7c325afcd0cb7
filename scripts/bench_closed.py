#!/usr/bin/env python3
"""Step counts and wall time of closed-domain solves: heat flow against the implicit step.

``implicit`` is ``solve_harmonic`` on a closed domain at a tolerance above the
implicit step's roundoff floor (``flow._implicit_floor``), which takes the
linearly implicit Euler step from ``flow.default_dt(domain, implicit=True)``.
``heat`` runs the same problem through the same driver with the explicit heat
direction, ``flow._drive`` with ``implicit=False`` from the heat flow's
default dt; its runaway growth rule stays shut, since these converging runs
keep sup|log h| below the rule's gate. Both report accepted steps, trial
steps, wall time (median over ``--repeats``, alternating which side runs
first), the final residual and the energy. The monodromies are reducible, so the harmonic metrics form a
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
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

benchkit.pin_threads()

import argparse  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import bundleflow as bf  # noqa: E402
from bundleflow.config import (  # noqa: E402
    load_config,
    make_connection,
    make_domain,
    make_reference_metric,
    smooth_random_metric,
)
from bundleflow.flow import _drive  # noqa: E402

CircleHarmonic = benchkit.workload("CircleHarmonic")

SIZES = (16, 32, 64, 128, 256)
HEAT_LAST = 64     # the heat flow runs --heat-repeats times at 64 sites, not above
TOLERANCE = 1e-7


def implicit(conn, reference, tolerance):
    return bf.solve_harmonic(conn, reference, bf.SolveOptions(tolerance=tolerance))


def heat(conn, reference, tolerance):
    opts = bf.SolveOptions(tolerance=tolerance)
    return _drive(conn, reference, opts, tracefree=False, implicit=False)


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
    """Per side that ran: wall times and the last report, alternating which side runs first."""
    times, reports = benchkit.alternate(
        {"implicit": lambda: implicit(conn, reference, tolerance),
         "heat": lambda: heat(conn, reference, tolerance)}, repeats, {"heat": heat_repeats})
    last = {side: runs[-1] for side, runs in reports.items()}
    return {side: {
        **times[side],
        "accepted_steps": last[side].steps,
        "trial_steps": last[side].trial_steps,
        "step_kind": last[side].step_kind,
        "verdict": last[side].verdict,
        "residual_sup": last[side].residual_sup,
        "energy": last[side].energy,
    } for side in last}


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
        "host": benchkit.host(),
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
    print(f"implicit steps over n = {SIZES}: {steps}, max/min {result['implicit_step_ratio']:.3f}")
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
