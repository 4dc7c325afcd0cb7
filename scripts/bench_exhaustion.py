#!/usr/bin/env python3
"""Wall time of the warm-started exhaustion against cold per-level solves.

Inputs are built by the set-up of the benchmark's ``annulus-exhaustion``
workload (``perfbench/workloads.py``), so they follow it if it changes: at the
time of writing a 48 x 11 annulus (lengths 2 pi x 1) with monodromy
diag(2, 1/2), reference K = exp(phi(r) A) with phi = 0.3 sin^2(pi r / 0.4) for
r < 0.4 and 0 beyond, A a unit traceless Hermitian matrix drawn from
``--seed``, levels 5 and 7, tolerance 1e-8.

``warm`` is one ``exhaustion_solve`` over all levels, each level started from
the one below it. ``cold`` solves each level on its own, as a one-level
exhaustion, which starts from K. Each side is timed ``--repeats`` times,
alternating which runs first, and the median is reported with the accepted
steps per level and the largest metric difference between the two. The BLAS
and OpenMP thread pools are pinned to one thread before numpy loads.

    PYTHONPATH=src python3 scripts/bench_exhaustion.py [--seed 1] [--repeats 5] \
        [--out BENCH_exhaustion.json]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

benchkit.pin_threads()

import argparse  # noqa: E402

import numpy as np  # noqa: E402

import bundleflow as bf  # noqa: E402

AnnulusExhaustion = benchkit.workload("AnnulusExhaustion")
LEVELS = AnnulusExhaustion.levels


def inputs(seed: int):
    work = AnnulusExhaustion()
    work.setup(bf, np.random.default_rng(seed), Path("."))
    return work.conn, work.reference, work.opts


def warm(conn, reference, opts):
    return bf.exhaustion_solve(conn, reference, LEVELS, opts)[0]


def cold(conn, reference, opts):
    return [bf.exhaustion_solve(conn, reference, [level], opts)[0][0] for level in LEVELS]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_exhaustion.json")
    args = ap.parse_args()

    conn, reference, opts = inputs(args.seed)
    warm(conn, reference, opts)  # imports and first-call set-up, untimed
    times, runs = benchkit.alternate({"warm": lambda: warm(conn, reference, opts),
                                      "cold": lambda: cold(conn, reference, opts)}, args.repeats)

    result = {
        "workload": "annulus-exhaustion",
        "seed": args.seed,
        "levels": LEVELS,
        "tolerance": opts.tolerance,
        "repeats": args.repeats,
        "host": benchkit.host(),
    }
    for side in ("warm", "cold"):
        result[side] = {
            **times[side],
            "accepted_steps": [rep.steps for rep in runs[side][-1]],
            "verdicts": [rep.verdict for rep in runs[side][-1]],
        }
    result["max_metric_difference"] = max(
        float(np.abs(w.metric - c.metric).max())
        for w, c in zip(runs["warm"][-1], runs["cold"][-1])
    )
    for side in ("warm", "cold"):
        print(f"{side}: median {result[side]['wall_s_median']:.3f} s over {args.repeats}, "
              f"accepted steps {result[side]['accepted_steps']}")
    print(f"max |H_warm - H_cold| = {result['max_metric_difference']:.2e}")
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
