#!/usr/bin/env python3
"""Step counts and wall time of runaway verdicts, and the runaway growth rule's gate.

A flat bundle whose monodromy is not semisimple has no harmonic metric, and
the heat flow runs away: ``solve_harmonic`` keeps the explicit step for such
runs (tolerance at or below ``flow._implicit_floor`` on a closed domain) and
ends ``diverged``. Along a runaway, dt doubles after each clean accepted step
once sup ||log h|| passes a tenth of the divergence threshold
(``flow.RUNAWAY_GROWTH``, ``flow.RUNAWAY_GATE``).

Inputs, each on the Jordan monodromy [[1, 1], [0, 1]] from the identity:

- ``circle-runaway``: the inputs of the benchmark's workload of that name
  (``perfbench/workloads.py``): 16 sites, length 1, tolerance 1e-45,
  threshold 50, dt grown every 5 accepted steps.
- ``jordan-48``: ``tests/test_flow.py::test_solve_harmonic_jordan_diverges``,
  48 sites, length 2 pi, tolerance 1e-30, threshold 30.
- ``criterion-3``: acceptance criterion 3, 100 sites, length 2 pi, tolerance
  1e-45, threshold 50, default growth.

Per input: accepted, trial, rejected and doubled steps, wall time (median
over ``--repeats``), sup ||log h|| at the verdict, the final and the smallest
recorded residual.

The gate cases are a converging run in the same mode: a 16-site circle of
length 1, monodromy diag(2, 1/2), reference ``config.smooth_random_metric``
(seed 44, amplitude 0.25), tolerance 5e-13, at divergence threshold 50 (the
gate at 5 lies above the run's sup ||log h|| of 0.28) and 1 (the gate at 0.1
lies below it, and only the latch keeps the run converging). Per case:
verdict, accepted and rejected steps, doubled steps, final residual.

The BLAS and OpenMP thread pools are pinned to one thread before numpy
loads. The script runs against any tree with the same API; a tree without the
rule reports 0 doubled steps.

    PYTHONPATH=src python3 scripts/bench_runaway.py [--repeats 3] [--out BENCH_runaway.json]
"""
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bundleflow as bf  # noqa: E402
from bundleflow.config import smooth_random_metric  # noqa: E402

sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CircleRunaway  # noqa: E402

JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
GATE_THRESHOLDS = (50.0, 1.0)


def jordan(sites: int, length: float, **options):
    dom = bf.build_domain("circle", sites, length)
    conn = bf.from_monodromy(dom, [JORDAN])
    reference = np.broadcast_to(np.eye(2, dtype=complex), (sites, 2, 2)).copy()
    return conn, reference, bf.SolveOptions(**options)


def runaways() -> dict:
    """name -> (connection, reference, options)."""
    bench = CircleRunaway()
    with tempfile.TemporaryDirectory() as work:
        bench.setup(bf, np.random.default_rng(0), Path(work))
    return {
        "circle-runaway": (bench.conn, bench.reference, bench.opts),
        "jordan-48": jordan(48, 2 * np.pi, tolerance=1e-30, divergence_threshold=30.0,
                            max_steps=20000),
        "criterion-3": jordan(100, 2 * np.pi, tolerance=1e-45, max_steps=40000),
    }


def doubled_steps(report) -> int:
    for note in report.notes:
        found = re.match(r"dt doubled on (\d+) accepted steps", note)
        if found:
            return int(found.group(1))
    return 0


def counts(report) -> dict:
    return {
        "verdict": report.verdict,
        "accepted_steps": report.steps,
        "trial_steps": report.trial_steps,
        "rejected_steps": report.rejected_steps,
        "doubled_steps": doubled_steps(report),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_runaway.json")
    args = ap.parse_args()

    result = {
        "repeats": args.repeats,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(), "blas_threads": 1},
        "runaways": {},
        "gate": {},
    }
    for name, (conn, reference, opts) in runaways().items():
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            report = bf.solve_harmonic(conn, reference, opts)
            times.append(time.perf_counter() - t0)
        result["runaways"][name] = {
            **counts(report),
            "wall_s_median": statistics.median(times),
            "wall_s": times,
            "logh_sup": report.logh_sup,
            "residual_final": report.residual_sup,
            "residual_min": float(report.history[:, 4].min()),
        }
        row = result["runaways"][name]
        print(f"{name}: {row['verdict']} after {row['accepted_steps']} steps "
              f"({row['doubled_steps']} doubled, {row['rejected_steps']} rejected), "
              f"{row['wall_s_median']:.3f} s, sup|log h| {row['logh_sup']:.2f}, "
              f"residual {row['residual_final']:.2e}", flush=True)

    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    reference = smooth_random_metric(dom, 2, 44, 0.25)
    for threshold in GATE_THRESHOLDS:
        report = bf.solve_harmonic(conn, reference, bf.SolveOptions(
            tolerance=5e-13, divergence_threshold=threshold, max_steps=30000))
        result["gate"][f"threshold-{threshold:g}"] = {
            **counts(report), "residual_final": report.residual_sup,
            "logh_sup": report.logh_sup,
        }
        print(f"gate, threshold {threshold:g}: {report.verdict} after {report.steps} steps "
              f"({doubled_steps(report)} doubled, {report.rejected_steps} rejected)", flush=True)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
