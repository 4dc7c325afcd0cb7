#!/usr/bin/env python3
"""Import and transport set-up time of bundleflow in fresh processes.

Each run is a fresh process with the BLAS and OpenMP thread pools pinned to
one thread. It imports bundleflow from this checkout's ``src`` (numpy and
everything else it loads included) and then builds, with ``from_monodromy``,
the transports of the four benchmark workloads' generators:

- ``circle-runaway``: the Jordan block [[1, 1], [0, 1]] on a 16-site circle;
- ``annulus-exhaustion``: diag(2, 1/2) on the 48 x 11 annulus;
- ``circle-harmonic``: a seeded rank-3 S diag(4, 1, 1/4) S^-1 on a 12-site circle;
- ``torus-higgs``: the seeded commuting pair S diag(mu, 1/mu) S^-1, mu = 2, 3,
  on the 128 x 128 torus.

A run records ``import_s`` (from the first statement to the end of
``import bundleflow``), ``setup_s`` (the same start to the last transport) and
the scipy modules loaded by then. The JSON holds the medians over ``--runs``
processes and every run. With ``--baseline-src`` every run is paired with one
on the bundleflow under that directory, for example an export of an earlier
commit, alternating which side goes first; the baseline's records are under
``baseline``.

    python3 scripts/bench_import.py [--runs 10] [--seed 1] [--baseline-src DIR] \
        [--out BENCH_import.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402


def worker(seed: int) -> None:
    """Time the import and the four transport builds; print the record as JSON."""
    start = time.perf_counter()
    import bundleflow as bf
    imported = time.perf_counter()
    import numpy as np

    rng = np.random.default_rng(seed)

    def similar(*eigenvalues):
        s = rng.normal(size=(len(eigenvalues), len(eigenvalues)))
        return s @ np.diag(eigenvalues) @ np.linalg.solve(s, np.eye(len(eigenvalues)))

    s = rng.normal(size=(2, 2))
    pair = [s @ np.diag([mu, 1.0 / mu]) @ np.linalg.solve(s, np.eye(2)) for mu in (2.0, 3.0)]
    inputs = [
        (("circle", 16, 1.0), [np.array([[1.0, 1.0], [0.0, 1.0]])]),
        (("annulus", (48, 11), (2 * np.pi, 1.0)), [np.diag([2.0, 0.5])]),
        (("circle", 12, 1.0), [similar(4.0, 1.0, 0.25)]),
        (("torus", (128, 128), (1.0, 1.0)), pair),
    ]
    for domain, generators in inputs:
        bf.from_monodromy(bf.build_domain(*domain), generators)
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "setup_s": done - start,
        "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    }))


def summary(records: list[dict]) -> dict:
    return {
        "import_s": statistics.median(r["import_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "scipy_modules": len(records[-1]["scipy_modules"]),
        "import_s_runs": [r["import_s"] for r in records],
        "setup_s_runs": [r["setup_s"] for r in records],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_import.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.seed)
        return

    trees = benchkit.trees(args.baseline_src)
    _, runs = benchkit.alternate({side: lambda side=side: benchkit.run_worker(
        __file__, trees[side], ["--worker", "--seed", str(args.seed)]) for side in trees},
        args.runs)
    result = {
        "seed": args.seed,
        "runs": args.runs,
        "host": benchkit.host(),
        **{side: summary(records) for side, records in runs.items()},
    }
    for side in trees:
        rec = result[side]
        print(f"{side}: import {rec['import_s']:.3f} s, import + transports "
              f"{rec['setup_s']:.3f} s, {rec['scipy_modules']} scipy modules loaded")
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
