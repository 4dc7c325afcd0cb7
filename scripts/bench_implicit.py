#!/usr/bin/env python3
"""Wall time and solve phase of the implicit step on large 2-D Dirichlet domains.

Every input is a ``solve_poisson`` run to tolerance 1e-8 from the implicit
step's default dt, with reference ``config.smooth_random_metric`` (seed
``--seed``, amplitude 0.3):

- ``rectangle-<n>``: the unit square with n sites per axis (``--sizes``,
  default 65, 129 and 257) and the trivial rank-2 bundle;
- ``annulus-<m>x<k>``: the twisted annulus, m angular by k radial sites
  (``--annulus``, default 256 64), lengths 2 pi x 1, monodromy diag(2, 1/2).

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. A run records the wall time of the solve, the report's
``solve`` phase, the accepted and trial steps, the verdict and the
CG iterations of its implicit solves (the total and the most in one trial;
null for a tree whose reports do not count them). With ``--baseline-src``
every input also runs on the bundleflow under that directory, for example an
export of an earlier commit, alternating which side runs first; the input
then records the baseline's wall and solve times over this tree's and the
largest difference of the two final metrics, relative to the largest entry.
The records of this checkout are under ``current``, the others under
``baseline``.

    python3 scripts/bench_implicit.py [--sizes 65 129 257] [--annulus 256 64] \
        [--seed 3] [--repeats 1] [--baseline-src DIR] [--out BENCH_implicit.json]
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TOLERANCE = 1e-8
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def problem(name: str, seed: int):
    """(connection, reference) of an input named ``rectangle-<n>`` or ``annulus-<m>x<k>``."""
    import numpy as np

    import bundleflow as bf
    from bundleflow.config import smooth_random_metric

    kind, size = name.split("-")
    if kind == "rectangle":
        dom = bf.build_domain("rectangle", (int(size), int(size)), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
    else:
        sites = tuple(int(s) for s in size.split("x"))
        dom = bf.build_domain("annulus", sites, (2.0 * np.pi, 1.0))
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    return conn, smooth_random_metric(dom, 2, seed, 0.3)


def worker(name: str, seed: int, metric_out: str) -> None:
    """Solve one input and print its record as JSON; the final metric goes to ``metric_out``."""
    import numpy as np

    import bundleflow as bf

    conn, reference = problem(name, seed)
    start = time.perf_counter()
    rep = bf.solve_poisson(conn, reference, bf.SolveOptions(tolerance=TOLERANCE))
    wall = time.perf_counter() - start
    np.save(metric_out, rep.metric)
    print(json.dumps({
        "wall_s": wall,
        "solve_s": rep.phase_seconds["solve"],
        "accepted_steps": rep.steps,
        "trial_steps": rep.trial_steps,
        "cg_iterations": getattr(rep, "cg_iterations", None),
        "cg_iterations_max": getattr(rep, "cg_iterations_max", None),
        "verdict": rep.verdict,
    }))


def run(src: Path, name: str, seed: int, metric_out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in PINNED})
    out = subprocess.run([sys.executable, __file__, "--worker", name, "--seed", str(seed),
                          "--metric-out", str(metric_out)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[65, 129, 257],
                    help="sites per axis of the unit-square rectangles")
    ap.add_argument("--annulus", type=int, nargs=2, default=[256, 64],
                    metavar=("ANGULAR", "RADIAL"), help="sites of the twisted annulus")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_implicit.json")
    ap.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--metric-out", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.seed, args.metric_out)
        return

    import numpy as np

    sides = {"current": SRC}
    if args.baseline_src is not None:
        sides["baseline"] = args.baseline_src
    names = [f"rectangle-{n}" for n in args.sizes] + ["annulus-{}x{}".format(*args.annulus)]
    result = {
        "seed": args.seed,
        "tolerance": TOLERANCE,
        "repeats": args.repeats,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            runs = {side: [] for side in sides}
            for i in range(args.repeats):
                for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                    runs[side].append(run(sides[side], name, args.seed, Path(tmp) / f"{side}.npy"))
            entry = {}
            for side, records in runs.items():
                entry[side] = {**records[-1],
                               "wall_s": statistics.median(r["wall_s"] for r in records),
                               "solve_s": statistics.median(r["solve_s"] for r in records),
                               "wall_s_runs": [r["wall_s"] for r in records],
                               "solve_s_runs": [r["solve_s"] for r in records]}
            cur = entry["current"]
            line = (f"{name}: steps {cur['accepted_steps']}/{cur['trial_steps']}, "
                    f"wall {cur['wall_s']:.3f} s, solve {cur['solve_s']:.3f} s, "
                    f"CG iterations {cur['cg_iterations']} (max {cur['cg_iterations_max']})")
            if "baseline" in entry:
                base, new = (np.load(Path(tmp) / f"{side}.npy") for side in ("baseline", "current"))
                entry["wall_speedup"] = entry["baseline"]["wall_s"] / cur["wall_s"]
                entry["solve_speedup"] = entry["baseline"]["solve_s"] / cur["solve_s"]
                entry["metric_relative_difference"] = float(
                    np.abs(new - base).max() / np.abs(base).max())
                line += (f"; baseline steps {entry['baseline']['accepted_steps']}/"
                         f"{entry['baseline']['trial_steps']}, wall x{entry['wall_speedup']:.2f}, "
                         f"solve x{entry['solve_speedup']:.2f}, metrics within "
                         f"{entry['metric_relative_difference']:.1e}")
            result["inputs"][name] = entry
            print(line, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
