#!/usr/bin/env python3
"""Splits and wall time of ``solve_poisson`` runs that converge at step 0 and normalize.

A Poisson run that converges normalizes its metric to det(K^{-1}H) = 1. Both
inputs converge at step 0, so the normalization and the diagnostics around
it are all the run does besides its first split:

- ``torus-higgs``: the ``perfbench`` workload's input, a 128 x 128 unit torus
  with commuting monodromies S diag(mu, 1/mu) S^{-1} (mu = 2, 3; S a seeded
  non-normal matrix with singular values 1 and 2) from its harmonic metric
  (S S^dag)^{-1}. The normalization factor f is roundoff there.
- ``rectangle-conformal``: the unit square with 129 sites per axis and the
  trivial rank-2 bundle, reference K = e^phi K0 (phi a smooth bump, K0 a seeded
  constant metric), started from K e^g with g = sin(pi x) sin(pi y), which
  vanishes on the boundary. Both are conformally flat, so the trace-free
  tension is roundoff and the normalization factor is f = -g.

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. In it, each input is solved ``--calls`` times at tolerance 1e-8;
the run records the median wall time of ``solve_poisson``, the median of the
report's ``diagnostics`` phase, the calls to ``split_metric`` that one solve
makes, the verdict, the steps and the SHA-256 of the final metric's bytes.
The JSON holds, per input, the medians over ``--repeats`` runs and every run.

With ``--baseline-src`` every run is paired with one on the bundleflow under
that directory, for example an export of an earlier commit, alternating which
side goes first; the baseline's records are under ``baseline``, next to the
speed-ups. The script refuses to write (an ``error:`` line, exit status 1)
unless every run of both trees ends at the same final-metric bytes.

    python3 scripts/bench_normalize.py [--repeats 10] [--calls 3] [--seed 1] \
        [--baseline-src DIR] [--out BENCH_normalize.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

INPUTS = ("torus-higgs", "rectangle-conformal")
TOLERANCE = 1e-8
RECTANGLE_SITES = 129


def problem(name: str, seed: int):
    """(connection, reference, start metric) of one input."""
    import numpy as np

    import bundleflow as bf

    rng = np.random.default_rng(seed)
    if name == "torus-higgs":
        work = benchkit.workload("TorusHiggs")
        s = benchkit.workload("conditioned")(rng, (1.0, 2.0))
        s_inv = np.linalg.inv(s)
        dom = bf.build_domain("torus", (work.sites, work.sites), (work.length, work.length))
        conn = bf.from_monodromy(dom, [s @ np.diag([m, 1.0 / m]) @ s_inv for m in work.mu])
        harmonic = np.linalg.inv(s @ np.conj(s.T))
        reference = np.broadcast_to(harmonic, (dom.n_sites, 2, 2)).astype(complex)
        return conn, reference, reference.copy()
    n = RECTANGLE_SITES
    dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k0 = a @ np.conj(a.T) + np.eye(2)
    x, y = dom.coords().T
    phi = 0.5 * np.exp(-8.0 * ((x - 0.4) ** 2 + (y - 0.6) ** 2))
    g = np.sin(np.pi * x) * np.sin(np.pi * y)
    g[dom.boundary] = 0.0
    reference = np.exp(phi)[:, None, None] * k0
    return conn, reference, reference * np.exp(g)[:, None, None]


def worker(seed: int, calls: int) -> None:
    """Solve each input ``calls`` times; print the records as JSON."""
    import hashlib

    import bundleflow as bf
    from bundleflow import flow

    splits = []
    real_split = flow.split_metric

    def counted(*args, **kwargs):
        splits.append(1)
        return real_split(*args, **kwargs)

    flow.split_metric = counted
    records = {}
    for name in INPUTS:
        conn, reference, start_metric = problem(name, seed)
        wall, diagnostics, digests = [], [], set()
        for _ in range(calls):
            splits.clear()
            state = bf.FlowState(time=0.0, metric=start_metric.copy(), dt=0.0)
            start = time.perf_counter()
            rep = bf.solve_poisson(conn, reference, bf.SolveOptions(tolerance=TOLERANCE),
                                   init=state)
            wall.append(time.perf_counter() - start)
            diagnostics.append(rep.phase_seconds["diagnostics"])
            digests.add(hashlib.sha256(rep.metric.tobytes()).hexdigest())
        records[name] = {
            "wall_s": statistics.median(wall),
            "diagnostics_s": statistics.median(diagnostics),
            "split_metric_calls": len(splits),
            "verdict": rep.verdict,
            "steps": rep.steps,
            "sha256": sorted(digests),
        }
    print(json.dumps(records))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=10, help="fresh processes per tree")
    ap.add_argument("--calls", type=int, default=3, help="timed solves per input and process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_normalize.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.calls < 1:
        ap.error("--calls must be 1 or more")
    if args.worker:
        worker(args.seed, args.calls)
        return

    trees = benchkit.trees(args.baseline_src)
    _, runs = benchkit.alternate({
        side: lambda side=side: benchkit.run_worker(
            __file__, trees[side], ["--worker", "--seed", str(args.seed), "--calls", str(args.calls)])
        for side in trees}, args.repeats)
    for name in INPUTS:
        digests = {d for records in runs.values() for r in records for d in r[name]["sha256"]}
        if len(digests) > 1:
            print(f"error: {name}: the runs end at different final metrics", file=sys.stderr)
            raise SystemExit(1)

    result = {
        "tolerance": TOLERANCE,
        "seed": args.seed,
        "repeats": args.repeats,
        "calls": args.calls,
        "host": benchkit.host(),
        "inputs": {},
    }
    for name in INPUTS:
        first = runs["current"][0][name]
        entry = {"verdict": first["verdict"], "steps": first["steps"],
                 "final_metric_sha256": first["sha256"][0]}
        for side, records in runs.items():
            wall = [r[name]["wall_s"] for r in records]
            diagnostics = [r[name]["diagnostics_s"] for r in records]
            entry[side] = {"split_metric_calls": records[0][name]["split_metric_calls"],
                           "wall_s": statistics.median(wall),
                           "diagnostics_s": statistics.median(diagnostics),
                           "wall_s_runs": wall, "diagnostics_s_runs": diagnostics}
        cur = entry["current"]
        line = (f"{name}: {entry['verdict']} in {entry['steps']} steps, "
                f"{cur['split_metric_calls']} splits, wall {1e3 * cur['wall_s']:.1f} ms, "
                f"diagnostics {1e3 * cur['diagnostics_s']:.1f} ms")
        if "baseline" in entry:
            base = entry["baseline"]
            entry["wall_speedup"] = base["wall_s"] / cur["wall_s"]
            entry["diagnostics_speedup"] = base["diagnostics_s"] / cur["diagnostics_s"]
            line += (f"; baseline {base['split_metric_calls']} splits, "
                     f"wall {1e3 * base['wall_s']:.1f} ms (x{entry['wall_speedup']:.2f}), "
                     f"diagnostics {1e3 * base['diagnostics_s']:.1f} ms "
                     f"(x{entry['diagnostics_speedup']:.2f})")
        result["inputs"][name] = entry
        print(line, flush=True)
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
