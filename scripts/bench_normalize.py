#!/usr/bin/env python3
"""Splits, wall time and traced memory of step-0 Poisson runs and of the Higgs round trip after one.

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
On ``torus-higgs`` it then runs the CLI's round trip once more under
tracemalloc and records the transient peak (the traced peak minus what is
held before the call, in MB) of ``solve_poisson``, ``higgs_from_harmonic``
on the run's split, ``hitchin_residuals`` and ``flat_from_higgs`` (at
tolerance 1e-8), with the SHA-256 of theta's bytes, the three residuals and
the SHA-256 of the loop generators' bytes. The JSON holds, per input, the
medians over ``--repeats`` runs and every run.

With ``--baseline-src`` every run is paired with one on the bundleflow under
that directory, for example an export of an earlier commit, alternating which
side goes first; the baseline's records are under ``baseline``, next to the
speed-ups and the ratios of the traced peaks. The script refuses to write
(an ``error:`` line, exit status 1) unless every run of both trees ends at
the same final-metric bytes, and on ``torus-higgs`` at the same theta bytes,
the same three residuals and the same loop-generator bytes.

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
ROUND_TRIP = ("solve_poisson", "higgs_from_harmonic", "hitchin_residuals", "flat_from_higgs")
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
        if name == "torus-higgs":
            records[name]["round_trip"] = round_trip(conn, reference, start_metric)
    print(json.dumps(records))


def traced_peak(fn):
    """(``fn()``, the MB it allocates at its peak beyond what is held before the call)."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


def round_trip(conn, reference, start_metric) -> dict:
    """The CLI's Higgs round trip under tracemalloc: each call's transient peak, and
    the digests of theta and the loop generators with the three residuals."""
    import hashlib

    import bundleflow as bf

    state = bf.FlowState(time=0.0, metric=start_metric.copy(), dt=0.0)
    peaks = {}
    rep, peaks["solve_poisson"] = traced_peak(lambda: bf.solve_poisson(
        conn, reference, bf.SolveOptions(tolerance=TOLERANCE), init=state))
    hd, peaks["higgs_from_harmonic"] = traced_peak(
        lambda: bf.higgs_from_harmonic(rep.split, tension_tol=TOLERANCE))
    residuals, peaks["hitchin_residuals"] = traced_peak(lambda: bf.hitchin_residuals(hd))
    back, peaks["flat_from_higgs"] = traced_peak(lambda: bf.flat_from_higgs(hd, tol=TOLERANCE))
    loops = hashlib.sha256(b"".join(lp.generator.tobytes() for lp in back.loops))
    return {"peak_mb": peaks, "theta_sha256": hashlib.sha256(hd.theta.tobytes()).hexdigest(),
            "residuals": {key: float(value) for key, value in residuals.items()},
            "loops_sha256": loops.hexdigest()}


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
    trips = [r["torus-higgs"]["round_trip"] for records in runs.values() for r in records]
    for key, what in (("theta_sha256", "theta"), ("residuals", "Hitchin residuals"),
                      ("loops_sha256", "loop generators")):
        if len({json.dumps(t[key], sort_keys=True) for t in trips}) > 1:
            print(f"error: torus-higgs: the round trips end at different {what}", file=sys.stderr)
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
        if name == "torus-higgs":
            first_trip = first["round_trip"]
            entry.update(theta_sha256=first_trip["theta_sha256"],
                         residuals=first_trip["residuals"],
                         loops_sha256=first_trip["loops_sha256"])
            for side, records in runs.items():
                peaks = {call: [r[name]["round_trip"]["peak_mb"][call] for r in records]
                         for call in ROUND_TRIP}
                entry[side]["peak_mb"] = {call: statistics.median(v) for call, v in peaks.items()}
                entry[side]["peak_mb_runs"] = peaks
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
            if "peak_mb" in cur:
                entry["peak_ratio"] = {call: cur["peak_mb"][call] / base["peak_mb"][call]
                                       for call in ROUND_TRIP if base["peak_mb"][call] > 0}
        result["inputs"][name] = entry
        print(line, flush=True)
        if "peak_mb" in cur:
            print("  traced peak MB: " + ", ".join(
                f"{call} {cur['peak_mb'][call]:.1f}"
                + (f" (baseline {entry['baseline']['peak_mb'][call]:.1f})" if "baseline" in entry
                   else "") for call in ROUND_TRIP), flush=True)
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
