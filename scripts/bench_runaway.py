#!/usr/bin/env python3
"""Step counts and wall time of runaway verdicts, the explicit trial's layers, and the runaway
growth rule's gate.

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

Per input: accepted, trial, rejected and doubled steps, sup ||log h|| at the
verdict, the final and the smallest recorded residual, the SHA-256 of the
final metric's and the history's bytes, and the wall time of the solve and
per trial (median over ``--repeats``).

The explicit trial's layers are timed on the ``circle-runaway`` inputs (16
sites), at the final metric of that run: the per-call time of
``bundle.split_metric``, of ``flow._residuals`` (the tension's codifferential
included: the split's cached tension is dropped before each call), of
``linalg.metric_exp_update`` along that tension and of
``linalg.rel_eigvals`` against K = I, each the median of 5 blocks of
``--calls`` calls; and the function calls per trial of the whole run, from
``cProfile``'s count of Python and built-in calls.

The gate cases are a converging run in the same mode: a 16-site circle of
length 1, monodromy diag(2, 1/2), reference ``config.smooth_random_metric``
(seed 44, amplitude 0.25), tolerance 5e-13, at divergence threshold 50 (the
gate at 5 lies above the run's sup ||log h|| of 0.28) and 1 (the gate at 0.1
lies below it, and only the latch keeps the run converging). Per case:
verdict, accepted and rejected steps, doubled steps, final residual.

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. The script first solves every input (and the gate cases) once
per tree for the counts and digests, then times ``--repeats`` runs per tree;
a timed run takes the layers first, whose profiled solve warms the code
paths, then one solve of each input.
With ``--baseline-src`` every timed run is paired with one on the bundleflow
under that directory, for example an export of an earlier commit,
alternating which side goes first; the baseline's records are under
``baseline``, next to the speed-ups. Both trees must end every input at the
same final-metric and history bytes, and the gate cases at the same counts:
otherwise the script refuses to time anything (an ``error:`` line, exit
status 1). ``--inputs`` picks the runaway inputs and whether the gate cases
run (``gate``); all by default. A tree without the growth rule reports 0
doubled steps.

    python3 scripts/bench_runaway.py [--repeats 3] [--calls 200] [--inputs NAME ...] \
        [--baseline-src DIR] [--out BENCH_runaway.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

RUNAWAYS = ("circle-runaway", "jordan-48", "criterion-3")
GATE_THRESHOLDS = (50.0, 1.0)
LAYERS = ("split_metric", "_residuals", "metric_exp_update", "rel_eigvals")
BLOCKS = 5


def runaways(bf, names) -> dict:
    """name -> (connection, reference, options), for the runaway inputs in ``names``."""
    import tempfile

    import numpy as np

    def jordan(sites: int, length: float, **options):
        dom = bf.build_domain("circle", sites, length)
        conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        reference = np.broadcast_to(np.eye(2, dtype=complex), (sites, 2, 2)).copy()
        return conn, reference, bf.SolveOptions(**options)

    def circle_runaway():
        bench = benchkit.workload("CircleRunaway")()
        with tempfile.TemporaryDirectory() as work:
            bench.setup(bf, np.random.default_rng(0), Path(work))
        return bench.conn, bench.reference, bench.opts

    build = {
        "circle-runaway": circle_runaway,
        "jordan-48": lambda: jordan(48, 2 * np.pi, tolerance=1e-30, divergence_threshold=30.0,
                                    max_steps=20000),
        "criterion-3": lambda: jordan(100, 2 * np.pi, tolerance=1e-45, max_steps=40000),
    }
    return {name: build[name]() for name in RUNAWAYS if name in names}


def doubled_steps(report) -> int:
    import re

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


def outcome(bf, names) -> dict:
    """Counts and digests of each input's solve, and the gate cases if asked for."""
    import hashlib

    import numpy as np

    from bundleflow.config import smooth_random_metric

    record = {"runaways": {}, "gate": {}}
    for name, (conn, reference, opts) in runaways(bf, names).items():
        report = bf.solve_harmonic(conn, reference, opts)
        record["runaways"][name] = {
            **counts(report),
            "logh_sup": report.logh_sup,
            "residual_final": report.residual_sup,
            "residual_min": float(report.history[:, 4].min()),
            "sha256": {"metric": hashlib.sha256(report.metric.tobytes()).hexdigest(),
                       "history": hashlib.sha256(report.history.tobytes()).hexdigest()},
        }
    if "gate" in names:
        dom = bf.build_domain("circle", 16, 1.0)
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
        reference = smooth_random_metric(dom, 2, 44, 0.25)
        for threshold in GATE_THRESHOLDS:
            report = bf.solve_harmonic(conn, reference, bf.SolveOptions(
                tolerance=5e-13, divergence_threshold=threshold, max_steps=30000))
            record["gate"][f"threshold-{threshold:g}"] = {
                **counts(report), "residual_final": report.residual_sup,
                "logh_sup": report.logh_sup,
            }
    return record


def layers(bf, calls: int) -> dict:
    """Per-call µs of the explicit trial's layers at 16 sites, and calls per trial."""
    import cProfile
    import pstats

    import numpy as np

    from bundleflow import flow
    from bundleflow import linalg as la

    conn, reference, opts = runaways(bf, ["circle-runaway"])["circle-runaway"]
    profile = cProfile.Profile()
    profile.enable()
    report = bf.solve_harmonic(conn, reference, opts)
    profile.disable()
    metric = report.metric
    sm = bf.split_metric(conn, metric)
    tension = sm.tension
    step = 2.0 * float(report.history[-1, 2])
    k_inv = la.orthonormal_frame(la.check_metric(np.asarray(reference)))[1]

    def residuals():
        sm.__dict__.pop("tension", None)     # the codifferential is part of the layer
        return flow._residuals(sm)

    bodies = {
        "split_metric": lambda: bf.split_metric(conn, metric),
        "_residuals": residuals,
        "metric_exp_update": lambda: la.metric_exp_update(tension, step, sm.root),
        "rel_eigvals": lambda: la.rel_eigvals(metric, k_inv),
    }
    us = {}
    for name in LAYERS:
        body = bodies[name]
        body()
        blocks = []
        for _ in range(BLOCKS):
            start = time.perf_counter()
            for _ in range(calls):
                body()
            blocks.append(1e6 * (time.perf_counter() - start) / calls)
        us[name] = statistics.median(blocks)
    return {"calls_per_trial": pstats.Stats(profile).total_calls / report.trial_steps,
            "us_per_call": us}


def worker(names: list[str], calls: int, timed: bool) -> None:
    """Print one run's record as JSON: the outcomes, or the timings with ``timed``."""
    import bundleflow as bf

    if not timed:
        print(json.dumps(outcome(bf, names)))
        return
    # The layers run first: their profiled solve warms every code path the timed solves take.
    record = {"layers": layers(bf, calls), "runaways": {}}
    for name, (conn, reference, opts) in runaways(bf, names).items():
        start = time.perf_counter()
        report = bf.solve_harmonic(conn, reference, opts)
        wall = time.perf_counter() - start
        record["runaways"][name] = {"wall_s": wall, "ms_per_trial": 1e3 * wall / report.trial_steps}
    print(json.dumps(record))


def summary(records: list[dict], name: str) -> dict:
    walls = [r["runaways"][name]["wall_s"] for r in records]
    per_trial = [r["runaways"][name]["ms_per_trial"] for r in records]
    return {"wall_s_median": statistics.median(walls), "wall_s": walls,
            "ms_per_trial_median": statistics.median(per_trial), "ms_per_trial": per_trial}


def layer_summary(records: list[dict]) -> dict:
    return {
        "calls_per_trial": records[0]["layers"]["calls_per_trial"],
        "us_per_call": {name: statistics.median(r["layers"]["us_per_call"][name]
                                                for r in records) for name in LAYERS},
        "us_per_call_runs": {name: [r["layers"]["us_per_call"][name] for r in records]
                             for name in LAYERS},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3, help="timed fresh processes per tree")
    ap.add_argument("--calls", type=int, default=200,
                    help="calls per timed block of each layer")
    ap.add_argument("--inputs", nargs="+", choices=RUNAWAYS + ("gate",),
                    default=list(RUNAWAYS + ("gate",)))
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_runaway.json")
    ap.add_argument("--worker", choices=("outcome", "timed"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.inputs, args.calls, args.worker == "timed")
        return
    if args.calls < 1 or args.repeats < 1:
        ap.error("--calls and --repeats must be 1 or more")

    trees = benchkit.trees(args.baseline_src)

    def run(side: str, mode: str) -> dict:
        return benchkit.run_worker(__file__, trees[side], ["--worker", mode, "--calls",
                                                           str(args.calls), "--inputs",
                                                           *args.inputs])

    written = {side: run(side, "outcome") for side in trees}
    for block in ("runaways", "gate"):
        for name, entry in written["current"][block].items():
            if any(written[side][block][name] != entry for side in trees):
                print(f"error: {name}: the two trees end at different "
                      + ("metric or history bytes" if block == "runaways" else "counts"),
                      file=sys.stderr)
                raise SystemExit(1)

    _, runs = benchkit.alternate({side: lambda side=side: run(side, "timed") for side in trees},
                                 args.repeats)
    result = {
        "repeats": args.repeats,
        "calls": args.calls,
        "blocks": BLOCKS,
        "host": benchkit.host(),
        "runaways": {},
        "layers": {"sites": 16, **{side: layer_summary(records) for side, records in runs.items()}},
        "gate": written["current"]["gate"],
    }
    for name, entry in written["current"]["runaways"].items():
        row = result["runaways"][name] = {**entry, **{side: summary(records, name)
                                                       for side, records in runs.items()}}
        line = (f"{name}: {row['verdict']} after {row['accepted_steps']} steps "
                f"({row['doubled_steps']} doubled, {row['rejected_steps']} rejected), "
                f"sup|log h| {row['logh_sup']:.2f}, residual {row['residual_final']:.2e}, "
                f"{row['current']['wall_s_median']:.3f} s, "
                f"{row['current']['ms_per_trial_median']:.3f} ms per trial")
        if "baseline" in row:
            row["speedup"] = row["baseline"]["wall_s_median"] / row["current"]["wall_s_median"]
            line += (f"; baseline {row['baseline']['wall_s_median']:.3f} s "
                     f"(x{row['speedup']:.3f})")
        print(line, flush=True)
    for side in runs:
        entry = result["layers"][side]
        print(f"{side} layers at 16 sites: {entry['calls_per_trial']:.1f} calls per trial; "
              + ", ".join(f"{name} {entry['us_per_call'][name]:.1f} us" for name in LAYERS),
              flush=True)
    for case, entry in result["gate"].items():
        print(f"gate, {case}: {entry['verdict']} after {entry['accepted_steps']} steps "
              f"({entry['doubled_steps']} doubled, {entry['rejected_steps']} rejected)",
              flush=True)
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
