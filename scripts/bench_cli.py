#!/usr/bin/env python3
"""Wall time of one CLI run, ``cli.run_scenario``, and of its phases, on the circle-harmonic inputs.

The run is the ``circle-harmonic`` benchmark workload's: ``solve_harmonic``
on a seeded rank-3 monodromy S diag(4, 1, 1/4) S^-1 over a 12-site circle,
from a smooth reference metric read from a checkpoint, with a CSV row every
step and a checkpoint every 200 steps (the run takes 5, so only the final
one is written). It converges in a handful of implicit steps, so the parts
of a run that are not the flow weigh as much as the flow does.

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. It builds the inputs from ``--seed``, calls ``run_scenario``
once (``first_ms``: the first call of a process, which also imports PyYAML
and finds the BLAS thread getter), then ``--calls`` more times. Each call's
wall time is split into phases by wrapping the functions ``run_scenario``
calls:

- ``config``: ``config.load_config``, the YAML parse and validation;
- ``setup``: ``make_domain``, ``make_connection`` and ``make_reference_metric``
  (the reference checkpoint's load);
- ``flow``: ``flow.solve_harmonic``, with the periodic checkpoints it writes;
- ``checkpoint``: ``checkpoint.save_checkpoint`` outside the flow (the final one);
- ``blas_probe``: ``cli._blas_threads``, the thread count for the report;
- ``rest``: the remainder (the output directory, the CSV and the report).

A run records the median per-call ms of the whole call and of each phase
over its ``--calls`` calls; the JSON holds the medians over ``--repeats``
runs and every run. With ``--baseline-src`` every run is paired with one on
the bundleflow under that directory, for example an export of an earlier
commit, alternating which side goes first; the baseline's records are under
``baseline``, next to the speed-up. Both trees must write the same
``final.ckpt`` and ``run.csv`` bytes: the script first runs each tree once
and refuses to time anything (an ``error:`` line, exit status 1) when they
differ.

    python3 scripts/bench_cli.py [--repeats 10] [--calls 30] [--seed 1] \
        [--baseline-src DIR] [--out BENCH_cli.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

PHASES = ("config", "setup", "flow", "checkpoint", "blas_probe", "rest")
# (module, function, phase): the functions ``run_scenario`` looks up at call time.
WRAPPED = (
    ("config", "load_config", "config"),
    ("config", "make_domain", "setup"),
    ("config", "make_connection", "setup"),
    ("config", "make_reference_metric", "setup"),
    ("flow", "solve_harmonic", "flow"),
    ("checkpoint", "save_checkpoint", "checkpoint"),
    ("cli", "_blas_threads", "blas_probe"),
)


def worker(seed: int, calls: int) -> None:
    """Time the first call and ``calls`` more of ``run_scenario``; print the record as JSON."""
    import hashlib
    import importlib
    import shutil
    import tempfile

    import numpy as np

    import bundleflow as bf

    spent = dict.fromkeys(PHASES, 0.0)
    depth = [0]     # a wrapped call inside another (the flow's checkpoints) counts once

    def timed(fn, phase):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    spent[phase] += time.perf_counter() - start
        return wrapper

    for module, name, phase in WRAPPED:
        mod = importlib.import_module(f"bundleflow.{module}")
        setattr(mod, name, timed(getattr(mod, name), phase))

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        case = benchkit.workload("CircleHarmonic")()
        case.setup(bf, np.random.default_rng(seed), work)
        out = work / "out"

        def call() -> dict:
            shutil.rmtree(out, ignore_errors=True)
            for phase in spent:
                spent[phase] = 0.0
            start = time.perf_counter()
            status = bf.cli.run_scenario(case.config, out_dir=out)
            total = time.perf_counter() - start
            if status != 0:
                raise AssertionError(f"run_scenario exited {status}")
            spent["rest"] = total - sum(spent.values())
            return {"total": 1e3 * total, **{p: 1e3 * spent[p] for p in PHASES}}

        first = call()
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("final.ckpt", "run.csv")}
        steps = len((out / "run.csv").read_text().splitlines()) - 3   # comment, header, step 0
        warm = [call() for _ in range(calls)]
    record = {"first_ms": first["total"], "steps": steps, "sha256": digests}
    if warm:
        record["ms"] = {key: statistics.median(c[key] for c in warm) for key in warm[0]}
    print(json.dumps(record))


def summary(records: list[dict]) -> dict:
    keys = records[0]["ms"]
    return {
        "first_ms": statistics.median(r["first_ms"] for r in records),
        "ms": {key: statistics.median(r["ms"][key] for r in records) for key in keys},
        "first_ms_runs": [r["first_ms"] for r in records],
        "ms_runs": {key: [r["ms"][key] for r in records] for key in keys},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=10, help="fresh processes per tree")
    ap.add_argument("--calls", type=int, default=30,
                    help="timed calls per process, after the first")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_cli.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.seed, args.calls)
        return
    if args.calls < 1:
        ap.error("--calls must be 1 or more")

    trees = benchkit.trees(args.baseline_src)

    def run(side: str, calls: int) -> dict:
        return benchkit.run_worker(__file__, trees[side], ["--worker", "--seed", str(args.seed),
                                                           "--calls", str(calls)])

    written = {side: run(side, 0) for side in trees}
    for name in ("final.ckpt", "run.csv"):
        if len({written[side]["sha256"][name] for side in trees}) > 1:
            print(f"error: the two trees write different {name} bytes", file=sys.stderr)
            raise SystemExit(1)

    _, runs = benchkit.alternate({side: lambda side=side: run(side, args.calls)
                                  for side in trees}, args.repeats)
    result = {
        "inputs": "circle-harmonic: rank 3, 12-site circle, checkpoint reference, "
                  "CSV row every step",
        "seed": args.seed,
        "steps": written["current"]["steps"],
        "repeats": args.repeats,
        "calls": args.calls,
        "host": benchkit.host(),
        **{side: summary(records) for side, records in runs.items()},
    }
    for side in runs:
        ms = result[side]["ms"]
        print(f"{side}: run_scenario {ms['total']:.2f} ms (first call in a process "
              f"{result[side]['first_ms']:.1f} ms); "
              + ", ".join(f"{p} {ms[p]:.2f}" for p in PHASES), flush=True)
    if "baseline" in result:
        result["speedup"] = result["baseline"]["ms"]["total"] / result["current"]["ms"]["total"]
        print(f"speed-up x{result['speedup']:.3f}")
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
