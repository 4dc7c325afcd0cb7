#!/usr/bin/env python3
"""Time to verdict on four bundleflow workloads, with closed-form checks.

    python3 perfbench/run.py --workload circle-harmonic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``--workload all`` runs the four in turn.
Each workload runs in its own worker process (``worker.py``) whose
environment pins the BLAS and OpenMP thread pools to one thread before Python
starts: those pools are sized when numpy loads, so nothing set from inside
the process (bundleflow's ``--threads`` included) reaches them. Two more
workers only import bundleflow and build the inputs, so ``setup_s`` is the
median of three fresh set-ups.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are ``setup_s``,
``solve_s`` (median over the run's rounds of the time inside the
verdict-producing calls) and ``peak_rss_mb``; with ``--trace 1`` they are the
per-layer metrics of ``tracing.py`` and ``trace.overhead_s``. Both times are
scaled to a reference host speed (``hostspeed.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("circle-harmonic", "circle-runaway", "annulus-exhaustion", "torus-higgs")
SETUPS = 3
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("ms_per_call", "ms_per_trial")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
               deadline: float) -> dict:
    work = OUT / f"{workload}-{os.getpid()}-{'setup' if setup_only else 'run'}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in PINNED})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the time limit") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    main = run_worker(workload, seed, seconds, trace, False, deadline)
    for line in main["errors"]:
        print(f"{workload}: failed {line}", file=sys.stderr)
    if trace:
        values = dict(main["per_layer"])
        values["trace.overhead_s"] = (statistics.median(main["traced_solve_s"])
                                      - statistics.median(main["solve_s"]))
    else:
        setups = [main["setup_s"]] + [
            run_worker(workload, seed, 0, 0, True, deadline)["setup_s"]
            for _ in range(SETUPS - 1)]
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(main["solve_s"]),
                  "peak_rss_mb": main["peak_rss_mb"]}
    print(f"{workload}: {len(main['solve_s'])} untraced rounds, solve_s "
          + ", ".join(f"{t:.3f}" for t in main["solve_s"]) + "; wall s "
          + ", ".join(f"{t:.3f}" for t in main["wall_s"]))
    return {"correct": main["failed"] == 0, "attempted": main["attempted"],
            "failed": main["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bundleflow" / "__init__.py").is_file():
        print(f"error: no bundleflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        for w, res in results.items():
            print(f"{w}: {json.dumps(res)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
