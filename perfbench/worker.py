"""One workload in one process: timed import and set-up, then rounds for --seconds.

``run.py`` starts this with the BLAS thread count pinned in the environment
and ``src`` on ``PYTHONPATH``. Nothing here imports numpy before the set-up
clock starts, so ``setup_s`` includes the whole import of bundleflow. Both
``setup_s`` and each round's ``solve_s`` are scaled to the reference host
speed by the probes that ``hostspeed.Sampler`` runs while they are timed.
Prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import hostspeed

MIN_PROBES = 20


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for generated inputs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # The set-up imports numpy, so a plain-Python probe samples the host's speed.
    with hostspeed.Sampler(hostspeed.python_probe, period=0.02) as probes:
        start = time.perf_counter()
        import bundleflow as bf
        import numpy as np

        import workloads

        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(bf, np.random.default_rng(args.seed), work)
        setup_wall_s = time.perf_counter() - start
    setup_s = (setup_wall_s - probes.spent_s) * probes.scale(MIN_PROBES)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import tracing

    tracer = tracing.Tracer()
    solve = {False: [], True: []}
    wall: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    begin = time.perf_counter()

    def more() -> bool:
        if not solve[False] or (args.trace and not solve[True]):
            return True
        return time.perf_counter() - begin < args.seconds

    # Traced runs alternate untraced and traced rounds; the difference of
    # their medians is the tracing overhead.
    while more():
        traced = bool(args.trace) and len(solve[False]) > len(solve[True])
        rnd = workloads.Round()
        if traced:
            tracer.install()
        try:
            workload.round(bf, rnd)
        finally:
            tracer.remove()
        solve[traced].append(rnd.solve_s * rnd.sampler.scale(MIN_PROBES))
        if not traced:
            wall.append(rnd.wall_s)
        attempted += rnd.attempted
        failed += rnd.failed
        errors += rnd.errors
    result = {
        "setup_s": setup_s,
        "solve_s": solve[False],
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["traced_solve_s"] = solve[True]
        result["per_layer"] = tracer.per_layer(len(solve[True]))
        tracer.write(work.parent / f"spans-{args.workload}.csv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
