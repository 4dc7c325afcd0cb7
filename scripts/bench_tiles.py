#!/usr/bin/env python3
"""Per-call time and traced memory of the tiled site-wise chain, and a sweep of the tile size.

Two inputs, each a rank-2 metric H on a 2-D domain with a reference K:

- ``torus-higgs``: the ``perfbench`` workload's 128 x 128 unit torus with
  commuting monodromies S diag(mu, 1/mu) S^{-1} (mu = 2, 3; S a seeded
  non-normal matrix with singular values 1 and 2), at its harmonic metric
  H = K = (S S^dag)^{-1}, the metric the workload's flow splits;
- ``rectangle-129``: the unit square with 129 sites per axis and the trivial
  rank-2 bundle of ``bench_implicit.py``, at its reference
  ``config.smooth_random_metric`` (seed 3, amplitude 0.3); here K is that
  metric at seed 4.

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. In it, after one untimed call of each, these are timed over
``--calls`` calls (median ms per call):

- ``split_tension``: ``split_metric(conn, H).tension``;
- ``metric_exp_update``: ``H exp(0.2 Q)`` for a seeded H-self-adjoint Q, from
  the scaled root of H (``linalg.check_metric``);
- ``rel_eigvals``: the eigenvalues of K^{-1} H, from g^{-1} of K's frame.

Then tracemalloc takes the transient peak (peak minus the memory held before
the call) of one ``split_metric`` and of one split with its tension. The run
records the SHA-256 of every split field, the tension and both kernels'
results. With ``--sweep`` it also times ``split_tension`` with
``linalg.TILE`` set to each of 512 ... 16384 sites and to one tile for the
whole stack, one call per setting in turn, ``--calls`` rounds after an
untimed one (so a drift of the host's speed reaches every setting alike),
and records each setting's median and digest.

With ``--baseline-src`` every run is paired with one on the bundleflow under
that directory, for example an export of an earlier commit, alternating which
side goes first; the baseline's records are under ``baseline``, next to the
speed-ups and the ratio of the traced peaks. The baseline must take this
tree's ``metric_exp_update(q, scale, root)`` and ``rel_eigvals(h, g_inv)``.
This tree runs the sweep; a tree without ``linalg.TILE`` (before tiling)
skips it. The script refuses to
write (an ``error:`` line, exit status 1) unless every run of both trees, and
every tile size of the sweep, gives the same digest.

    python3 scripts/bench_tiles.py [--repeats 5] [--calls 5] [--baseline-src DIR] \
        [--out BENCH_tiles.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

INPUTS = ("torus-higgs", "rectangle-129")
OPS = ("split_tension", "metric_exp_update", "rel_eigvals")
SWEEP = (512, 1024, 2048, 4096, 8192, 16384, None)   # None: one tile for the whole stack


def problem(name: str):
    """(connection, K, H, Q) of one input: Q is a seeded H-self-adjoint field."""
    import numpy as np

    import bundleflow as bf
    from bundleflow import linalg as la
    from bundleflow.config import smooth_random_metric

    if name == "torus-higgs":
        work = benchkit.workload("TorusHiggs")
        s = benchkit.workload("conditioned")(np.random.default_rng(1), (1.0, 2.0))
        s_inv = np.linalg.inv(s)
        dom = bf.build_domain("torus", (work.sites, work.sites), (work.length, work.length))
        conn = bf.from_monodromy(dom, [s @ np.diag([m, 1.0 / m]) @ s_inv for m in work.mu])
        k = np.broadcast_to(np.linalg.inv(s @ np.conj(s.T)), (dom.n_sites, 2, 2)).astype(complex)
        h = k.copy()
    else:
        dom = bf.build_domain("rectangle", (129, 129), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
        h = smooth_random_metric(dom, 2, 3, 0.3)
        k = smooth_random_metric(dom, 2, 4, 0.3)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(dom.n_sites, 2, 2)) + 1j * rng.normal(size=(dom.n_sites, 2, 2))
    return conn, k, h, la.selfadjoint_part(z, h, la.scaled_sqrt(h))


def timed(fn, calls: int) -> float:
    """Median ms per call of ``fn`` over ``calls`` calls, after one untimed call."""
    fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def traced_peak(fn) -> float:
    """MB that ``fn()`` allocates at its peak beyond what is held before the call."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


def digest(conn, k, h, q) -> str:
    """SHA-256 of the split's fields, its tension and both kernels' results."""
    import hashlib

    import bundleflow as bf
    from bundleflow import linalg as la

    sm = bf.split_metric(conn, h)
    fields = (sm.psi, sm.shift, sm.connection.transport, sm.connection.transport_inv, *sm.root,
              sm.tension, la.metric_exp_update(q, 0.2, sm.root),
              la.rel_eigvals(h, la.orthonormal_frame(la.check_metric(k))[1]))
    sha = hashlib.sha256()
    for f in fields:
        sha.update(f.tobytes())
    return sha.hexdigest()


def worker(calls: int, sweep: bool) -> None:
    """Time, trace and digest each input; print the records as JSON."""
    import bundleflow as bf
    from bundleflow import linalg as la

    records = {}
    for name in INPUTS:
        conn, k, h, q = problem(name)
        root = la.check_metric(h)
        g_inv = la.orthonormal_frame(la.check_metric(k))[1]
        ops = {"split_tension": lambda: bf.split_metric(conn, h).tension,
               "metric_exp_update": lambda: la.metric_exp_update(q, 0.2, root),
               "rel_eigvals": lambda: la.rel_eigvals(h, g_inv)}
        record = {"sites": conn.domain.n_sites, "sha256": digest(conn, k, h, q),
                  "ms": {op: timed(fn, calls) for op, fn in ops.items()},
                  "split_peak_mb": traced_peak(lambda: bf.split_metric(conn, h)),
                  "split_tension_peak_mb": traced_peak(ops["split_tension"])}
        if sweep and hasattr(la, "TILE"):
            default = la.TILE
            times = {tile: [] for tile in SWEEP}
            for _ in range(calls + 1):
                for tile in SWEEP:
                    la.TILE = 10 ** 9 if tile is None else tile
                    start = time.perf_counter()
                    ops["split_tension"]()
                    times[tile].append(time.perf_counter() - start)
            record["sweep"] = {}
            for tile in SWEEP:
                la.TILE = 10 ** 9 if tile is None else tile
                record["sweep"][str(tile or "whole")] = {
                    "ms": 1e3 * statistics.median(times[tile][1:]),
                    "sha256": digest(conn, k, h, q)}
            la.TILE = default
        records[name] = record
    print(json.dumps(records))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5, help="fresh processes per tree")
    ap.add_argument("--calls", type=int, default=5, help="timed calls per operation and process")
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_tiles.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--sweep", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.calls < 1:
        ap.error("--calls must be 1 or more")
    if args.worker:
        worker(args.calls, args.sweep)
        return

    trees = benchkit.trees(args.baseline_src)
    _, runs = benchkit.alternate({
        side: lambda side=side: benchkit.run_worker(
            __file__, trees[side], ["--worker", "--calls", str(args.calls)]
            + (["--sweep"] if side == "current" else []))
        for side in trees}, args.repeats)
    for name in INPUTS:
        digests = {r[name]["sha256"] for records in runs.values() for r in records}
        digests |= {s["sha256"] for r in runs["current"] for s in r[name].get("sweep", {}).values()}
        if len(digests) > 1:
            print(f"error: {name}: the runs give different fields", file=sys.stderr)
            raise SystemExit(1)

    result = {"repeats": args.repeats, "calls": args.calls, "host": benchkit.host(), "inputs": {}}
    for name in INPUTS:
        first = runs["current"][0][name]
        entry = {"sites": first["sites"], "sha256": first["sha256"]}
        for side, records in runs.items():
            entry[side] = {
                **{f"{op}_ms": statistics.median(r[name]["ms"][op] for r in records) for op in OPS},
                **{key: statistics.median(r[name][key] for r in records)
                   for key in ("split_peak_mb", "split_tension_peak_mb")},
                "runs": [{**r[name]["ms"], "split_peak_mb": r[name]["split_peak_mb"],
                          "split_tension_peak_mb": r[name]["split_tension_peak_mb"]}
                         for r in records]}
        cur = entry["current"]
        if "sweep" in first:
            whole = statistics.median(r[name]["sweep"]["whole"]["ms"] for r in runs["current"])
            entry["sweep"] = {}
            for tile in first["sweep"]:
                ms = statistics.median(r[name]["sweep"][tile]["ms"] for r in runs["current"])
                entry["sweep"][tile] = {"split_tension_ms": ms, "speedup_over_whole": whole / ms}
        line = (f"{name} ({entry['sites']} sites): split + tension {cur['split_tension_ms']:.1f} ms, "
                f"metric_exp_update {cur['metric_exp_update_ms']:.2f} ms, "
                f"rel_eigvals {cur['rel_eigvals_ms']:.2f} ms, "
                f"split peak {cur['split_peak_mb']:.1f} MB")
        if "baseline" in entry:
            base = entry["baseline"]
            entry["speedup"] = {op: base[f"{op}_ms"] / cur[f"{op}_ms"] for op in OPS}
            entry["split_peak_ratio"] = cur["split_peak_mb"] / base["split_peak_mb"]
            entry["split_tension_peak_ratio"] = (cur["split_tension_peak_mb"]
                                                 / base["split_tension_peak_mb"])
            line += "; over baseline " + ", ".join(
                f"{op} x{entry['speedup'][op]:.2f}" for op in OPS)
            line += f", split peak x{entry['split_peak_ratio']:.2f}"
        result["inputs"][name] = entry
        print(line, flush=True)
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
