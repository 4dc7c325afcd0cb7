#!/usr/bin/env python3
"""Per-call time and file size of checkpoint saves and loads on a 128 x 128 rank-2 field.

A checkpoint holds a metric field of 16,384 Hermitian positive 2 x 2
matrices, H = A A* + I with A complex normal (seed ``--seed``), in three
forms:

- ``site-constant``: one matrix at every site, as the harmonic metric of a
  torus with commuting semisimple monodromy (the ``torus-higgs`` workload);
- ``all-distinct``: a different matrix at every site;
- ``constant-boundary``: all-distinct, except that the boundary sites of the
  128 x 128 rectangle hold one matrix, as a Dirichlet run's boundary does.
  The first and last grid lines are runs of 128 equal rows.

Each run is a fresh process that imports bundleflow from this checkout's
``src``, with the BLAS and OpenMP thread pools pinned to one thread before
numpy loads. In it, each form is saved once and reloaded bit-exactly, then
``save_checkpoint`` and ``load_checkpoint`` are timed over ``--calls`` calls
each; the run records their median per-call ms, the file's bytes and its
SHA-256. The JSON holds, per form, the medians over ``--repeats`` runs and
every run, with the number of site rows that repeat the row before them.

With ``--baseline-src`` every run is paired with one on the bundleflow under
that directory, for example an export of an earlier commit, alternating which
side goes first; the baseline's records are under ``baseline``, next to the
speed-ups. Both trees must write the same bytes: the script first saves every
form on each tree and refuses to time anything (an ``error:`` line, exit
status 1) when the files differ.

    python3 scripts/bench_checkpoint.py [--repeats 10] [--calls 5] [--seed 1] \
        [--baseline-src DIR] [--out BENCH_checkpoint.json]
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402

SITES = (128, 128)
RANK = 2
FORMS = ("site-constant", "all-distinct", "constant-boundary")


def field(form: str, seed: int):
    """The (n, 2, 2) metric field of ``form``."""
    import numpy as np

    import bundleflow as bf

    rng = np.random.default_rng(seed)
    n = SITES[0] * SITES[1]
    a = rng.normal(size=(n, RANK, RANK)) + 1j * rng.normal(size=(n, RANK, RANK))
    h = a @ np.conj(np.swapaxes(a, 1, 2)) + np.eye(RANK)
    if form == "site-constant":
        h[:] = h[0]
    elif form == "constant-boundary":
        h[bf.build_domain("rectangle", SITES, (1.0, 1.0)).boundary] = h[0]
    return h


def worker(seed: int, calls: int) -> None:
    """Save, reload and time each form; print the records as JSON."""
    import hashlib
    import tempfile

    import numpy as np

    from bundleflow.checkpoint import Checkpoint, load_checkpoint, save_checkpoint

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.ckpt"
        for form in FORMS:
            h = field(form, seed)
            ckpt = Checkpoint(rank=RANK, sites=len(h), time=0.0, step=0, dt=0.0, streak=0,
                              metric=h)
            save_checkpoint(path, ckpt)
            if load_checkpoint(path).metric.tobytes() != h.tobytes():
                raise AssertionError(f"{form}: the reloaded metric differs from the saved one")
            save_ms, load_ms = [], []
            for _ in range(calls):
                start = time.perf_counter()
                save_checkpoint(path, ckpt)
                save_ms.append(1e3 * (time.perf_counter() - start))
                start = time.perf_counter()
                load_checkpoint(path)
                load_ms.append(1e3 * (time.perf_counter() - start))
            rows = h.reshape(len(h), -1).view(np.uint64)
            records[form] = {
                "save_ms": statistics.median(save_ms) if calls else None,
                "load_ms": statistics.median(load_ms) if calls else None,
                "bytes": path.stat().st_size,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "repeated_rows": int((rows[1:] == rows[:-1]).all(axis=1).sum()),
            }
    print(json.dumps(records))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=10, help="fresh processes per tree")
    ap.add_argument("--calls", type=int, default=5, help="timed saves and loads per process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--baseline-src", type=Path, default=None,
                    help="another bundleflow source tree to time and compare against")
    ap.add_argument("--out", default="BENCH_checkpoint.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.seed, args.calls)
        return

    trees = benchkit.trees(args.baseline_src)

    def run(side: str, calls: int) -> dict:
        return benchkit.run_worker(__file__, trees[side], ["--worker", "--seed", str(args.seed),
                                                           "--calls", str(calls)])

    written = {side: run(side, 0) for side in trees}
    for form in FORMS:
        digests = {written[side][form]["sha256"] for side in trees}
        if len(digests) > 1:
            print(f"error: {form}: the two trees write different checkpoint bytes",
                  file=sys.stderr)
            raise SystemExit(1)

    _, runs = benchkit.alternate({side: lambda side=side: run(side, args.calls)
                                  for side in trees}, args.repeats)
    result = {
        "sites": list(SITES),
        "rank": RANK,
        "seed": args.seed,
        "repeats": args.repeats,
        "calls": args.calls,
        "host": benchkit.host(),
        "forms": {},
    }
    for form in FORMS:
        first = written["current"][form]
        entry = {"bytes": first["bytes"], "repeated_rows": first["repeated_rows"]}
        for side, records in runs.items():
            save = [r[form]["save_ms"] for r in records]
            load = [r[form]["load_ms"] for r in records]
            entry[side] = {"save_ms": statistics.median(save), "load_ms": statistics.median(load),
                           "save_ms_runs": save, "load_ms_runs": load}
        cur = entry["current"]
        line = (f"{form}: {entry['bytes']} bytes, {entry['repeated_rows']} repeated rows, "
                f"save {cur['save_ms']:.1f} ms, load {cur['load_ms']:.1f} ms")
        if "baseline" in entry:
            entry["save_speedup"] = entry["baseline"]["save_ms"] / cur["save_ms"]
            entry["load_speedup"] = entry["baseline"]["load_ms"] / cur["load_ms"]
            line += (f"; baseline save {entry['baseline']['save_ms']:.1f} ms "
                     f"(x{entry['save_speedup']:.2f}), load {entry['baseline']['load_ms']:.1f} ms "
                     f"(x{entry['load_speedup']:.2f})")
        result["forms"][form] = entry
        print(line, flush=True)
    benchkit.write(args.out, result)


if __name__ == "__main__":
    main()
