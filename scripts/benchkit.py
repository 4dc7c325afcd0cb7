"""The harness the ``bench_*.py`` scripts share. A script imports it from any working
directory by putting its own directory on ``sys.path`` first."""
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The BLAS and OpenMP pools are sized when numpy loads: a pin set later has no effect.
PINS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1")


def pin_threads() -> None:
    """Pin this process's thread pools to one thread; call before numpy loads."""
    os.environ.update(PINS)


def host() -> dict:
    import numpy as np

    return {"machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "cpus": os.cpu_count(), "blas_threads": 1}


def write(path, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def alternate(sides: dict, repeats: int, limit: dict | None = None) -> tuple[dict, dict]:
    """Call each side ``repeats`` times (a side in ``limit`` only on that many first
    repeats), in order on even repeats and reversed on odd ones.

    Returns, per side that ran, the wall times of its calls (``wall_s``) with their
    median (``wall_s_median``), and its results in call order.
    """
    times = {side: [] for side in sides}
    results = {side: [] for side in sides}
    for i in range(repeats):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            if i < (limit or {}).get(side, repeats):
                start = time.perf_counter()
                results[side].append(sides[side]())
                times[side].append(time.perf_counter() - start)
    ran = [side for side in sides if times[side]]
    return ({side: {"wall_s_median": statistics.median(times[side]), "wall_s": times[side]}
             for side in ran}, {side: results[side] for side in ran})


def trees(baseline: Path | None) -> dict:
    """``current``: this checkout's ``src``, and ``baseline`` if given. A baseline
    without bundleflow ends the script with an ``error:`` line and status 2."""
    if baseline is None:
        return {"current": ROOT / "src"}
    if not (baseline / "bundleflow" / "__init__.py").is_file():
        print(f"error: no bundleflow sources under {baseline}", file=sys.stderr)
        raise SystemExit(2)
    return {"current": ROOT / "src", "baseline": baseline}


def run_worker(script, src: Path, args: list[str]) -> dict:
    """The last output line, as JSON, of ``script args`` run in a fresh process with
    ``PYTHONPATH=src`` and the pins; a failed worker raises with its stderr."""
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src), **PINS))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {script} {' '.join(args)} on {src} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload(name: str):
    """Class ``name`` of ``perfbench/workloads.py``, imported without writing bytecode there."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.dont_write_bytecode = saved
    return getattr(workloads, name)
