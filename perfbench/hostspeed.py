"""The host's speed, sampled by a fixed probe job while the timed work runs.

The host this benchmark was built on changes speed by up to a factor of two
in phases that last from about a second to minutes, and CPU time follows
wall time through them, so neither clock alone gives steady figures. While
timed work runs, ``Sampler`` interrupts it every ``period`` seconds
(``SIGALRM``, handled between two bytecodes of the main thread) and times
one run of a probe job well under a millisecond long. The work's time, less
the time spent in the probes, is then scaled by ``reference / typical(samples)``:
the result is the time the work would take with the host at the speed at
which the probe takes its reference time. The probes' inputs are fixed and
they call only numpy and the interpreter, so no change to bundleflow changes
their work.

``numpy_probe`` mixes what the flow does per step: batched ``eigh`` and
``solve`` on small matrices and a loop of plain Python. ``python_probe`` is
plain Python only; it samples the set-up, which imports numpy, so this
module imports numpy only when a numpy probe first runs.
"""
from __future__ import annotations

import signal
import statistics
import time

_arrays: tuple = ()


def numpy_probe() -> float:
    """Wall time of one run of the numpy probe job (about 1 ms here)."""
    global _arrays
    if not _arrays:
        import numpy as np

        rng = np.random.default_rng(20250101)
        r2 = rng.normal(size=(384, 2, 2))
        r3 = rng.normal(size=(12, 3, 3))
        _arrays = (r2 + r2.transpose(0, 2, 1), r3 + r3.transpose(0, 2, 1) + 6.0 * np.eye(3))
    import numpy as np

    r2, r3 = _arrays
    start = time.perf_counter()
    np.linalg.eigh(r2)
    for _ in range(6):
        np.linalg.eigh(r3)
        np.linalg.solve(r3, r3)
    total = 0
    for i in range(1000):
        total += i * i
    return time.perf_counter() - start


def python_probe() -> float:
    """Wall time of one run of the plain-Python probe job (about 0.3 ms here)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1200):
        table[i % 97] = table.get(i % 97, 0) + i * i
    "".join(str(v) for v in table.values())
    return time.perf_counter() - start


# Typical probe times on the reference machine (see README), in seconds.
REFERENCE_S = {numpy_probe: 0.0009, python_probe: 0.0003}


def typical(samples: list[float]) -> float:
    """Mean probe time with the slowest and fastest tenth left out."""
    samples = sorted(samples)
    cut = len(samples) // 10
    return statistics.fmean(samples[cut:len(samples) - cut])


class Sampler:
    """Times ``probe`` every ``period`` seconds of wall time while active.

    ``samples`` holds the probe times; ``spent_s`` the whole time spent in
    the handler, which the caller takes off its own measurement.
    """

    def __init__(self, probe=numpy_probe, period: float = 0.05):
        self.probe = probe
        self.period = period
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.probe())
        # A one-shot timer re-armed here, so a slow probe never nests.
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, min_samples: int) -> float:
        """Factor that turns wall time into time at the reference speed.

        Work too short for ``min_samples`` samples gets probed after it ends.
        """
        while len(self.samples) < min_samples:
            self.samples.append(self.probe())
        return REFERENCE_S[self.probe] / typical(self.samples)
