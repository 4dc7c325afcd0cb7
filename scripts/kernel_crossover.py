#!/usr/bin/env python3
"""Per-call time of the rank-2 closed-form kernels in ``bundleflow.linalg`` against numpy.

For stacks of 8 to 16384 random complex 2 x 2 matrices (seeded), prints the microseconds
per call of the batched product, the Hermitian eigendecomposition, the eigenvalues and the
spectral norm, each by its closed form and by the numpy/LAPACK routine that the entry points
``linalg.mm``, ``linalg.eigh``, ``linalg.eigvalsh`` and ``linalg.specnorm`` fall back to
(``np.linalg.norm(ord=2)``, a batched SVD, for the spectral norm: ``specnorm``'s own
fallback is ``@`` and ``np.linalg.eigvalsh``). The decompositions take Hermitian stacks,
the product and the norm general ones. The BLAS and OpenMP thread pools are pinned to one
thread before numpy loads. ``linalg.SMALL_BATCH`` is the smallest batch from which the
closed forms win, for every entry point.

    PYTHONPATH=src python3 scripts/kernel_crossover.py [--repeats 7]
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from bundleflow import linalg as la  # noqa: E402

BATCHES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 384, 1024, 4096, 16384)


def per_call_us(fn, repeats: int) -> float:
    """Best of ``repeats`` samples, each long enough (about 20 ms) to swamp the timer."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    number = max(1, number // 10)
    return 1e6 * min(timer.repeat(repeat=repeats, number=number)) / number


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    kernels = (
        ("mm", lambda a, b: la._mm2(a, b), lambda a, b: a @ b),
        ("eigh", lambda a, b: la._eigh2(a), lambda a, b: np.linalg.eigh(a)),
        ("eigvalsh", lambda a, b: la._eigvalsh2(a), lambda a, b: np.linalg.eigvalsh(a)),
        ("specnorm", lambda a, b: np.sqrt(la._eigvalsh2(la._mm2(la.dagger(b), b))[..., -1]),
         lambda a, b: np.linalg.norm(b, ord=2, axis=(-2, -1))),
    )
    head = " | ".join(f"{name} closed | {name} numpy" for name, _, _ in kernels)
    print(f"SMALL_BATCH = {la.SMALL_BATCH}; microseconds per call, best of {args.repeats}")
    print(f"| batch | {head} |")
    print("|---:|" + "---:|" * (2 * len(kernels)))
    for n in BATCHES:
        z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        a = z + la.dagger(z)
        b = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        cells = []
        for _, closed, numpy_fn in kernels:
            cells.append(per_call_us(lambda: closed(a, b), args.repeats))
            cells.append(per_call_us(lambda: numpy_fn(a, b), args.repeats))
        print(f"| {n} | " + " | ".join(f"{c:.1f}" for c in cells) + " |")


if __name__ == "__main__":
    main()
