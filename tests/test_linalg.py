"""The batched kernels behind linalg's entry points, on both sides of SMALL_BATCH.

Stacks of at least ``SMALL_BATCH`` 2 x 2 matrices take the closed forms,
smaller ones numpy/LAPACK; every case runs on one batch of each kind.
"""
import itertools
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import bundleflow as bf
from bundleflow import linalg as la

from util import random_metric, torus_diag

BATCHES = (la.SMALL_BATCH // 4, 4 * la.SMALL_BATCH)


def hermitian_batch(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return z + la.dagger(z)


def broadcast(m, n: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(m, dtype=complex), (n, 2, 2)).copy()


def orthonormality_defect(v: np.ndarray) -> float:
    return float(np.abs(la.dagger(v) @ v - np.eye(2)).max())


@pytest.mark.parametrize("n", BATCHES)
def test_mm_matches_matmul(n):
    a = hermitian_batch(n, 1) + 0.3j * hermitian_batch(n, 2)
    b = hermitian_batch(n, 3)
    expected = a @ b
    assert np.abs(la.mm(a, b) - expected).max() <= 1e-14 * np.abs(expected).max()
    # one operand broadcast against a stack, as in products with a constant matrix
    assert np.abs(la.mm(a[0], b) - a[0] @ b).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n", BATCHES)
def test_eigh_matches_lapack(n):
    h = hermitian_batch(n, 4)
    w, v = la.eigh(h)
    w_ref = np.linalg.eigvalsh(h)
    scale = np.abs(w_ref).max()
    assert np.abs(w - w_ref).max() <= 1e-14 * scale
    assert np.abs(la.eigvalsh(h) - w_ref).max() <= 1e-14 * scale
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert orthonormality_defect(v) <= 1e-14
    rebuilt = (v * w[:, None, :]) @ la.dagger(v)
    assert np.abs(rebuilt - h).max() <= 1e-14 * scale


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("matrix", [
    [[1.0, 0.0], [0.0, 1.0]],        # p = q, c = 0
    [[2.0, 0.0], [0.0, 5.0]],
    [[5.0, 0.0], [0.0, 2.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[-3.0, 0.0], [0.0, -3.0]],
    [[1.0, 0.5j], [-0.5j, 1.0]],     # p = q, c != 0
])
def test_eigh_diagonal_and_degenerate_inputs(n, matrix):
    h = broadcast(matrix, n)
    with np.errstate(invalid="raise", divide="raise"):
        w, v = la.eigh(h)
        w_only = la.eigvalsh(h)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert orthonormality_defect(v) <= 1e-14
    expected = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    assert np.abs(w - expected).max() <= 1e-15 * (1.0 + np.abs(expected).max())
    assert np.array_equal(w, w_only)
    assert np.abs((v * w[:, None, :]) @ la.dagger(v) - h).max() <= 1e-14 * (1.0 + np.abs(h).max())


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("t", [25.0, 40.0])
def test_graded_metric_small_eigenvalue_to_full_relative_precision(n, t):
    # diag(e^t, e^-t) with O(1) coupling: the small eigenvalue is about
    # e^-t (1 - |c|^2), far below the roundoff of the large one.
    couplings = 0.9 * np.exp(2j * np.pi * np.arange(n) / n) * np.linspace(0.1, 1.0, n)
    h = np.zeros((n, 2, 2), dtype=complex)
    h[:, 0, 0] = np.exp(t)
    h[:, 1, 1] = np.exp(-t)
    h[:, 0, 1] = couplings
    h[:, 1, 0] = np.conj(couplings)
    exact = []
    with mpmath.workdps(50):
        for p, q, c in zip(h[:, 0, 0].real, h[:, 1, 1].real, couplings):
            p, q, ac = mpmath.mpf(p), mpmath.mpf(q), abs(mpmath.mpc(c.real, c.imag))
            exact.append(float((p + q) / 2 - mpmath.sqrt(((p - q) / 2) ** 2 + ac ** 2)))
    exact = np.array(exact)
    for small in (la.eigh(h)[0][:, 0], la.eigvalsh(h)[:, 0]):
        assert np.abs(small / exact - 1.0).max() <= 1e-12
    # and the square root built from the decomposition is positive: no log(0)
    root, inv_root = la.sqrt_pair(h)
    assert np.all(np.isfinite(root)) and np.all(np.isfinite(inv_root))


@pytest.mark.parametrize("n", BATCHES)
def test_malformed_input_keeps_its_messages(n):
    good = broadcast([[2.0, 0.3], [0.3, 1.0]], n)
    indefinite = broadcast([[1.0, 2.0], [2.0, 1.0]], n)
    negative_diag = broadcast([[-1.0, 0.0], [0.0, 1.0]], n)
    nonfinite = good.copy()
    nonfinite[n // 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^metric field is not finite$"):
        la.scaled_sqrt(nonfinite)
    with pytest.raises(ValueError, match="^metric field is not finite$"):
        la.check_metric(nonfinite)
    for bad in (indefinite, negative_diag):
        with pytest.raises(ValueError, match="^metric field is not positive definite$"):
            la.scaled_sqrt(bad)
        with pytest.raises(ValueError, match="^metric field is not positive definite$"):
            la.check_metric(bad)
        with pytest.raises(ValueError, match="^field is not positive definite$"):
            la.sqrt_pair(bad)
    with pytest.raises(ValueError, match="^pulled-back metric is not positive definite$"):
        la.comparison_functions(la.scaled_sqrt(good), -2.0 * good)


@pytest.mark.parametrize("n", BATCHES)
def test_selfadjoint_part_from_the_shared_root(n):
    h = random_metric(bf.build_domain("circle", n, 1.0), 2, seed=5, amplitude=0.8)
    a = hermitian_batch(n, 6) + 0.7j * hermitian_batch(n, 7)
    expected = la.selfadjoint_part(a, h)
    got = la.selfadjoint_part(a, h, la.scaled_sqrt(h))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # H-self-adjoint: H S = (H S)^dag
    hs = h @ got
    assert np.abs(hs - la.dagger(hs)).max() <= 1e-13 * np.abs(hs).max()


def test_flow_diagnostics_agree_across_the_gate(monkeypatch):
    # A torus whose edge batches take the closed forms, against the same
    # computation with every batch sent to numpy/LAPACK.
    n = int(np.ceil(np.sqrt(la.SMALL_BATCH))) + 1
    dom, conn = torus_diag(n=n, length=1.0)
    k = random_metric(dom, 2, seed=8, amplitude=0.5)
    h = random_metric(dom, 2, seed=9, amplitude=0.5)

    def quantities():
        t = bf.tension(conn, h)
        step = la.metric_exp_update(h, t, 1e-2)
        return t, step, la.rel_eigvals(k, h), la.exp_hsa(t, h, 0.3)

    fast = quantities()
    monkeypatch.setattr(la, "SMALL_BATCH", 10 ** 9)
    for got, expected in zip(fast, quantities()):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _bottleneck_brute_force(a, b):
    gaps = np.abs(np.linalg.eigvals(a)[:, None] - np.linalg.eigvals(b)[None, :])
    rows = range(len(gaps))
    return min(max(gaps[i, p[i]] for i in rows) for p in itertools.permutations(rows))


def test_spectrum_distance_is_the_bottleneck_distance():
    # The sum-optimal assignment pairs 0-0 and 3-3e^{i theta} (gap 3.1); the
    # bottleneck matching pairs 0 with 3e^{i theta} and 3 with 0 (gap 3).
    theta = np.arccos(1.0 - 3.1 ** 2 / 18.0)
    assert la.spectrum_distance(np.diag([0.0, 3.0]),
                                np.diag([0.0, 3.0 * np.exp(1j * theta)])) == 3.0
    rng = np.random.default_rng(12)
    for trial in range(200):
        r = 1 + trial % 4
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        assert la.spectrum_distance(a, b) == _bottleneck_brute_force(a, b)


def test_import_leaves_scipy_optimize_out():
    # scipy.fft costs 75-105 ms of import; the implicit step's transforms use numpy.fft.
    code = ("import sys, bundleflow; "
            "print('scipy.optimize' in sys.modules, 'scipy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False False"
