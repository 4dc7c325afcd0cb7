"""The batched kernels behind linalg's entry points, on both sides of SMALL_BATCH.

Stacks of at least ``SMALL_BATCH`` 2 x 2 matrices take the closed forms,
smaller ones numpy/LAPACK; every case runs on one batch of each kind. The
one-matrix kernels that build the transports (``schur``, ``principal_log``,
``fractional_power``) are checked against ``scipy.linalg`` and exact values.
"""
import itertools
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg

import bundleflow as bf
from bundleflow import linalg as la

from util import random_metric, same_bits, torus_diag

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
    # the check of a good metric is its factorization
    for got, want in zip(la.check_metric(good), la.scaled_sqrt(good), strict=True):
        assert same_bits(got, want)


@pytest.mark.parametrize("n", BATCHES)
def test_selfadjoint_part_from_the_shared_root(n):
    h = random_metric(bf.build_domain("circle", n, 1.0), 2, seed=5, amplitude=0.8)
    a = hermitian_batch(n, 6) + 0.7j * hermitian_batch(n, 7)
    expected = 0.5 * (a + np.linalg.solve(h, la.dagger(a) @ h))    # the solve-based reference
    got = la.selfadjoint_part(a, h, la.scaled_sqrt(h))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # H-self-adjoint: H S = (H S)^dag
    hs = h @ got
    assert np.abs(hs - la.dagger(hs)).max() <= 1e-13 * np.abs(hs).max()


def graded_case(rank: int, t: float, n: int = 80):
    """A metric H = D Ht D, D = diag(e^t, (1,) e^-t), Ht random, and D's diagonal.

    80 sites: rank-2 stacks take the closed forms, rank-3 ones LAPACK.
    """
    rng = np.random.default_rng(rank + int(t))
    z = rng.normal(size=(n, rank, rank)) + 1j * rng.normal(size=(n, rank, rank))
    ht = z @ la.dagger(z) / rank + 0.5 * np.eye(rank)
    d = np.exp(t * np.linspace(1.0, -1.0, rank))
    return ht * (d[:, None] * d[None, :]), d, rng


def graded_field(rng, d, n):
    """D^{-1} B D for a random B: a field whose entries follow the grading of H."""
    r = len(d)
    b = rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))
    return b * (d[None, :] / d[:, None])


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("t", [0.0, 6.0, 12.0])
def test_frame_operations_match_solve_and_eigh_references(rank, t):
    # Every H-relative operation reads the scaled root or its frame (g, g^-1),
    # H = g^dag g. The references solve against the unit-diagonal part of H
    # and take eigh in a Cholesky frame, so they too hold at cond H = e^{4t}.
    h, d, rng = graded_case(rank, t)
    n = len(h)
    root = la.scaled_sqrt(h)
    frame = la.orthonormal_frame(root)
    s_h = np.sqrt(np.einsum("nii->ni", h).real)
    ht = h / (s_h[:, :, None] * s_h[:, None, :])

    def h_solve(y):      # H^-1 Y = S^-1 Ht^-1 S^-1 Y with S = diag(H)^1/2
        return np.linalg.solve(ht, y / s_h[:, :, None]) / s_h[:, :, None]

    lt = la.dagger(np.linalg.cholesky(ht))           # H = c^dag c with c = lt S
    eye = np.broadcast_to(np.eye(rank), h.shape)
    c = lt * s_h[:, None, :]
    c_inv = np.linalg.solve(lt, eye) / s_h[:, :, None]

    def scaled(x):       # D X D^-1: every entry of a graded field is O(1) there
        return x * (d[:, None] / d[None, :])

    def close(got, want):
        return np.abs(scaled(got - want)).max() <= 1e-13 * np.abs(scaled(want)).max()

    a, b, chi = (graded_field(rng, d, n) for _ in range(3))
    a_star, b_star = (h_solve(la.dagger(x) @ h) for x in (a, b))
    assert close(la.adjoint(a, frame), a_star)
    assert close(la.selfadjoint_part(a, h, root), 0.5 * (a + a_star))
    inner = np.einsum("nij,nji->n", a, b_star).real
    norms = np.sqrt(np.einsum("nij,nji->n", a, a_star).real
                    * np.einsum("nij,nji->n", b, b_star).real)
    assert np.all(np.abs(la.endo_inner(a, b, frame) - inner) <= 1e-13 * norms)
    assert np.allclose(la.endo_norm2(a, frame), np.einsum("nij,nji->n", a, a_star).real,
                       rtol=1e-13, atol=0.0)

    # An H-self-adjoint Q = H^-1 S for a Hermitian S = D (B + B^dag) D.
    sym = graded_field(rng, d, n) * d[:, None] ** 2
    q = h_solve(sym + la.dagger(sym))
    lam, v = np.linalg.eigh(la.hermitize(c @ q @ c_inv))
    p, p_inv = c_inv @ v, la.dagger(v) @ c
    expected = (p * np.exp(-0.3 * lam)[:, None, :]) @ p_inv
    assert close(la.exp_hsa(q, frame, -0.3), expected)
    dl = lam[:, :, None] - lam[:, None, :]
    weights = np.divide(np.expm1(dl), dl, out=np.ones_like(dl), where=dl != 0.0)
    expected = p @ (weights * (p_inv @ chi @ p)) @ p_inv
    assert close(bf.theta_apply(q, chi, frame), expected)


def specnorm_cases(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q = np.linalg.qr(z)[0]
    return {
        "random": z,
        "graded": z * np.array([1e8, 1e-8]),             # columns of norm 1e8 and 1e-8
        "near_unitary": q + 1e-9 * z,
        "scaled": 1e-150 * z,
        "zero": np.zeros_like(z),
        "rank3": rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)),
    }


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("case", ["random", "graded", "near_unitary", "scaled", "zero", "rank3"])
def test_specnorm_matches_lapack(n, case):
    a = specnorm_cases(n, 10)[case]
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        got = la.specnorm(a)
    expected = np.linalg.norm(a, ord=2, axis=(-2, -1))
    assert got.shape == (n,)
    assert np.all(np.abs(got - expected) <= 8 * np.finfo(float).eps * expected)


def test_specnorm_of_one_matrix_is_0d():
    a = specnorm_cases(1, 11)["random"][0]
    got = la.specnorm(a)
    expected = np.linalg.norm(a, ord=2)
    assert np.ndim(got) == 0
    assert abs(got - expected) <= 8 * np.finfo(float).eps * expected


def test_flow_diagnostics_agree_across_the_gate(monkeypatch):
    # A torus whose edge batches take the closed forms, against the same
    # computation with every batch sent to numpy/LAPACK.
    n = int(np.ceil(np.sqrt(la.SMALL_BATCH))) + 1
    dom, conn = torus_diag(n=n, length=1.0)
    k = random_metric(dom, 2, seed=8, amplitude=0.5)
    h = random_metric(dom, 2, seed=9, amplitude=0.5)

    def quantities():
        t = bf.tension(conn, h)
        root = la.check_metric(h)
        step = la.metric_exp_update(t, 1e-2, root)
        eigs = la.rel_eigvals(h, la.orthonormal_frame(la.check_metric(k))[1])
        return t, step, eigs, la.exp_hsa(t, la.orthonormal_frame(root), 0.3)

    fast = quantities()
    monkeypatch.setattr(la, "SMALL_BATCH", 10 ** 9)
    for got, expected in zip(fast, quantities()):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n", [24 * 24, 17 * 19, 48 * 11, 2 * 96 + 5])
def test_site_kernels_in_tiles_keep_every_bit(monkeypatch, n):
    # Tiles of 96 sites against one tile, on the site counts of the tiled
    # split tests and on 2 TILE + 5 sites: balanced, that is three tiles of
    # 65 or 66 sites; cut as 96 + 96 + 5, the last tile would fall below
    # SMALL_BATCH, leave the closed forms and change bits.
    dom = bf.build_domain("circle", n, 1.0)
    k = random_metric(dom, 2, seed=8, amplitude=0.5)
    h = random_metric(dom, 2, seed=9, amplitude=0.8)
    q = la.selfadjoint_part(hermitian_batch(n, 6) + 0.7j * hermitian_batch(n, 7), h,
                            la.scaled_sqrt(h))

    def results() -> list:
        root = la.check_metric(h)
        g_inv = la.orthonormal_frame(la.check_metric(k))[1]
        return [*root, *la.sqrt_pair(h), la.selfadjoint_part(q, h, root),
                la.metric_exp_update(q, 0.3, root), g_inv, la.rel_eigvals(h, g_inv),
                la.exp_hsa(q, la.orthonormal_frame(root), -0.2)]

    monkeypatch.setattr(la, "TILE", 10 ** 9)
    whole = results()
    monkeypatch.setattr(la, "TILE", 96)
    for got, want in zip(results(), whole, strict=True):
        assert same_bits(got, want)


def test_tiles_are_balanced_and_write_into_the_given_rows(monkeypatch):
    monkeypatch.setattr(la, "TILE", 96)
    sizes = []

    def rows(x):
        sizes.append(len(x))
        return 2.0 * x, -x

    x = np.arange(197.0)
    double, minus = la.tiled(rows, x)
    assert sizes == [65, 66, 66]
    assert np.array_equal(double, 2.0 * x) and np.array_equal(minus, -x)
    # Up to TILE sites and no ``out``: one call on the stack itself.
    small = x[:96]
    assert la.tiled(lambda y: y, small) is small
    # Into the rows ``at`` of given arrays; None passes through.
    out = np.zeros(300)
    at = np.arange(197) + 50

    def thrice(y, none):
        assert none is None and len(y) in (65, 66)
        return (3.0 * y,)

    got = la.tiled(thrice, x, None, out=(out,), at=at)
    assert got[0] is out and np.array_equal(out[at], 3.0 * x) and not out[:50].any()


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


def _matrix(rng, r: int) -> np.ndarray:
    """A seeded complex r x r matrix with condition number at most 10."""
    while True:
        m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) + 2.0 * np.eye(r)
        if np.linalg.cond(m) < 10.0:
            return m


def _close(got, expected, rtol=1e-12):
    return np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_schur_log_exp_and_power_match_scipy(r):
    rng = np.random.default_rng(40 + r)
    for _ in range(10):
        m = _matrix(rng, r)
        q, t = la.schur(m)
        assert np.array_equal(t, np.triu(t))
        assert _close(la.dagger(q) @ q, np.eye(r), 1e-14)
        assert _close(q @ t @ la.dagger(q), m)
        ref_t = scipy.linalg.schur(m, output="complex")[0]
        assert _close(np.sort_complex(np.diag(t)), np.sort_complex(np.diag(ref_t)))
        assert _close(la.principal_log(m), scipy.linalg.logm(m))
        a = 0.5 * m
        assert _close(la.fractional_power(m, 1.0, log=a), scipy.linalg.expm(a))
        for p in (1.0 / 16, 0.3, -0.5):
            assert _close(la.fractional_power(m, p), scipy.linalg.fractional_matrix_power(m, p))


def test_transports_near_the_identity_are_rounded_once():
    # A per-edge transport M^(1/n) lies near I, and a rounding of its O(1)
    # diagonal counts with 1/h^2 in the residuals; the Pade step adds I to
    # its small part once, so each entry is within 3/4 ulp of the 50-digit
    # power (torus-higgs's generators: S diag(mu, 1/mu) S^-1, 128 sites).
    rng = np.random.default_rng(7)
    for mu in (2.0, 3.0, 1.5):
        s = rng.normal(size=(2, 2))
        m = s @ np.diag([mu, 1.0 / mu]) @ np.linalg.solve(s, np.eye(2))
        got = la.fractional_power(m.astype(complex), 1.0 / 128)
        with mpmath.workdps(50):
            w, v = mpmath.eig(mpmath.matrix(m.tolist()))
            exact = v * mpmath.diag([ev ** mpmath.mpf(1.0 / 128) for ev in w]) * mpmath.inverse(v)
            exact = np.array(exact.tolist(), dtype=complex)
        ulp = np.spacing(np.abs(exact).max())
        assert np.abs(got - exact).max() <= 0.75 * ulp


def test_log_reads_the_same_bits_from_its_cached_nodes(monkeypatch):
    # The Gauss-Legendre nodes are computed once per order; the log is the
    # same to the bit as with nodes computed afresh on each call. On the
    # transport generators above: the seeded matrices, torus-higgs's and the
    # Jordan block.
    rng, seeded = np.random.default_rng(7), []
    for mu in (2.0, 3.0, 1.5):
        s = rng.normal(size=(2, 2))
        seeded.append(s @ np.diag([mu, 1.0 / mu]) @ np.linalg.solve(s, np.eye(2)))
    for r in (2, 3, 4):
        rng = np.random.default_rng(40 + r)
        seeded += [_matrix(rng, r) for _ in range(10)]
    gens = [m.astype(complex) for m in seeded + [np.array([[1.0, 1.0], [0.0, 1.0]]),
                                                   np.diag([4.0, 1.0, 0.25])]]
    cached = [la.principal_log(m).tobytes() for m in gens]
    assert [la.principal_log(m).tobytes() for m in gens] == cached
    assert la._legendre.cache_info().currsize >= 2
    monkeypatch.setattr(la, "_legendre", np.polynomial.legendre.leggauss)
    assert [la.principal_log(m).tobytes() for m in gens] == cached


def test_schur_keeps_a_triangular_matrix_as_it_is():
    m = np.triu(_matrix(np.random.default_rng(3), 3))
    q, t = la.schur(m)
    assert np.array_equal(q, np.eye(3)) and np.array_equal(t, m)


@pytest.mark.parametrize("m", [np.diag([2.0, 0.5]), np.diag([4.0, 1.0, 0.25])])
@pytest.mark.parametrize("t", [1.0 / 16, 1.0 / 48, 1.0 / 128])
def test_diagonal_powers_are_exact(m, t):
    expected = np.diag(np.exp(t * np.log(np.diag(m).astype(complex))))
    got = la.fractional_power(m.astype(complex), t)
    assert got.tobytes() == expected.tobytes()


def test_jordan_power_is_exact():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert la.principal_log(jordan).tobytes() == np.array([[0, 1], [0, 0]], dtype=complex).tobytes()
    expected = np.array([[1.0, 0.0625], [0.0, 1.0]], dtype=complex)
    assert la.fractional_power(jordan, 1.0 / 16).tobytes() == expected.tobytes()


def test_log_refuses_singular_and_negative_axis_spectra():
    with pytest.raises(ValueError, match="^matrix is singular; no logarithm$"):
        la.principal_log(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="nonpositive real axis"):
        la.principal_log(np.diag([-2.0, 1.0]))
    with pytest.raises(ValueError, match="nonpositive real axis"):
        la.fractional_power(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    # A non-finite entry is refused before the scaling and squaring, which would not end.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^matrix is not finite; no logarithm$"):
            la.principal_log(np.array([[1.0, 0.0], [0.0, bad]]))


def test_bundleflow_runs_without_scipy():
    # numpy carries every kernel; importing scipy would double the set-up time.
    code = """
import sys
import numpy as np
import bundleflow as bf
from bundleflow import analysis, linalg as la
circle = bf.build_domain("circle", 16, 1.0)
jordan = bf.from_monodromy(circle, [np.array([[1.0, 1.0], [0.0, 1.0]])])
torus = bf.build_domain("torus", (6, 6), (1.0, 1.0))
s = np.array([[1.0, 0.5], [0.2, 1.0]])
bf.from_monodromy(torus, [s @ np.diag([m, 1 / m]) @ np.linalg.solve(s, np.eye(2))
                          for m in (2.0, 3.0)])
metric = np.broadcast_to(np.diag([1.0, 1e-3]), (16, 2, 2)).astype(complex)
analysis.runaway_certificate(jordan, np.broadcast_to(np.eye(2), (16, 2, 2)), metric)
la.spectrum_distance(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
