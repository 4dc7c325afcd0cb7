import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundleflow as bf
from bundleflow import analysis
from bundleflow import linalg as la
from bundleflow.analysis import axis_loop

from util import (
    TWO_PI,
    circle_diag,
    identity_metric,
    random_metric,
    rough_random_metric,
    torus_diag,
)


# ----------------------------------------------------------------- distance


def test_donaldson_distance_examples():
    h = identity_metric(4, 2)
    field, sup = bf.donaldson_distance(h, h)
    assert sup == 0.0
    g = h.copy()
    g[2] = np.diag([2.0, 0.5])
    field, sup = bf.donaldson_distance(h, g)
    assert field[2] == pytest.approx(1.0)
    assert sup == pytest.approx(1.0)
    # nearby metrics: (e^eps - 1)^2 e^-eps + (e^-eps - 1)^2 e^eps = 4 (cosh eps - 1),
    # far below the roundoff of the trace form tr + tr - 2 rank
    eps = 1e-9
    g[2] = np.diag([np.exp(eps), np.exp(-eps)])
    assert bf.donaldson_distance(h, g)[1] == pytest.approx(2.0 * eps ** 2, rel=1e-6)
    with pytest.raises(ValueError):
        bf.donaldson_distance(h, identity_metric(5, 2))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_donaldson_distance_symmetric_nonnegative(seed):
    h = rough_random_metric(6, 2, seed)
    k = rough_random_metric(6, 2, seed + 1)
    f1, s1 = bf.donaldson_distance(h, k)
    f2, s2 = bf.donaldson_distance(k, h)
    assert np.abs(f1 - f2).max() < 1e-12 * (1.0 + s1)
    assert f1.min() > -1e-12


# ----------------------------------------------------------------- degrees


def test_degree_unitary_is_zero():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.4j), np.exp(-0.2j)])])
    assert abs(bf.degree(bf.split_metric(conn, identity_metric(dom.n_sites, 2)))) < 1e-10


def test_degree_total_and_lines_balance():
    dom = bf.build_domain("circle", 64, TWO_PI)
    conn = bf.from_monodromy(dom, [np.diag([4.0, 0.25]).astype(complex)])
    k = identity_metric(dom.n_sites, 2)
    sm = bf.split_metric(conn, k)
    total = bf.degree(sm)
    assert abs(total) < 1e-8
    subs = bf.invariant_subbundles(conn, k)
    degs = [bf.degree(sm, sub=s) for s in subs]
    # equal magnitude, opposite sign, additive to the total
    assert abs(degs[0] + degs[1] - total) < 1e-8
    # Each line bundle's degree is 0: on the closed circle the degree
    # integrand is a discrete divergence.
    oracle = 0.0
    h2 = dom.spacings[0] ** 2
    assert all(abs(d - oracle) < 10 * h2 + 1e-8 for d in degs)


def test_degree_rejects_noninvariant_sub():
    dom, conn = circle_diag(n=16, mu=4.0)
    k = identity_metric(dom.n_sites, 2)
    bad = bf.invariant_subbundles(
        conn, k, candidates=[np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)]
    )[0]
    assert bad.invariance_residual > 1e-3
    with pytest.raises(ValueError, match="invariant"):
        bf.degree(bf.split_metric(conn, k), sub=bad)


def test_stability_diagonal_is_strictly_semistable():
    dom, conn = circle_diag(n=32, mu=4.0)
    k = identity_metric(dom.n_sites, 2)
    subs = bf.invariant_subbundles(conn, k)
    rep = bf.stability_report(conn, k, subs)
    assert rep.verdict == "strictly_semistable"
    assert "verdict" in rep.to_text()


def test_stability_report_splits_the_reference_once(monkeypatch):
    # The total and both line degrees read one split of the reference, and
    # come out bit for bit as from a fresh split each.
    dom, conn = circle_diag(n=16, mu=4.0)
    k = random_metric(dom, 2, seed=7, amplitude=0.3)
    subs = bf.invariant_subbundles(conn, k)
    assert len(subs) == 2
    fresh = [bf.degree(bf.split_metric(conn, k), sub=s) for s in (None, *subs)]
    splits = []
    real = analysis.split_metric
    monkeypatch.setattr(analysis, "split_metric", lambda *args: splits.append(args) or real(*args))
    rep = bf.stability_report(conn, k, subs)
    assert len(splits) == 1
    assert [rep.total_degree, *(row.degree for row in rep.rows)] == fresh


def test_stability_jordan_single_witness():
    # The unique invariant line of the unipotent monodromy ties the total
    # slope in the continuum; at finite spacing its Chern-Weil degree sits
    # O(h^2) below zero, so the audit certifies the same verdict at every
    # resolution with a gap that shrinks at second order.
    verdicts, gaps = [], []
    for n in (24, 48):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        k = identity_metric(dom.n_sites, 2)
        subs = bf.invariant_subbundles(conn, k)
        assert len(subs) == 1
        rep = bf.stability_report(conn, k, subs)
        verdicts.append(rep.verdict)
        gaps.append(rep.rows[0].slope - rep.total_slope)
        assert rep.witness == 0
    assert verdicts[0] == verdicts[1]
    assert abs(np.log2(abs(gaps[0]) / abs(gaps[1])) - 2.0) < 0.3


def test_slope_bound_for_poisson_reference():
    # identity is a Poisson (indeed harmonic) metric for the spread diagonal
    # connection; every invariant sub-bundle obeys the slope bound.
    dom, conn = circle_diag(n=32, mu=2.0)
    k = identity_metric(dom.n_sites, 2)
    rep = bf.stability_report(conn, k, bf.invariant_subbundles(conn, k))
    tol = 1e-8 * (1.0 + abs(rep.total_degree))
    for row in rep.rows:
        assert row.slope <= rep.total_slope + tol


# ----------------------------------------------------------------- theta


def unit_frame(r: int):
    """The orthonormal frame (g, g^-1) of the identity metric."""
    return np.eye(r), np.eye(r)


def test_theta_apply_identity_at_zero():
    rng = np.random.default_rng(0)
    chi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = bf.theta_apply(np.zeros((3, 3)), chi, unit_frame(3))
    assert np.abs(out - chi).max() < 1e-12


def test_theta_apply_worked_entries():
    s = np.diag([0.0, np.log(2.0)]).astype(complex)
    chi = np.zeros((2, 2), dtype=complex)
    chi[1, 0] = 1.0  # component mapping the 0-eigenvector into the log2-eigenvector
    assert bf.theta_apply(s, chi, unit_frame(2))[1, 0] == pytest.approx(1.0 / np.log(2.0))
    chi2 = np.zeros((2, 2), dtype=complex)
    chi2[0, 1] = 1.0
    assert bf.theta_apply(s, chi2, unit_frame(2))[0, 1] == pytest.approx(1.0 / (2.0 * np.log(2.0)))


def test_theta_series_matches_quotient_near_diagonal():
    for gap in (1e-9, 1e-8, 1e-6):
        s = np.diag([0.0, gap]).astype(complex)
        chi = np.zeros((2, 2), dtype=complex)
        chi[1, 0] = 1.0
        got = bf.theta_apply(s, chi, unit_frame(2))[1, 0].real
        exact = np.expm1(gap) / gap
        assert abs(got - exact) < 1e-6 * exact


def test_theta_apply_rejects_non_self_adjoint():
    s = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="self-adjoint"):
        bf.theta_apply(s, np.eye(2, dtype=complex), unit_frame(2))


# ------------------------------------------------------------ identity checks


def test_identity_residuals_vanish_for_equal_metrics():
    dom, conn = torus_diag(n=8)
    h = random_metric(dom, 2, seed=1, amplitude=0.3)
    out = bf.identity_residuals(conn, h, h)
    assert np.abs(out["pointwise_residual"]).max() < 1e-12
    assert abs(out["integral_gap"]) < 1e-12


def test_identity_residuals_refinement_orders():
    point, gaps = [], []
    for n in (16, 32):
        dom = bf.build_domain("torus", (n, n), (TWO_PI, TWO_PI))
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.eye(2)])
        h = random_metric(dom, 2, seed=11, amplitude=0.35)
        k = random_metric(dom, 2, seed=12, amplitude=0.35)
        out = bf.identity_residuals(conn, h, k)
        point.append(np.abs(out["pointwise_residual"]).max())
        gaps.append(abs(out["integral_gap"]))
    assert 1.7 < np.log2(point[0] / point[1]) < 2.3
    assert 1.7 < np.log2(gaps[0] / gaps[1]) < 2.3


def test_identity_residuals_boundary_hypothesis():
    dom = bf.build_domain("rectangle", (12, 12), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    k = identity_metric(dom.n_sites, 2)
    x = dom.coords()
    bump = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    s = bump[:, None, None] * np.array([[0.3, 0.1j], [-0.1j, -0.3]])
    w, v = np.linalg.eigh(s)
    h = (v * np.exp(w)[..., None, :]) @ la.dagger(v)
    out = bf.identity_residuals(conn, h, k)
    assert abs(out["integral_gap"]) < 1.0
    # a non-vanishing boundary log is rejected
    h_bad = h.copy()
    h_bad[dom.boundary] = np.diag([2.0, 0.5])
    with pytest.raises(ValueError, match="boundary"):
        bf.identity_residuals(conn, h_bad, k)


# ----------------------------------------------------------------- alpha1


def test_alpha1_unitary_vanishes():
    dom = bf.build_domain("circle", 24, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.5j)])])
    loop = axis_loop(conn, 0)
    assert abs(bf.alpha1_period(conn, identity_metric(dom.n_sites, 1), loop)) < 1e-12


def test_alpha1_rank1_period_and_metric_independence():
    n = 64
    dom = bf.build_domain("circle", n, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[2.0]], dtype=complex)])
    loop = axis_loop(conn, 0)
    h_flat = identity_metric(n, 1)
    p1 = bf.alpha1_period(conn, h_flat, loop)
    assert p1 == pytest.approx(-np.log(2.0), abs=1e-12)
    rng = np.random.default_rng(7)
    h2 = np.exp(0.5 * np.sin(dom.coords()[:, 0]) + 0.1)[:, None, None].astype(complex)
    p2 = bf.alpha1_period(conn, h2, loop)
    assert abs(p1 - p2) < 1e-12


def test_alpha1_reversed_loop_flips_sign():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[3.0]], dtype=complex)])
    loop = axis_loop(conn, 0)
    h = identity_metric(16, 1)
    assert bf.alpha1_period(conn, h, loop[::-1]) == pytest.approx(
        -bf.alpha1_period(conn, h, loop), abs=1e-12
    )


def test_alpha1_rejects_non_adjacent_loop():
    dom, conn = circle_diag(n=16)
    h = identity_metric(16, 2)
    with pytest.raises(ValueError, match="adjacent"):
        bf.alpha1_period(conn, h, [0, 5, 0])
