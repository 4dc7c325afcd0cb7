import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.analysis import axis_loop, theta_apply_pair

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
    assert abs(bf.degree(conn, identity_metric(dom.n_sites, 2))) < 1e-10


def test_degree_total_and_lines_balance():
    dom = bf.build_domain("circle", 64, TWO_PI)
    conn = bf.from_monodromy(dom, [np.diag([4.0, 0.25]).astype(complex)])
    k = identity_metric(dom.n_sites, 2)
    total = bf.degree(conn, k)
    assert abs(total) < 1e-8
    subs = bf.invariant_subbundles(conn, k)
    degs = [bf.degree(conn, k, sub=s) for s in subs]
    # equal magnitude, opposite sign, additive to the total
    assert abs(degs[0] + degs[1] - total) < 1e-8
    oracle = bf.circle_rank1_degree(4.0, TWO_PI)
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
        bf.degree(conn, k, sub=bad)


def test_stability_diagonal_is_strictly_semistable():
    dom, conn = circle_diag(n=32, mu=4.0)
    k = identity_metric(dom.n_sites, 2)
    subs = bf.invariant_subbundles(conn, k)
    rep = bf.stability_report(conn, k, subs)
    assert rep.verdict == "strictly_semistable"
    assert "verdict" in rep.to_text()


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


def test_theta_apply_identity_at_zero():
    rng = np.random.default_rng(0)
    chi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = bf.theta_apply(np.zeros((3, 3)), chi)
    assert np.abs(out - chi).max() < 1e-12


def test_theta_apply_worked_entries():
    s = np.diag([0.0, np.log(2.0)]).astype(complex)
    chi = np.zeros((2, 2), dtype=complex)
    chi[1, 0] = 1.0  # component mapping the 0-eigenvector into the log2-eigenvector
    assert bf.theta_apply(s, chi)[1, 0] == pytest.approx(1.0 / np.log(2.0))
    chi2 = np.zeros((2, 2), dtype=complex)
    chi2[0, 1] = 1.0
    assert bf.theta_apply(s, chi2)[0, 1] == pytest.approx(1.0 / (2.0 * np.log(2.0)))


def test_theta_series_matches_quotient_near_diagonal():
    for gap in (1e-9, 1e-8, 1e-6):
        s = np.diag([0.0, gap]).astype(complex)
        chi = np.zeros((2, 2), dtype=complex)
        chi[1, 0] = 1.0
        got = bf.theta_apply(s, chi)[1, 0].real
        exact = np.expm1(gap) / gap
        assert abs(got - exact) < 1e-6 * exact


def test_theta_apply_rejects_non_self_adjoint():
    s = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="self-adjoint"):
        bf.theta_apply(s, np.eye(2, dtype=complex))


def test_theta_pair_reproduces_discrete_difference_identity():
    """(h(y) - h(x)) h(x)^{-1} = Theta[s(x), s(y)](s(y) - s(x)) exactly on a
    commuting family."""
    rng = np.random.default_rng(3)
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    lam_x = np.array([0.3, -0.2, 1.1])
    lam_y = np.array([0.7, -0.5, 0.9])
    sx = frame @ np.diag(lam_x) @ la.dagger(frame)
    sy = frame @ np.diag(lam_y) @ la.dagger(frame)
    hx = frame @ np.diag(np.exp(lam_x)) @ la.dagger(frame)
    hy = frame @ np.diag(np.exp(lam_y)) @ la.dagger(frame)
    lhs = (hy - hx) @ np.linalg.inv(hx)
    rhs = theta_apply_pair(sx, sy, sy - sx)
    assert np.abs(lhs - rhs).max() < 1e-10


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


# ----------------------------------------------------------------- polystable


def test_polystable_split_scaled_metric_single_block():
    dom, conn = circle_diag(n=16)
    h = random_metric(dom, 2, seed=2, amplitude=0.3)
    out = bf.polystable_split(conn, h, 3.0 * h)
    assert out is not None and len(out) == 1
    assert out[0].rank == 2


def test_polystable_split_recovers_blocks():
    dom, conn = circle_diag(n=16)
    h = identity_metric(dom.n_sites, 2)
    other = np.broadcast_to(np.diag([1.0, 2.5]), (dom.n_sites, 2, 2)).astype(complex).copy()
    out = bf.polystable_split(conn, h, other)
    assert out is not None and len(out) == 2
    assert sorted(s.rank for s in out) == [1, 1]
    assert all(s.invariance_residual < 1e-10 for s in out)


def test_polystable_split_generic_returns_none():
    dom, conn = circle_diag(n=16)
    h = identity_metric(dom.n_sites, 2)
    other = rough_random_metric(dom.n_sites, 2, seed=5)
    assert bf.polystable_split(conn, h, other) is None


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


# ----------------------------------------------------------------- parabolic


def test_bochner_residual_unitary_zero():
    dom = bf.build_domain("torus", (8, 8), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.3j), 1.0]), np.eye(2)])
    h = identity_metric(dom.n_sites, 2)
    res = bf.bochner_residual(conn, (h, h, h), dt=1e-3)
    assert res < 1e-12


def test_bochner_residual_stationary_state():
    dom, conn = circle_diag(n=32)
    h = identity_metric(dom.n_sites, 2)
    res = bf.bochner_residual(conn, (h, h, h), dt=1e-3)
    assert res < 1e-10


def test_bochner_residual_rank1_scalar_reduction():
    vals = []
    for n in (24, 48):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.array([[2.0]], dtype=complex)])
        x = dom.coords()[:, 0]
        h = np.exp(0.4 * np.sin(x))[:, None, None].astype(complex)
        dt = 1e-4
        snaps = [h]
        cur = h
        for _ in range(2):
            t = bf.tension(conn, cur)
            cur = la.metric_exp_update(cur, t, 2.0 * dt)
            snaps.append(cur)
        vals.append(bf.bochner_residual(conn, tuple(snaps), dt))
    assert vals[1] < vals[0]
    assert vals[0] < 0.2


def test_bochner_residual_splits_each_snapshot_once(monkeypatch):
    # The split at H(t) gives |psi|^2 and, with its metric transports, grad psi.
    dom, conn = circle_diag(n=12)
    snaps = tuple(random_metric(dom, 2, seed=s, amplitude=0.3) for s in (1, 2, 3))
    split_at = []
    real = bf.analysis.split_metric

    def counted(c, metric):
        split_at.append(metric)
        return real(c, metric)

    monkeypatch.setattr(bf.analysis, "split_metric", counted)
    bf.bochner_residual(conn, snaps, dt=1e-3)
    assert len(split_at) == 3
    assert all(np.array_equal(a, b) for a, b in zip(split_at, snaps))


def test_bochner_rejects_misaligned_snapshots():
    dom, conn = circle_diag(n=8)
    h = identity_metric(8, 2)
    with pytest.raises(ValueError):
        bf.bochner_residual(conn, (h, h[:4], h), dt=0.1)
