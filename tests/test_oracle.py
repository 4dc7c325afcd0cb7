import numpy as np
import pytest

import bundleflow as bf

from util import TWO_PI, circle_diag, identity_metric, random_connection, rough_random_metric


def test_circle_harmonic_exact_diagonal():
    h = bf.circle_harmonic_exact(np.diag([2.0, 0.5]), TWO_PI, 40)
    assert np.allclose(h, np.eye(2), atol=1e-12)
    assert np.linalg.det(h[0]) == pytest.approx(1.0, abs=1e-12)
    dom, conn = circle_diag(n=40)
    assert np.abs(bf.tension(conn, h)).max() < 1e-10


def test_circle_harmonic_exact_unitary_is_identity():
    theta = np.exp(0.7j)
    h = bf.circle_harmonic_exact(np.diag([theta, np.conj(theta)]), 1.0, 16)
    assert np.allclose(h, np.eye(2), atol=1e-10)


def test_circle_harmonic_exact_nonnormal_is_stationary():
    m = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
    n = 48
    h = bf.circle_harmonic_exact(m, TWO_PI, n)
    dom = bf.build_domain("circle", n, TWO_PI)
    conn = bf.from_monodromy(dom, [m])
    assert np.abs(bf.tension(conn, h)).max() < 1e-10
    assert np.abs(np.linalg.det(h) - 1.0).max() < 1e-10


def test_circle_harmonic_exact_rejects_jordan():
    with pytest.raises(ValueError, match="diagonalizable|harmonic"):
        bf.circle_harmonic_exact(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0, 10)


def test_brute_force_matches_closed_form_tension():
    dom = bf.build_domain("circle", 24, TWO_PI)
    conn = random_connection(dom, 2, seed=17)
    h = rough_random_metric(dom.n_sites, 2, seed=18)
    t_closed = bf.tension(conn, h)
    t_brute = bf.brute_force_tension(conn, h)
    scale = np.abs(t_closed).max()
    assert np.abs(t_closed - t_brute).max() <= 1e-4 * scale


def test_brute_force_zero_for_unitary_identity():
    dom = bf.build_domain("circle", 10, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.3j), np.exp(-0.3j)])])
    t = bf.brute_force_tension(conn, identity_metric(dom.n_sites, 2))
    assert np.abs(t).max() < 1e-8


def test_brute_force_vanishes_at_oracle_metric():
    m = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
    dom = bf.build_domain("circle", 20, TWO_PI)
    conn = bf.from_monodromy(dom, [m])
    h = bf.circle_harmonic_exact(m, TWO_PI, 20)
    assert np.abs(bf.brute_force_tension(conn, h)).max() < 1e-6


def test_brute_force_rejects_large_instances():
    dom = bf.build_domain("torus", (40, 40), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.eye(2)])
    with pytest.raises(ValueError, match="large"):
        bf.brute_force_tension(conn, identity_metric(dom.n_sites, 2))
