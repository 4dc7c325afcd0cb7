import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.bundle import covariant_laplacian, reverse_edge_values

from util import (
    TWO_PI,
    circle_diag,
    delta_operator,
    identity_metric,
    random_connection,
    random_gauge,
    random_metric,
    rough_random_metric,
    seam_gauge_circle,
    section_derivative,
    torus_diag,
)


# ----------------------------------------------------------------- monodromy


def test_from_monodromy_splits_diagonal_evenly():
    dom, conn = circle_diag(n=10)
    expected = np.diag([2.0 ** 0.1, 2.0 ** -0.1])
    assert np.allclose(conn.transport[0, 3], expected, atol=1e-13)


def test_from_monodromy_commuting_torus_is_flat():
    dom = bf.build_domain("torus", (6, 6), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 1.0]), np.diag([1.0, 3.0])])
    assert bf.flatness_residual(conn) < 1e-12


def test_from_monodromy_rejects_noncommuting():
    dom = bf.build_domain("torus", (6, 6), (1.0, 1.0))
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="commute"):
        bf.from_monodromy(dom, [a, b])


def test_from_monodromy_rejects_singular_and_negative_axis():
    dom = bf.build_domain("circle", 8, 1.0)
    with pytest.raises(ValueError, match="singular"):
        bf.from_monodromy(dom, [np.diag([0.0, 1.0])])
    with pytest.raises(ValueError, match="logarithm"):
        bf.from_monodromy(dom, [np.diag([-2.0, 1.0])])
    # explicit branch makes it work
    log = np.diag([np.log(2.0) + 1j * np.pi, 0.0])
    conn = bf.from_monodromy(dom, [np.diag([-2.0, 1.0])], logs=[log])
    assert bf.flatness_residual(conn) < 1e-10


def test_from_monodromy_transports_are_reproducible():
    # The transports of a non-normal generator must be a pure function of it:
    # the same bits on every call, whatever the state of numpy's global
    # generator, which building them leaves as it was.
    rng = np.random.default_rng(62)
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gen = s @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(s)
    dom = bf.build_domain("circle", 12, 1.0)
    first = bf.from_monodromy(dom, [gen]).transport
    np.random.seed(2024)
    for _ in range(12):
        np.random.random(5)
        assert np.array_equal(bf.from_monodromy(dom, [gen]).transport, first)
    np.random.seed(5)
    expected = np.random.random(3)
    np.random.seed(5)
    bf.from_monodromy(dom, [gen])
    assert np.array_equal(np.random.random(3), expected)


def test_from_monodromy_needs_rank_on_bounded_domains():
    dom = bf.build_domain("rectangle", (5, 5), (1.0, 1.0))
    with pytest.raises(ValueError, match="rank"):
        bf.from_monodromy(dom, [])
    for rank in (0, -1):
        with pytest.raises(ValueError, match=f"^rank must be 1 or more, got {rank}$"):
            bf.from_monodromy(dom, [], rank=rank)
    conn = bf.from_monodromy(dom, [], rank=2)
    assert conn.rank == 2


# ----------------------------------------------------------------- flatness


def test_flatness_residual_detects_edge_perturbation():
    dom, conn = torus_diag(n=8)
    eps = 1e-3
    t = conn.transport.copy()
    t[0, 11] = t[0, 11] @ np.diag([1.0 + eps, 1.0])
    perturbed = bf.connection_from_transports(dom, t, conn.loops)
    res = bf.flatness_residual(perturbed)
    assert res == pytest.approx(eps, rel=0.2)


def test_flatness_residual_gauge_invariant():
    dom, conn = torus_diag(n=6)
    g = random_gauge(dom.n_sites, 2, seed=1, scale=0.25)
    moved = bf.gauge_transform(conn, g)
    assert abs(bf.flatness_residual(moved) - bf.flatness_residual(conn)) < 1e-10


# ----------------------------------------------------------------- covariant d


def test_covariant_d_kills_identity():
    dom, conn = circle_diag()
    f = identity_metric(dom.n_sites, 2)
    assert np.abs(bf.covariant_d(conn, f)).max() < 1e-14


def test_covariant_d_scalar_derivative_after_centering():
    errs = []
    for n in (32, 64):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.eye(2, dtype=complex)])
        x = dom.coords()[:, 0]
        f = np.cos(x)[:, None, None] * np.eye(2)
        d = bf.centered_components(conn, bf.covariant_d(conn, f))
        expected = -np.sin(x)[:, None, None] * np.eye(2)
        errs.append(np.abs(d[0] - expected).max())
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_one_form_transport_antisymmetry_of_psi():
    """The splitting one-form satisfies the reverse-edge rule identically."""
    dom, conn = circle_diag(n=16)
    h = rough_random_metric(dom.n_sites, 2, seed=4)
    sm = bf.split_metric(conn, h)
    # recompute psi on explicitly reversed edges and compare with the rule
    rev = reverse_edge_values(conn, sm.psi)
    for x in range(dom.n_sites):
        y = int(dom.neighbors[0, 1, x])  # left neighbour; edge (x -> y) is a reverse edge
        u = conn.transport[0, y]
        pulled = la.dagger(np.linalg.inv(u)) @ h[y] @ np.linalg.inv(u)
        hx = h[x][None]
        logp = la.comparison_functions(la.scaled_sqrt(hx), pulled[None] - hx)[0]
        psi_rev = -logp[0] / (2.0 * dom.spacings[0])
        assert np.abs(psi_rev - rev[0, x]).max() < 1e-10


# ----------------------------------------------------------------- splitting


def test_split_unitary_identity_gives_zero_psi():
    dom = bf.build_domain("circle", 20, 1.0)
    theta = np.exp(1j * 0.3)
    conn = bf.from_monodromy(dom, [np.diag([theta, np.conj(theta)])])
    h = identity_metric(dom.n_sites, 2)
    sm = bf.split_metric(conn, h)
    assert np.abs(sm.psi).max() < 1e-13


def test_split_seam_gauge_exponential_profile():
    n, mu = 40, 2.0
    dom, conn = seam_gauge_circle(n, TWO_PI, mu)
    x = dom.coords()[:, 0]
    h = np.exp(2.0 * np.log(mu) * x / TWO_PI)[:, None, None].astype(complex)
    sm = bf.split_metric(conn, h)
    assert np.allclose(sm.psi[0, :, 0, 0], -np.log(mu) / TWO_PI, atol=1e-12)


def test_split_scale_invariance():
    dom, conn = circle_diag(n=12)
    h = rough_random_metric(dom.n_sites, 2, seed=9)
    a = bf.split_metric(conn, h).psi
    b = bf.split_metric(conn, 3.7 * h).psi
    assert np.abs(a - b).max() < 1e-12


def test_metric_transport_is_exact_isometry_and_recomposes():
    dom, conn = circle_diag(n=24)
    h = rough_random_metric(dom.n_sites, 2, seed=2)
    sm = bf.split_metric(conn, h)
    tails, heads = conn.edge_sites(0)
    v = sm.connection.transport[0, tails]
    assert np.abs(sm.connection.transport_inv[0, tails] @ v - np.eye(2)).max() < 1e-12
    pulled = la.dagger(v) @ h[heads] @ v
    assert np.abs(pulled - h[tails]).max() < 1e-11
    # U = V exp(-h psi) exactly
    recomposed = v @ la.exp_hsa(sm.psi[0, tails], h[tails], -dom.spacings[0])
    assert np.abs(recomposed - conn.transport[0, tails]).max() < 1e-11


def test_split_psi_is_exactly_self_adjoint():
    dom, conn = torus_diag(n=6)
    h = rough_random_metric(dom.n_sites, 2, seed=8)
    sm = bf.split_metric(conn, h)
    for a in range(2):
        adj = np.linalg.solve(h, la.dagger(sm.psi[a]) @ h)
        assert np.abs(adj - sm.psi[a]).max() < 1e-11


def test_split_rejects_nonpositive_metric():
    dom, conn = circle_diag(n=8)
    h = identity_metric(dom.n_sites, 2)
    h[3, 0, 0] = -1.0
    with pytest.raises(ValueError):
        bf.split_metric(conn, h)


# ------------------------------------------------------------- codifferential


def test_codifferential_of_zero():
    dom, conn = circle_diag(n=10)
    h = identity_metric(dom.n_sites, 2)
    omega = np.zeros((1, dom.n_sites, 2, 2), dtype=complex)
    assert np.abs(bf.codifferential(conn, h, omega)).max() == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_codifferential_exact_adjointness(seed):
    dom, conn = torus_diag(n=5, length=1.0)
    rng = np.random.default_rng(seed)
    h = rough_random_metric(dom.n_sites, 2, seed=seed)
    sigma = rng.normal(size=(dom.n_sites, 2, 2)) + 1j * rng.normal(size=(dom.n_sites, 2, 2))
    omega = rng.normal(size=(2, dom.n_sites, 2, 2)) + 1j * rng.normal(
        size=(2, dom.n_sites, 2, 2)
    )
    d_sigma = section_derivative(conn, h, sigma)
    lhs = 0.0
    for a in range(2):
        lhs += np.sum(dom.edge_weight[a] * la.endo_inner(d_sigma[a], omega[a], h))
    cod = bf.codifferential(conn, h, omega)
    rhs = np.sum(dom.volume * la.endo_inner(sigma, cod, h))
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_codifferential_scalar_derivative():
    errs = []
    for n in (32, 64):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.eye(2, dtype=complex)])
        h = identity_metric(dom.n_sites, 2)
        x = dom.coords()[:, 0]
        mid = x + dom.spacings[0] / 2.0
        omega = np.zeros((1, dom.n_sites, 2, 2), dtype=complex)
        omega[0] = np.sin(mid)[:, None, None] * np.eye(2)
        out = bf.codifferential(conn, h, omega)
        errs.append(np.abs(out + np.cos(x)[:, None, None] * np.eye(2)).max())
    assert np.log2(errs[0] / errs[1]) > 1.7


@pytest.mark.parametrize("rank", [2, 3])
def test_covariant_laplacian_is_the_codifferential_of_the_metric_difference(rank):
    # In the H-orthonormal frame the operator acts as M codifferential(D_V S)
    # on fields S that vanish on the boundary, it is symmetric under
    # Re tr(a b), and its quadratic form is the edge sum of |D_V S|_H^2.
    dom = bf.build_domain("annulus", (7, 5), (TWO_PI, 1.0))
    conn = random_connection(dom, rank, seed=3)
    h = random_metric(dom, rank, seed=4, amplitude=0.4)
    root = la.scaled_sqrt(h)
    sm = bf.split_metric(conn, h, root)
    g, g_inv = la.orthonormal_frame(root)
    lap = covariant_laplacian(sm.connection, (g, g_inv))
    rng = np.random.default_rng(5)
    x, y = (la.hermitize(rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
            for _ in range(2))
    x[dom.boundary] = y[dom.boundary] = 0.0
    lx = lap(x)
    assert np.abs(lx[dom.boundary]).max() == 0.0
    assert np.vdot(y, lx).real == pytest.approx(np.vdot(lap(y), x).real, rel=1e-12)
    s = g_inv @ x @ g
    d_s = bf.covariant_d(sm.connection, s)
    form = sum(np.sum(dom.edge_weight[a] * la.endo_norm2(d_s[a], h))
               for a in range(dom.dim))
    assert np.vdot(x, lx).real == pytest.approx(form, rel=1e-12)
    inner = dom.interior_mask()
    cod = bf.codifferential(conn, h, d_s, sm)[inner]
    want = dom.volume[inner][:, None, None] * (g[inner] @ cod @ g_inv[inner])
    assert np.abs(lx[inner] - want).max() <= 1e-11 * np.abs(want).max()


# ----------------------------------------------------------------- tension


def test_tension_zero_for_unitary_identity():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.4j), np.exp(-0.4j)])])
    t = bf.tension(conn, identity_metric(dom.n_sites, 2))
    assert np.abs(t).max() < 1e-12


def test_tension_rank1_uniform_state_is_stationary():
    # Evenly-spread monodromy with a constant metric is an exact critical
    # point of the edge energy; the brute-force gradient agrees.
    dom = bf.build_domain("circle", 20, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[2.0]], dtype=complex)])
    h = identity_metric(dom.n_sites, 1)
    assert np.abs(bf.tension(conn, h)).max() == 0.0
    assert np.abs(bf.brute_force_tension(conn, h)).max() < 1e-9


def test_tension_seam_gauge_exponential_is_harmonic():
    dom, conn = seam_gauge_circle(32, TWO_PI, 2.0)
    x = dom.coords()[:, 0]
    h = np.exp(2.0 * np.log(2.0) * x / TWO_PI)[:, None, None].astype(complex)
    assert np.abs(bf.tension(conn, h)).max() < 1e-12


def test_tension_is_exactly_self_adjoint():
    dom, conn = torus_diag(n=6)
    h = rough_random_metric(dom.n_sites, 2, seed=3)
    t = bf.tension(conn, h)
    assert np.abs(la.dagger(t) @ h - h @ t).max() < 1e-10 * np.abs(h).max()


def test_gauge_covariance_of_tension_and_diagnostics():
    dom, conn = circle_diag(n=20)
    h = random_metric(dom, 2, seed=5, amplitude=0.4)
    g = random_gauge(dom.n_sites, 2, seed=11, scale=0.3)
    conn_g = bf.gauge_transform(conn, g)
    h_g = bf.gauge_transform_metric(h, g)
    t = bf.tension(conn, h)
    t_g = bf.tension(conn_g, h_g)
    conjugated = np.linalg.solve(g, t @ g)
    assert np.abs(t_g - conjugated).max() < 1e-9
    # scalar diagnostics are gauge invariant
    assert abs(bf.energy(conn, h) - bf.energy(conn_g, h_g)) < 1e-10 * (1 + bf.energy(conn, h))
    norm = np.sqrt(la.endo_norm2(t, h))
    norm_g = np.sqrt(la.endo_norm2(t_g, h_g))
    assert np.abs(norm - norm_g).max() < 1e-9


def test_delta_operator_conjugation_identity():
    """delta_H = h^{-1} o delta_K o h on sections, to second order."""
    gaps = []
    for n in (24, 48):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
        k = random_metric(dom, 2, seed=13, amplitude=0.3)
        h = random_metric(dom, 2, seed=14, amplitude=0.3)
        h_rel = np.linalg.solve(k, h)
        x = dom.coords()[:, 0]
        sec = np.exp(1j * x)[:, None] * np.array([1.0, 0.5j])

        sm_h = bf.split_metric(conn, h)
        sm_k = bf.split_metric(conn, k)
        lhs = bf.centered_components(sm_h.connection, delta_operator(conn, h, sec, sm_h))
        hs = np.einsum("nij,nj->ni", h_rel, sec)
        rhs_raw = bf.centered_components(sm_k.connection, delta_operator(conn, k, hs, sm_k))
        # conjugate back through h at the site
        h_inv = np.linalg.inv(h_rel)
        rhs = np.einsum("nij,anj->ani", h_inv, rhs_raw)
        gaps.append(np.abs(lhs - rhs).max())
    assert np.log2(gaps[0] / gaps[1]) > 1.5


def test_psi_time_derivative_formula():
    """d psi/dt along a metric path matches the commutator formula."""
    gaps = []
    for n in (24, 48):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
        h = random_metric(dom, 2, seed=21, amplitude=0.3)
        v = random_metric(dom, 2, seed=22, amplitude=0.2)  # Hermitian-positive; use its log
        w = np.linalg.eigvalsh(v)
        direction = np.linalg.solve(h, 0.5 * (v + la.dagger(v)) - np.eye(2) * np.mean(w))
        direction = la.selfadjoint_part(direction, h)
        dt = 1e-5
        h_plus = la.metric_exp_update(h, direction, dt)
        h_minus = la.metric_exp_update(h, direction, -dt)
        dpsi = (bf.psi_centered(conn, h_plus) - bf.psi_centered(conn, h_minus)) / (2 * dt)
        sm = bf.split_metric(conn, h)
        dv = section_derivative(conn, h, direction)
        dv_c = bf.centered_components(sm.connection, dv)
        psic = bf.psi_centered(conn, h, sm)
        expected = np.zeros_like(dpsi)
        for a in range(dom.dim):
            expected[a] = -0.5 * dv_c[a] + 0.5 * la.commutator(psic[a], direction)
        gaps.append(np.abs(dpsi - expected).max())
    assert gaps[0] < 0.05
    assert np.log2(gaps[0] / gaps[1]) > 1.5


# --------------------------------------------------------- invariant subspaces


def test_invariant_subbundles_diagonal_lines():
    dom, conn = circle_diag(n=16)
    subs = bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 2))
    assert len(subs) == 2
    for s in subs:
        assert s.rank == 1
        assert s.invariance_residual < 1e-8
    projections = sorted(float(s.projection[0, 0, 0].real) for s in subs)
    assert projections == pytest.approx([0.0, 1.0], abs=1e-10)


def test_invariant_subbundles_jordan_single_line():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    subs = bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 2))
    assert len(subs) == 1
    assert subs[0].rank == 1
    assert np.abs(subs[0].base_basis.ravel() - np.array([1.0, 0.0])).max() < 1e-8


def test_invariant_subbundles_triangular_two_lines():
    # A diagonalizable upper-triangular monodromy has two eigenlines.
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[2.0, 1.0], [0.0, 0.5]])])
    subs = bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 2))
    assert len(subs) == 2
    assert all(s.rank == 1 and s.invariance_residual < 1e-8 for s in subs)


def test_invariant_subbundles_rotation_complex_lines():
    dom = bf.build_domain("circle", 16, 1.0)
    phi = np.sqrt(2.0)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    conn = bf.from_monodromy(dom, [rot])
    subs = bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 2))
    assert len(subs) == 2
    assert all(s.rank == 1 and s.invariance_residual < 1e-8 for s in subs)


def test_invariant_subbundles_rank_cap_needs_candidates():
    dom = bf.build_domain("circle", 8, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)])
    with pytest.raises(ValueError, match="candidates"):
        bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 4))
    subs = bf.invariant_subbundles(
        conn,
        identity_metric(dom.n_sites, 4),
        candidates=[np.eye(4)[:, :1].astype(complex)],
    )
    assert subs[0].rank == 1 and subs[0].invariance_residual < 1e-8


def test_invariant_subbundles_rank3_includes_sums():
    dom = bf.build_domain("circle", 8, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 3.0, 5.0]).astype(complex)])
    subs = bf.invariant_subbundles(conn, identity_metric(dom.n_sites, 3))
    assert sorted(s.rank for s in subs) == [1, 1, 1, 2, 2, 2]
