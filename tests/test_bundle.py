import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.bundle import (
    centered_derivative,
    _jacobi_weights,
    conformal_split,
    energy_hessian,
    reverse_edge_values,
)

from util import (
    TWO_PI,
    circle_diag,
    conformal_split_out_of_place,
    delta_operator,
    edge_products_matmul,
    flatness_residual,
    gauge_transform,
    gauge_transform_metric,
    identity_metric,
    random_connection,
    random_gauge,
    random_metric,
    rough_random_metric,
    same_bits,
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
    assert flatness_residual(conn) < 1e-12


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
    assert flatness_residual(conn) < 1e-10


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
    res = flatness_residual(perturbed)
    assert res == pytest.approx(eps, rel=0.2)


def test_flatness_residual_gauge_invariant():
    dom, conn = torus_diag(n=6)
    g = random_gauge(dom.n_sites, 2, seed=1, scale=0.25)
    moved = gauge_transform(conn, g)
    assert abs(flatness_residual(moved) - flatness_residual(conn)) < 1e-10


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


def test_edge_products_match_matmul_above_the_gate():
    # 81 sites per axis: every edge stack takes linalg's closed-form products.
    dom = bf.build_domain("torus", (9, 9), (1.0, 1.0))
    assert dom.n_sites >= la.SMALL_BATCH
    conn = random_connection(dom, 2, seed=12)
    f = rough_random_metric(dom.n_sites, 2, seed=13) + 0.5j * rough_random_metric(
        dom.n_sites, 2, seed=14)
    omega = np.stack([rough_random_metric(dom.n_sites, 2, seed=s) for s in (15, 16)])
    d, centered, reverse, hol = edge_products_matmul(conn, f, omega)
    base, got_hol = bf.plaquette_holonomies(conn)
    assert np.array_equal(base, np.arange(dom.n_sites))
    for got, expected in ((bf.covariant_d(conn, f), d),
                          (centered_derivative(conn, f), centered),
                          (reverse_edge_values(conn, omega), reverse),
                          (got_hol, hol)):
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


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
    frame = la.orthonormal_frame(la.scaled_sqrt(h[tails]))
    recomposed = v @ la.exp_hsa(sm.psi[0, tails], frame, -dom.spacings[0])
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
    assert np.abs(bf.codifferential(bf.split_metric(conn, h), omega)).max() == 0.0


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
    frame = la.orthonormal_frame(la.scaled_sqrt(h))
    lhs = 0.0
    for a in range(2):
        lhs += np.sum(dom.edge_weight[a] * la.endo_inner(d_sigma[a], omega[a], frame))
    cod = bf.codifferential(bf.split_metric(conn, h), omega)
    rhs = np.sum(dom.volume * la.endo_inner(sigma, cod, frame))
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
        out = bf.codifferential(bf.split_metric(conn, h), omega)
        errs.append(np.abs(out + np.cos(x)[:, None, None] * np.eye(2)).max())
    assert np.log2(errs[0] / errs[1]) > 1.7


def _edge_form(sm, x):
    """sum_e w_e |D_V S|_H^2 for S = g^{-1} x g: the covariant Laplacian's form at x."""
    dom = sm.flat.domain
    g, g_inv = la.orthonormal_frame(sm.root)
    d_s = bf.covariant_d(sm.connection, g_inv @ x @ g)
    return sum(np.sum(dom.edge_weight[a] * la.endo_norm2(d_s[a], (g, g_inv)))
               for a in range(dom.dim)), d_s


def _hermitian_pair(dom, rank, seed):
    """Two random Hermitian fields that vanish on the boundary sites."""
    rng = np.random.default_rng(seed)
    shape = (dom.n_sites, rank, rank)
    x, y = (la.hermitize(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for _ in range(2))
    x[dom.boundary] = y[dom.boundary] = 0.0
    return x, y


@pytest.mark.parametrize("rank", [2, 3])
def test_covariant_laplacian_is_the_codifferential_of_the_metric_difference(rank):
    # At a split with psi = 0 (a unitary monodromy seen in a random gauge,
    # with the metric carried along) every edge has alpha = 0, and the energy
    # Hessian is the covariant Laplacian: in the H-orthonormal frame it acts
    # as M codifferential(D_V S) on fields S that vanish on the boundary, it
    # is symmetric under Re tr(a b), and its form is the edge sum of |D_V S|_H^2.
    dom = bf.build_domain("annulus", (7, 5), (TWO_PI, 1.0))
    z = np.random.default_rng(3).normal(size=(2, rank, rank))
    unitary = expm(0.6j * la.hermitize(z[0] + 1j * z[1]))
    gauge = random_gauge(dom.n_sites, rank, seed=4)
    conn = gauge_transform(bf.from_monodromy(dom, [unitary]), gauge)
    h = gauge_transform_metric(identity_metric(dom.n_sites, rank), gauge)
    sm = bf.split_metric(conn, h)
    assert np.abs(sm.psi).max() < 1e-14
    g, g_inv = la.orthonormal_frame(sm.root)
    hess = energy_hessian(sm, (g, g_inv))
    x, y = _hermitian_pair(dom, rank, seed=5)
    lx = hess(x)
    assert np.abs(lx[dom.boundary]).max() == 0.0
    assert np.vdot(y, lx).real == pytest.approx(np.vdot(hess(y), x).real, rel=1e-12)
    form, d_s = _edge_form(sm, x)
    assert np.vdot(x, lx).real == pytest.approx(form, rel=1e-12)
    inner = dom.interior_mask()
    cod = bf.codifferential(sm, d_s)[inner]
    want = dom.volume[inner][:, None, None] * (g[inner] @ cod @ g_inv[inner])
    assert np.abs(lx[inner] - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("kind, sites, lengths", [
    ("circle", 12, 1.0),
    ("torus", (6, 5), (1.0, 1.0)),
    ("rectangle", (7, 6), (1.0, 1.0)),
    ("annulus", (7, 5), (TWO_PI, 1.0)),
])
def test_energy_hessian_is_the_second_variation_of_the_energy(kind, sites, lengths, rank):
    # Along the geodesic H exp(tX) the second difference of the edge energy,
    # (E(t) - 2 E(0) + E(-t)) / t^2, tends to <s, Hess s> / 2 for s = g X g^{-1}
    # at O(t^2). The operator is symmetric, its form is at least the covariant
    # Laplacian's, and its boundary rows are zero.
    dom = bf.build_domain(kind, sites, lengths)
    conn = random_connection(dom, rank, seed=3)
    h = random_metric(dom, rank, seed=4, amplitude=0.4)
    sm = bf.split_metric(conn, h)
    g, g_inv = la.orthonormal_frame(sm.root)
    hess = energy_hessian(sm, (g, g_inv))
    x, y = _hermitian_pair(dom, rank, seed=5)
    hx = hess(x)
    want = 0.5 * np.vdot(x, hx).real
    gaps = []
    for t in (1e-2, 3e-3, 1e-3):
        e_plus, e_minus = (bf.split_metric(conn, la.metric_exp_update(g_inv @ x @ g, step,
                                                                      sm.root))
                           .energy for step in (t, -t))
        gaps.append(abs((e_plus - 2.0 * sm.energy + e_minus) / t ** 2 - want) / want)
    assert gaps[0] < 1e-4
    assert gaps[1] / gaps[0] == pytest.approx(0.09, rel=0.05)
    assert gaps[2] / gaps[1] == pytest.approx(1 / 9, rel=0.05)
    assert np.vdot(y, hx).real == pytest.approx(np.vdot(hess(y), x).real, rel=1e-12)
    assert np.vdot(x, hx).real > _edge_form(sm, x)[0]
    assert np.abs(hx[dom.boundary]).max(initial=0.0) == 0.0


def test_jacobi_weights_hold_their_limits():
    # F = alpha coth alpha and G = alpha / sinh alpha, 1 at alpha = 0, and
    # evaluated without a warning at both ends of the range.
    alpha = np.array([0.0, 1e-9, -5e-5, 2e-4, 0.7, -3.0, 40.0, 800.0, -1e300])
    f, g = _jacobi_weights(alpha)
    t = np.abs(alpha[3:6])
    assert np.allclose(f[3:6], t / np.tanh(t), rtol=1e-14, atol=0)
    assert np.allclose(g[3:6], t / np.sinh(t), rtol=1e-14, atol=0)
    assert f[0] == g[0] == 1.0
    assert f[1] == 1.0 and g[1] == 1.0
    assert f[2] == pytest.approx(1.0 + 2.5e-9 / 3, rel=1e-16)
    assert f[6] == pytest.approx(40.0, rel=1e-15) and g[6] == pytest.approx(80.0 * np.exp(-40.0))
    assert f[7] == 800.0 and g[7] == 0.0 and f[8] == 1e300 and g[8] == 0.0
    assert np.all((f >= 1.0) & (g <= 1.0) & (g >= 0.0) & (f + g >= 2.0))


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


@pytest.mark.parametrize("kind, sites, lengths", [
    ("torus", (9, 7), (1.0, 1.3)),
    ("rectangle", (9, 8), (1.0, 1.5)),
    ("annulus", (48, 11), (TWO_PI, 1.0)),
])
def test_conformal_split_is_the_split_at_the_rescaled_metric(kind, sites, lengths):
    # The conformal law against a fresh split of H e^f on every site, boundary
    # included: a torus with non-normal commuting generators, and a rectangle
    # and an annulus (non-uniform edge weights and volumes) in a random gauge,
    # at a rough random metric and a random f that vanishes on the boundary.
    dom = bf.build_domain(kind, sites, lengths)
    conn = random_connection(dom, 2, seed=3)
    if not dom.periodic[1]:
        conn = gauge_transform(conn, random_gauge(dom.n_sites, 2, seed=7))
    h = rough_random_metric(dom.n_sites, 2, seed=4)
    f = 0.5 * np.random.default_rng(5).normal(size=dom.n_sites)
    f[dom.boundary] = 0.0
    sm = bf.split_metric(conn, h)
    tension = sm.tension.copy()    # the law takes over sm's arrays and moves them in place
    law = conformal_split(sm, f)
    fresh = bf.split_metric(conn, h * np.exp(f)[:, None, None])

    def gap(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert np.array_equal(law.metric, fresh.metric) and law.flat is conn
    pairs = [(law.psi, fresh.psi), (law.shift, fresh.shift),
             (law.connection.transport, fresh.connection.transport),
             (law.connection.transport_inv, fresh.connection.transport_inv),
             (np.array(law.energy), np.array(fresh.energy)),
             *zip(law.root, fresh.root)]
    for got, want in pairs:
        assert gap(got, want) <= 1e-13
    # The law's tension is cached, and the codifferential agrees with it.
    assert "tension" in vars(law)
    assert gap(law.tension, fresh.tension) <= 1e-13
    recomputed = la.selfadjoint_part(bf.codifferential(law, law.psi), law.metric, law.root)
    assert gap(recomputed, fresh.tension) <= 1e-13
    # The scalar term with the opposite sign is far off: the sign is pinned.
    assert gap(2.0 * tension - law.tension, fresh.tension) > 0.1


@pytest.mark.parametrize("kind, sites, lengths", [
    ("torus", (9, 7), (1.0, 1.3)),
    ("rectangle", (9, 8), (1.0, 1.5)),
    ("annulus", (48, 11), (TWO_PI, 1.0)),
])
def test_conformal_split_in_place_is_the_law_out_of_place(kind, sites, lengths):
    # The law takes over the split's arrays and moves them in place; every
    # field keeps the bits, signed zeros included, of the same sums formed
    # into new arrays from a deep copy of the split. The identity metric of
    # a diagonal bundle gives psi, V - I and the tension exact off-diagonal
    # zeros, and f takes both signs and -0.0 (-log 1, a site with det 1).
    dom = bf.build_domain(kind, sites, lengths)
    gens = [np.diag([2.0, 0.5]).astype(complex), np.diag([3.0, 1 / 3.0]).astype(complex)]
    rng = np.random.default_rng(5)
    f = 0.5 * rng.normal(size=dom.n_sites)
    f[::7] = -0.0
    f[dom.boundary] = 0.0
    cases = [(random_connection(dom, 2, seed=3), rough_random_metric(dom.n_sites, 2, seed=4)),
             (bf.from_monodromy(dom, gens[:sum(dom.periodic)], rank=2),
              identity_metric(dom.n_sites, 2))]
    for conn, h in cases:
        sm = bf.split_metric(conn, h)
        sm.tension
        want = conformal_split_out_of_place(copy.deepcopy(sm), f)
        arrays = (sm.psi, sm.shift, sm.connection.transport, sm.connection.transport_inv,
                  sm.tension)
        law = conformal_split(sm, f)
        got = (law.psi, law.shift, law.connection.transport, law.connection.transport_inv,
               law.tension)
        assert all(g is a for g, a in zip(got, arrays))
        assert law.metric is not sm.metric and np.array_equal(sm.metric, h)
        for g, w in zip((*got, law.metric, *law.root),
                        (want.psi, want.shift, want.connection.transport,
                         want.connection.transport_inv, want.tension, want.metric, *want.root),
                        strict=True):
            assert same_bits(g, w)
        assert law.energy == want.energy


@pytest.mark.parametrize("kind, sites, lengths", [
    ("torus", (24, 24), (1.0, 1.0)),
    ("rectangle", (17, 19), (1.0, 1.5)),
    ("annulus", (48, 11), (TWO_PI, 1.0)),
])
def test_split_in_tiles_is_the_split_in_one_tile(monkeypatch, kind, sites, lengths):
    # With tiles of 96 sites every axis's edges and every site stack run in 4
    # to 6 tiles; each field of the split, its tension and the conformal
    # split carried from it keep every bit of the one-tile results.
    dom = bf.build_domain(kind, sites, lengths)
    conn = random_connection(dom, 2, seed=3)
    if not dom.periodic[1]:
        conn = gauge_transform(conn, random_gauge(dom.n_sites, 2, seed=7))
    h = rough_random_metric(dom.n_sites, 2, seed=4)
    f = 0.5 * np.random.default_rng(5).normal(size=dom.n_sites)
    f[dom.boundary] = 0.0
    calls = []
    real = la.comparison_functions
    monkeypatch.setattr(la, "comparison_functions", lambda *args: calls.append(1) or real(*args))

    def fields() -> list:
        sm = bf.split_metric(conn, h)
        split = [a.copy() for a in (sm.psi, sm.shift, sm.connection.transport,
                                    sm.connection.transport_inv, *sm.root, sm.tension,
                                    np.array(sm.energy))]
        law = conformal_split(sm, f)    # moves sm's arrays in place
        return [*split, law.metric, law.psi, law.shift,
                law.connection.transport, law.connection.transport_inv, *law.root, law.tension]

    monkeypatch.setattr(la, "TILE", 10 ** 9)
    whole = fields()
    assert len(calls) == dom.dim
    calls.clear()
    monkeypatch.setattr(la, "TILE", 96)
    tiles = fields()
    assert len(calls) >= 4 * dom.dim
    for got, want in zip(tiles, whole, strict=True):
        assert same_bits(got, want)


def test_split_and_tension_hold_few_temporaries():
    # The split's edge chain and the tension's correction products run in
    # tiles, so a 64 x 64 torus (two tiles of linalg.TILE sites) holds its
    # outputs plus about 10 metric-sized temporaries at the peak (measured
    # 2.7 MB of 0.26 MB fields). Built whole, it held about 21 (5.5 MB).
    dom, conn = torus_diag(n=64, length=1.0)
    h = random_metric(dom, 2, seed=8, amplitude=0.5)
    bf.split_metric(conn, h).tension
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sm = bf.split_metric(conn, h)
        tension = sm.tension
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (sm.psi, sm.shift, sm.connection.transport,
                                     sm.connection.transport_inv, *sm.root, tension))
    assert peak <= outputs + 13 * h.nbytes


def test_split_takes_its_tension_once(monkeypatch):
    dom, conn = circle_diag(n=12)
    h = rough_random_metric(dom.n_sites, 2, seed=6)
    calls = []
    real = bf.bundle.codifferential

    def counted(sm, omega):
        calls.append(sm)
        return real(sm, omega)

    monkeypatch.setattr(bf.bundle, "codifferential", counted)
    sm = bf.split_metric(conn, h)
    assert sm.flat is conn and np.array_equal(sm.metric, h)
    first = sm.tension
    assert sm.tension is first and calls == [sm]
    # a second split at the same metric is a new object, with its own tension
    assert np.array_equal(bf.tension(conn, h), first) and len(calls) == 2


def test_gauge_covariance_of_tension_and_diagnostics():
    dom, conn = circle_diag(n=20)
    h = random_metric(dom, 2, seed=5, amplitude=0.4)
    g = random_gauge(dom.n_sites, 2, seed=11, scale=0.3)
    conn_g = gauge_transform(conn, g)
    h_g = gauge_transform_metric(h, g)
    t = bf.tension(conn, h)
    t_g = bf.tension(conn_g, h_g)
    conjugated = np.linalg.solve(g, t @ g)
    assert np.abs(t_g - conjugated).max() < 1e-9
    # scalar diagnostics are gauge invariant
    energy, energy_g = bf.split_metric(conn, h).energy, bf.split_metric(conn_g, h_g).energy
    assert abs(energy - energy_g) < 1e-10 * (1 + energy)
    norm = np.sqrt(la.endo_norm2(t, la.orthonormal_frame(la.scaled_sqrt(h))))
    norm_g = np.sqrt(la.endo_norm2(t_g, la.orthonormal_frame(la.scaled_sqrt(h_g))))
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
        lhs = bf.centered_components(sm_h.connection, delta_operator(sm_h, sec))
        hs = np.einsum("nij,nj->ni", h_rel, sec)
        rhs_raw = bf.centered_components(sm_k.connection, delta_operator(sm_k, hs))
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
        root = la.scaled_sqrt(h)
        direction = la.selfadjoint_part(direction, h, root)
        dt = 1e-5
        h_plus = la.metric_exp_update(direction, dt, root)
        h_minus = la.metric_exp_update(direction, -dt, root)
        psi_plus, psi_minus = (bf.centered_components(conn, bf.split_metric(conn, m).psi)
                               for m in (h_plus, h_minus))
        dpsi = (psi_plus - psi_minus) / (2 * dt)
        sm = bf.split_metric(conn, h)
        dv = section_derivative(conn, h, direction)
        dv_c = bf.centered_components(sm.connection, dv)
        psic = bf.centered_components(conn, sm.psi)
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
