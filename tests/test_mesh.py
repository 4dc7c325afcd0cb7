import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundleflow as bf
from bundleflow.mesh import flat_preconditioner, sublevel_domain, sublevel_mask

TWO_PI = 2.0 * np.pi


def test_circle_construction():
    dom = bf.build_domain("circle", 100, TWO_PI)
    assert dom.n_sites == 100
    assert dom.spacings[0] == pytest.approx(TWO_PI / 100)
    assert not dom.boundary.any()
    assert np.allclose(dom.volume, TWO_PI / 100)


@pytest.mark.parametrize("kind, sites, lengths", [
    ("circle", 7, 1.0), ("interval", 6, 2.0), ("torus", (4, 5), (1.0, 2.0)),
    ("rectangle", (5, 4), (1.0, 1.5)), ("annulus", (6, 4), (TWO_PI, 1.0)),
])
def test_edge_arrays_are_cached_read_only_and_match_neighbors(kind, sites, lengths):
    dom = bf.build_domain(kind, sites, lengths)
    for a in range(dom.dim):
        tails, heads = dom.edge_sites(a)
        forward = dom.neighbors[a, 0]
        assert np.array_equal(tails, np.flatnonzero(forward >= 0))
        assert np.array_equal(heads, forward[forward >= 0])
        weights = dom.edge_flux_weights(a)
        assert np.array_equal(weights, dom.edge_weight[a, tails] / dom.spacings[a])
        assert dom.edge_sites(a)[0] is tails and dom.edge_flux_weights(a) is weights
        for arr in (tails, heads, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_rectangle_boundary_count():
    dom = bf.build_domain("rectangle", (16, 16), (1.0, 1.0))
    assert dom.boundary.sum() == 4 * 16 - 4
    assert dom.spacings == (1.0 / 15, 1.0 / 15)


def test_annulus_exhaustion_increases_radially():
    dom = bf.build_domain("annulus", (32, 8), (TWO_PI, 1.0))
    rho = dom.exhaustion.reshape(32, 8)
    assert (np.diff(rho, axis=1) > 0).all()
    assert (rho[:, 0] == 0).all()


def test_rectangle_exhaustion_has_core():
    dom = bf.build_domain("rectangle", (9, 9), (1.0, 1.0))
    assert (dom.exhaustion == 0).sum() >= 1
    assert dom.exhaustion.max() > 0


def test_construction_errors():
    with pytest.raises(ValueError):
        bf.build_domain("klein", 10, 1.0)
    with pytest.raises(ValueError):
        bf.build_domain("torus", (10,), (1.0, 1.0))
    for length in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^axis lengths must be positive and finite$"):
            bf.build_domain("circle", 10, length)
    with pytest.raises(ValueError):
        bf.build_domain("circle", 2, 1.0)


def test_laplacian_constant_is_zero():
    dom = bf.build_domain("rectangle", (12, 12), (1.0, 2.0))
    out = bf.laplacian(dom, np.full(dom.n_sites, 3.7))
    assert np.abs(out[dom.interior_mask()]).max() < 1e-11


def test_laplacian_cosine_second_order():
    errs = []
    for n in (32, 64, 128):
        dom = bf.build_domain("circle", n, TWO_PI)
        x = dom.coords()[:, 0]
        f = np.cos(x)
        out = bf.laplacian(dom, f)
        errs.append(np.abs(out + f).max())
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert abs(order1 - 2.0) < 0.2
    assert abs(order2 - 2.0) < 0.2


def test_laplacian_linear_interval():
    dom = bf.build_domain("interval", 20, 1.0)
    x = dom.coords()[:, 0]
    out = bf.laplacian(dom, x)
    assert np.abs(out[dom.interior_mask()]).max() < 1e-10
    assert np.all(out[dom.boundary] == 0.0)


@pytest.mark.parametrize("kind, sites, lengths", [
    ("circle", 7, 1.0),
    ("interval", 7, 2.0),
    ("torus", (5, 4), (1.0, 2.0)),
    ("rectangle", (6, 5), (1.0, 1.5)),
    ("annulus", (6, 5), (TWO_PI, 1.0)),
])
def test_flat_preconditioner_inverts_the_assembled_operator(kind, sites, lengths):
    # P = M + dt sum_e c_e (e_x - e_y)(e_x - e_y)^T on the interior sites,
    # applied alike to each entry of a complex (n, 2, 2) field; 0 on the boundary.
    dom = bf.build_domain(kind, sites, lengths)
    dt = 0.37
    p = np.diag(dom.volume)
    for a in range(dom.dim):
        tails = np.flatnonzero(dom.neighbors[a, 0] >= 0)
        for x, y in zip(tails, dom.neighbors[a, 0, tails]):
            c = dt * dom.edge_weight[a, x] / dom.spacings[a] ** 2
            p[np.ix_([x, y], [x, y])] += c * np.array([[1.0, -1.0], [-1.0, 1.0]])
    inner = dom.interior_mask()
    rng = np.random.default_rng(0)
    f = rng.normal(size=(dom.n_sites, 2, 2)) + 1j * rng.normal(size=(dom.n_sites, 2, 2))
    want = np.zeros_like(f)
    want[inner] = np.linalg.solve(p[np.ix_(inner, inner)],
                                  f[inner].reshape(inner.sum(), -1)).reshape(-1, 2, 2)
    got = flat_preconditioner(dom, dt)(f)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_integrate_constant_and_odd():
    dom = bf.build_domain("circle", 128, TWO_PI)
    assert bf.integrate(dom, np.ones(dom.n_sites)) == pytest.approx(TWO_PI, abs=1e-12)
    x = dom.coords()[:, 0]
    assert abs(bf.integrate(dom, np.sin(x))) < 1e-12


def test_integrate_product_field_factorizes():
    dom = bf.build_domain("torus", (16, 24), (1.0, 2.0))
    x = dom.coords()
    fx = 1.0 + 0.5 * np.cos(TWO_PI * x[:, 0])
    fy = 2.0 + np.sin(TWO_PI * x[:, 1] / 2.0)
    total = bf.integrate(dom, fx * fy)
    dx = bf.build_domain("circle", 16, 1.0)
    dy = bf.build_domain("circle", 24, 2.0)
    ix = bf.integrate(dx, 1.0 + 0.5 * np.cos(TWO_PI * dx.coords()[:, 0]))
    iy = bf.integrate(dy, 2.0 + np.sin(TWO_PI * dy.coords()[:, 0] / 2.0))
    assert total == pytest.approx(ix * iy, rel=1e-12)


def test_discrete_divergence_theorem():
    dom = bf.build_domain("torus", (16, 16), (1.0, 1.0))
    rng = np.random.default_rng(0)
    f = rng.normal(size=dom.n_sites)
    total = bf.integrate(dom, bf.laplacian(dom, f))
    assert abs(total) < 1e-10 * (1.0 + np.abs(f).max())


def test_integrate_mask_mismatch():
    dom = bf.build_domain("circle", 10, 1.0)
    with pytest.raises(ValueError):
        bf.integrate(dom, np.ones(9))


def test_sublevel_domain_annulus():
    dom = bf.build_domain("annulus", (16, 9), (TWO_PI, 1.0))
    sub, idx = sublevel_domain(dom, 4)
    assert sub.kind == "annulus"
    assert sub.sites_per_axis == (16, 5)
    assert sub.spacings == dom.spacings
    assert idx.shape == (sub.n_sites,)
    assert sublevel_mask(dom, 4).sum() == sub.n_sites
    with pytest.raises(ValueError):
        sublevel_domain(dom, 1)


def test_sublevel_domain_rectangle():
    dom = bf.build_domain("rectangle", (11, 11), (1.0, 1.0))
    sub, idx = sublevel_domain(dom, 2)
    assert sub.sites_per_axis == (5, 5)
    assert sub.spacings == dom.spacings


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 40), st.floats(0.5, 10.0))
def test_integrate_is_linear_in_volume(n, length):
    dom = bf.build_domain("circle", n, length)
    assert bf.integrate(dom, np.ones(n)) == pytest.approx(length, rel=1e-12)
