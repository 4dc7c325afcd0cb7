import numpy as np
import pytest

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.hodge import composite_transports, higgs_from_parts

from util import TWO_PI, identity_metric, random_metric


def unitary_torus(n=10, phases=(0.3, -0.2)):
    dom = bf.build_domain("torus", (n, n), (1.0, 1.0))
    gens = [np.diag([np.exp(1j * p), np.exp(-1j * p)]) for p in phases]
    return dom, bf.from_monodromy(dom, gens)


def unimodular_torus(n=16, length=TWO_PI):
    dom = bf.build_domain("torus", (n, n), (length, length))
    gens = [np.diag([2.0, 0.5]).astype(complex), np.diag([3.0, 1 / 3.0]).astype(complex)]
    return dom, bf.from_monodromy(dom, gens)


# ------------------------------------------------------------- complex split


def test_complex_split_pure_x_component():
    dom = bf.build_domain("torus", (6, 6), (1.0, 1.0))
    a = np.zeros((2, dom.n_sites, 2, 2), dtype=complex)
    a[0] = np.broadcast_to(np.diag([1.0, -1.0]), (dom.n_sites, 2, 2))
    p10, p01 = bf.complex_split(dom, a)
    assert np.abs(p10 - a[0] / 2).max() < 1e-14
    assert np.abs(p01 - a[0] / 2).max() < 1e-14


def test_complex_split_diagonal_direction_balanced():
    dom = bf.build_domain("torus", (6, 6), (1.0, 1.0))
    a = np.zeros((2, dom.n_sites, 1, 1), dtype=complex)
    a[0] = 0.7
    a[1] = 0.7
    p10, p01 = bf.complex_split(dom, a)
    assert np.abs(np.abs(p10) - np.abs(p01)).max() < 1e-14


def test_complex_split_round_trip():
    dom = bf.build_domain("torus", (5, 5), (1.0, 1.0))
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, dom.n_sites, 2, 2)) + 1j * rng.normal(size=(2, dom.n_sites, 2, 2))
    p10, p01 = bf.complex_split(dom, a)
    assert np.abs((p10 + p01) - a[0]).max() < 1e-12
    assert np.abs(1j * (p10 - p01) - a[1]).max() < 1e-12


def test_complex_split_requires_complex_structure():
    dom = bf.build_domain("circle", 6, 1.0)
    with pytest.raises(ValueError):
        bf.complex_split(dom, np.zeros((1, 6, 1, 1)))


# --------------------------------------------------------------- extraction


def test_higgs_from_harmonic_unitary_trivial():
    dom, conn = unitary_torus()
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    assert np.abs(hd.theta).max() < 1e-12
    assert hd.holomorphicity_residual < 1e-12


def test_higgs_from_harmonic_block_value():
    dom, conn = unimodular_torus(n=16)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    expect = np.diag([-1.0, 1.0]) * (np.log(2.0) - 1j * np.log(3.0)) / (2.0 * TWO_PI)
    assert np.abs(hd.theta - expect).max() < 1e-10 * np.abs(expect).max() + 1e-12
    assert hd.holomorphicity_residual < 1e-10


def test_higgs_from_harmonic_rank1_is_zero():
    dom = bf.build_domain("torus", (8, 8), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.array([[2.0]]), np.array([[1.0]])])
    hd = bf.higgs_from_harmonic(conn, identity_metric(dom.n_sites, 1))
    assert np.abs(hd.theta).max() < 1e-14


def test_higgs_from_harmonic_rejects_rough_metric():
    dom, conn = unimodular_torus(n=8)
    h = random_metric(dom, 2, seed=3, amplitude=0.4)
    with pytest.raises(ValueError, match="harmonic"):
        bf.higgs_from_harmonic(conn, h)


def test_higgs_from_harmonic_accepts_poisson_metric():
    # (S S^dag)^{-1} is harmonic for the monodromies S diag(mu, 1/mu) S^{-1}.
    # A conformal factor e^f shifts only the trace part of the tension, so the
    # product is a Poisson metric whose full tension is large and whose
    # trace-free tension and Higgs field are those of the harmonic metric.
    dom = bf.build_domain("torus", (8, 8), (1.0, 1.0))
    s = np.array([[1.0, 0.4 + 0.3j], [-0.2j, 1.5]])
    s_inv = np.linalg.inv(s)
    gens = [s @ np.diag([m, 1.0 / m]) @ s_inv for m in (2.0, 3.0)]
    conn = bf.from_monodromy(dom, gens)
    harmonic = np.broadcast_to(np.linalg.inv(s @ la.dagger(s)), (dom.n_sites, 2, 2)).copy()
    f = 0.1 * np.sin(2.0 * np.pi * dom.coords()[:, 0])
    poisson = harmonic * np.exp(f)[:, None, None]
    assert la.frobenius(bf.tension(conn, poisson)).max() > 1.0
    hd = bf.higgs_from_harmonic(conn, poisson)
    hd_harmonic = bf.higgs_from_harmonic(conn, harmonic)
    assert np.abs(hd.theta - hd_harmonic.theta).max() < 1e-12


# ----------------------------------------------------------------- residuals


def test_hitchin_residuals_unitary_flat():
    dom, conn = unitary_torus()
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    res = bf.hitchin_residuals(hd, h)
    assert res["hs_curvature_sup"] < 1e-10
    assert res["lambda_F_sup"] < 1e-8
    assert res["holomorphy"] < 1e-10


def test_hitchin_residuals_detect_nonholomorphic_perturbation():
    dom, conn = unimodular_torus(n=12)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    x = dom.coords()
    eps = 1e-3
    wave = np.exp(1j * x[:, 0])  # dz-coefficient varying anti-holomorphically
    theta2 = hd.theta + eps * wave[:, None, None] * np.diag([1.0, -1.0])
    hd2 = higgs_from_parts(dom, hd.connection.transport, theta2, loops=hd.connection.loops)
    base = bf.hitchin_residuals(hd, h)["holomorphy"]
    got = bf.hitchin_residuals(hd2, h)["holomorphy"] - base
    assert got == pytest.approx(eps * 0.5 * np.sqrt(2.0), rel=0.2)


# ------------------------------------------------------------------ degrees


def test_higgs_degree_trivial_zero():
    dom, conn = unitary_torus()
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    subs = bf.invariant_subbundles(conn, h)
    rep = bf.higgs_degree_stability(hd, h, subs)
    assert abs(rep.total_degree) < 1e-10


def test_higgs_sub_degrees_match_flat_side():
    dom, conn = unimodular_torus(n=16)
    k = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, k)
    subs = bf.invariant_subbundles(conn, k)
    flat_degs = sorted(bf.degree(conn, k, sub=s) for s in subs)
    rep = bf.higgs_degree_stability(hd, k, subs)
    higgs_degs = sorted(r.degree for r in rep.rows)
    h2 = max(dom.spacings) ** 2
    for a, b in zip(flat_degs, higgs_degs):
        assert abs(a - b) < 10 * h2 + 1e-8


def test_higgs_degree_rejects_noninvariant_sub():
    dom, conn = unimodular_torus(n=8)
    k = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, k)
    bad = bf.invariant_subbundles(
        conn, k, candidates=[np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)]
    )
    with pytest.raises(ValueError, match="invariant"):
        bf.higgs_degree_stability(hd, k, bad)


# ----------------------------------------------------------------- roundtrip


def test_flat_from_higgs_reuses_the_passed_composite():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    hd = bf.higgs_from_harmonic(conn, run.metric)
    composite = composite_transports(hd, run.metric)
    assert composite.loops == ()
    assert np.abs(composite.transport_inv @ composite.transport - np.eye(2)).max() < 1e-12
    res = bf.hitchin_residuals(hd, run.metric, composite)
    assert res == bf.hitchin_residuals(hd, run.metric)
    assert res["holomorphy"] == hd.holomorphicity_residual
    assert res["hs_curvature_sup"] == bf.flatness_residual(composite)
    plain = bf.flat_from_higgs(hd, run.metric)
    passed = bf.flat_from_higgs(hd, run.metric, composite=composite)
    assert passed.transport is composite.transport
    assert np.array_equal(passed.transport, plain.transport)
    assert np.array_equal(passed.transport_inv, plain.transport_inv)
    assert len(passed.loops) == len(plain.loops) == 2
    for a, b in zip(passed.loops, plain.loops):
        assert (a.axis, a.base) == (b.axis, b.base)
        assert np.array_equal(a.generator, b.generator)
    # the curvature check reads the passed composite: one bent edge is refused
    bent = composite.transport.copy()
    bent[0, 5] = bent[0, 5] @ np.diag([1.001, 1.0])
    with pytest.raises(ValueError, match="curvature"):
        bf.flat_from_higgs(hd, run.metric, tol=1e-6,
                           composite=bf.connection_from_transports(dom, bent))


def test_flat_from_higgs_unitary_returns_original():
    dom, conn = unitary_torus(n=8)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(conn, h)
    back = bf.flat_from_higgs(hd, h)
    assert np.abs(back.transport - conn.transport).max() < 1e-12


def test_round_trip_preserves_holonomy_spectra():
    dom, conn = unimodular_torus(n=16)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    hd = bf.higgs_from_harmonic(conn, run.metric)
    back = bf.flat_from_higgs(hd, run.metric)
    for lp, gen in zip(back.loops, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])]):
        hol = bf.loop_holonomy(back, lp.axis, 0)
        assert la.spectrum_distance(hol, gen) < 1e-4


def test_round_trip_rank1_unitarizes_the_monodromy():
    # The Higgs field of a rank-1 bundle is the trace-free part of a scalar,
    # identically zero; the composite connection is the metric connection, so
    # the reconstructed holonomy is the unitary part of the monodromy.
    dom = bf.build_domain("torus", (12, 12), (TWO_PI, TWO_PI))
    conn = bf.from_monodromy(dom, [np.array([[2.0]]), np.array([[1.0]])])
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 1))
    hd = bf.higgs_from_harmonic(conn, run.metric)
    back = bf.flat_from_higgs(hd, run.metric)
    hol = bf.loop_holonomy(back, 0, 0)
    assert abs(hol[0, 0] - 1.0) < 1e-8


def test_flat_from_higgs_rejects_curved_data():
    dom = bf.build_domain("torus", (10, 10), (1.0, 1.0))
    n = dom.n_sites
    w = np.broadcast_to(np.eye(1, dtype=complex), (2, n, 1, 1)).copy()
    ix = np.arange(n) // 10
    w[1, :, 0, 0] = np.exp(1j * 0.5 * ix)
    hd = higgs_from_parts(dom, w, np.zeros((n, 1, 1), dtype=complex))
    with pytest.raises(ValueError, match="curvature"):
        bf.flat_from_higgs(hd, identity_metric(n, 1), tol=1e-6)


# -------------------------------------------------------------- parallelism


def test_parallel_identity_section():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    f = identity_metric(dom.n_sites, 2)
    res = bf.parallel_section_residual(conn, run.metric, f, "flat_to_higgs")
    assert res < 1e-10


def test_parallel_projection_of_invariant_line():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    pi = np.broadcast_to(np.diag([1.0, 0.0]), (dom.n_sites, 2, 2)).astype(complex).copy()
    res = bf.parallel_section_residual(conn, run.metric, pi, "flat_to_higgs")
    assert res < 1e-8


def test_parallel_section_higgs_mode():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    hd = bf.higgs_from_harmonic(conn, run.metric)
    f = identity_metric(dom.n_sites, 2)
    res = bf.parallel_section_residual(
        conn, run.metric, f, "higgs_to_flat", higgs=hd
    )
    assert res < 1e-10


def test_parallel_section_rejects_nonparallel_input():
    dom, conn = unimodular_torus(n=10)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    rng = np.random.default_rng(1)
    f = rng.normal(size=(dom.n_sites, 2, 2)) + 1j * rng.normal(size=(dom.n_sites, 2, 2))
    with pytest.raises(ValueError, match="parallel"):
        bf.parallel_section_residual(conn, run.metric, f, "flat_to_higgs")
