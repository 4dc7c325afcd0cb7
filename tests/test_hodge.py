import tracemalloc

import numpy as np
import pytest

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow import hodge

from util import (
    TWO_PI,
    flatness_residual,
    gauge_transform,
    identity_metric,
    random_connection,
    random_gauge,
    random_metric,
    rough_random_metric,
    same_bits,
)


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
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    assert np.abs(hd.theta).max() < 1e-12
    assert hd.holomorphicity_residual < 1e-12


def test_higgs_from_harmonic_block_value():
    dom, conn = unimodular_torus(n=16)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    expect = np.diag([-1.0, 1.0]) * (np.log(2.0) - 1j * np.log(3.0)) / (2.0 * TWO_PI)
    assert np.abs(hd.theta - expect).max() < 1e-10 * np.abs(expect).max() + 1e-12
    assert hd.holomorphicity_residual < 1e-10


def test_higgs_from_harmonic_rank1_is_zero():
    dom = bf.build_domain("torus", (8, 8), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.array([[2.0]]), np.array([[1.0]])])
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, identity_metric(dom.n_sites, 1)))
    assert np.abs(hd.theta).max() < 1e-14


def test_higgs_from_harmonic_rejects_rough_metric():
    dom, conn = unimodular_torus(n=8)
    h = random_metric(dom, 2, seed=3, amplitude=0.4)
    with pytest.raises(ValueError, match="harmonic"):
        bf.higgs_from_harmonic(bf.split_metric(conn, h))


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
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, poisson))
    hd_harmonic = bf.higgs_from_harmonic(bf.split_metric(conn, harmonic))
    assert np.abs(hd.theta - hd_harmonic.theta).max() < 1e-12


# ----------------------------------------------------------------- residuals


def test_hitchin_residuals_unitary_flat():
    dom, conn = unitary_torus()
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    res = bf.hitchin_residuals(hd)
    assert res["hs_curvature_sup"] < 1e-10
    assert res["lambda_F_sup"] < 1e-8
    assert res["holomorphy"] < 1e-10


def test_hitchin_residuals_detect_nonholomorphic_perturbation():
    dom, conn = unimodular_torus(n=12)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    x = dom.coords()
    eps = 1e-3
    wave = np.exp(1j * x[:, 0])  # dz-coefficient varying anti-holomorphically
    theta2 = hd.theta + eps * wave[:, None, None] * np.diag([1.0, -1.0])
    hd2 = bf.HiggsData(hd.connection, theta2, h)
    base = bf.hitchin_residuals(hd)["holomorphy"]
    got = bf.hitchin_residuals(hd2)["holomorphy"] - base
    assert got == pytest.approx(eps * 0.5 * np.sqrt(2.0), rel=0.2)


# ------------------------------------------------------------------ degrees


def test_higgs_degree_trivial_zero():
    dom, conn = unitary_torus()
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    subs = bf.invariant_subbundles(conn, h)
    rep = bf.higgs_degree_stability(hd, subs)
    assert abs(rep.total_degree) < 1e-10


def test_higgs_sub_degrees_match_flat_side():
    dom, conn = unimodular_torus(n=16)
    k = identity_metric(dom.n_sites, 2)
    sm = bf.split_metric(conn, k)
    hd = bf.higgs_from_harmonic(sm)
    subs = bf.invariant_subbundles(conn, k)
    flat_degs = sorted(bf.degree(sm, sub=s) for s in subs)
    rep = bf.higgs_degree_stability(hd, subs)
    higgs_degs = sorted(r.degree for r in rep.rows)
    h2 = max(dom.spacings) ** 2
    for a, b in zip(flat_degs, higgs_degs):
        assert abs(a - b) < 10 * h2 + 1e-8


def test_higgs_degree_rejects_noninvariant_sub():
    dom, conn = unimodular_torus(n=8)
    k = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, k))
    bad = bf.invariant_subbundles(
        conn, k, candidates=[np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)]
    )
    with pytest.raises(ValueError, match="invariant"):
        bf.higgs_degree_stability(hd, bad)


# ----------------------------------------------------------------- roundtrip


def test_higgs_data_builds_its_composite_once(monkeypatch):
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    built = []
    real = hodge.composite_transports

    def counted(higgs):
        built.append(higgs)
        return real(higgs)

    monkeypatch.setattr(hodge, "composite_transports", counted)
    hd = bf.higgs_from_harmonic(run.split)
    res = bf.hitchin_residuals(hd)
    back = bf.flat_from_higgs(hd)
    assert len(built) == 1 and built[0] is hd
    composite = hd.composite
    assert composite.loops == ()
    assert np.abs(composite.transport_inv @ composite.transport - np.eye(2)).max() < 1e-12
    assert res["holomorphy"] == hd.holomorphicity_residual
    assert res["hs_curvature_sup"] == flatness_residual(composite)
    assert back.transport is composite.transport
    assert [lp.axis for lp in back.loops] == [0, 1]
    for lp in back.loops:
        assert np.array_equal(lp.generator, bf.loop_holonomy(composite, lp.axis))
    # new data at the same metric builds its own composite, once
    hd2 = bf.higgs_from_harmonic(run.split)
    bf.flat_from_higgs(hd2)
    bf.hitchin_residuals(hd2)
    assert len(built) == 2 and built[1] is hd2

    # the curvature check reads the composite the data builds: one bent edge is refused
    def bent(higgs):
        transport = real(higgs).transport.copy()
        transport[0, 5] = transport[0, 5] @ np.diag([1.001, 1.0])
        return bf.connection_from_transports(dom, transport)

    monkeypatch.setattr(hodge, "composite_transports", bent)
    with pytest.raises(ValueError, match="curvature"):
        bf.flat_from_higgs(bf.higgs_from_harmonic(run.split), tol=1e-6)


def test_the_higgs_stage_reads_the_root_its_split_took(monkeypatch):
    # The data holds the split's scaled root, and the adjoint, the composite
    # transports, the residuals and the degrees read it: the metric is neither
    # checked nor factored again, and nothing is solved against it.
    dom = bf.build_domain("rectangle", (9, 11), (1.0, 1.5))
    conn = gauge_transform(random_connection(dom, 2, seed=3), random_gauge(dom.n_sites, 2, seed=7))
    h = rough_random_metric(dom.n_sites, 2, seed=4, amplitude=0.2)
    sm = bf.split_metric(conn, h)

    def refused(*args, **kwargs):
        raise AssertionError("the Higgs stage took a root of the metric or solved against it")

    for name in ("check_metric", "scaled_sqrt", "sqrt_pair"):
        monkeypatch.setattr(la, name, refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    hd = bf.higgs_from_harmonic(sm, tension_tol=np.inf)
    assert hd.root is sm.root
    bf.hitchin_residuals(hd)
    bf.flat_from_higgs(hd, tol=np.inf)
    bf.higgs_degree_stability(hd, [])
    bf.parallel_section_residual(hd, np.zeros((dom.n_sites, 2), dtype=complex))


@pytest.mark.parametrize("kind, sites", [("torus", (24, 24)), ("rectangle", (17, 19))])
def test_higgs_round_trip_in_tiles_is_the_round_trip_in_one_tile(monkeypatch, kind, sites):
    # With tiles of 96 sites, theta, the composite edges and the plaquette
    # residuals run in 3 to 6 tiles of at least SMALL_BATCH rows; every field
    # and every residual keeps the bits of one tile.
    dom = bf.build_domain(kind, sites, (1.0, 1.5))
    conn = random_connection(dom, 2, seed=3)
    if not dom.periodic[1]:
        conn = gauge_transform(conn, random_gauge(dom.n_sites, 2, seed=7))
    h = rough_random_metric(dom.n_sites, 2, seed=4, amplitude=0.2)
    calls = {"theta": 0, "plaquettes": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(hodge, "centered_components",
                        counting("theta", hodge.centered_components))
    monkeypatch.setattr(hodge, "plaquette_holonomies",
                        counting("plaquettes", hodge.plaquette_holonomies))

    def fields() -> list:
        hd = bf.higgs_from_harmonic(bf.split_metric(conn, h), tension_tol=np.inf)
        res = bf.hitchin_residuals(hd)
        back = bf.flat_from_higgs(hd, tol=np.inf)
        return [hd.theta, *(np.array(res[k]) for k in sorted(res)),
                hodge.lambda_contraction(hd), hd.composite.transport,
                hd.composite.transport_inv, *(lp.generator for lp in back.loops)]

    monkeypatch.setattr(la, "TILE", 10 ** 9)
    whole = fields()
    assert calls == {"theta": 1, "plaquettes": 2}
    monkeypatch.setattr(la, "TILE", 96)
    tiles = fields()
    assert calls["theta"] >= 1 + 4 and calls["plaquettes"] >= 2 + 2 * 3
    assert len(whole) == 7 + len(conn.loops)
    for got, want in zip(tiles, whole, strict=True):
        assert same_bits(got, want)


def test_higgs_round_trip_holds_few_temporaries():
    # A converged Poisson run on a 64 x 64 torus (two tiles of linalg.TILE
    # sites) that normalizes a conformal factor, then the Higgs data and its
    # residuals. The normalization moves the final split in place, so the run
    # holds its split plus about 11 metric-sized temporaries at the peak (the
    # first split's; 14 while the law built a second split whole); theta, the
    # composite connection and the residuals hold their outputs plus about 5
    # (9 with the site fields whole).
    dom = bf.build_domain("torus", (64, 64), (1.0, 1.0))
    s = np.array([[1.0, 0.6], [0.2, 1.3]], dtype=complex)
    conn = bf.from_monodromy(dom, [s @ np.diag([m, 1.0 / m]) @ np.linalg.inv(s)
                                   for m in (2.0, 3.0)])
    harmonic = np.broadcast_to(np.linalg.inv(s @ la.dagger(s)), (dom.n_sites, 2, 2))
    x, y = dom.coords().T
    start = harmonic * np.exp(0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))[:, None, None]

    def solve():
        return bf.solve_poisson(conn, harmonic, bf.SolveOptions(tolerance=1e-8),
                                init=bf.FlowState(time=0.0, metric=start.copy(), dt=0.0))

    def traced_peak(fn):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    solve()
    run, peak = traced_peak(solve)
    assert run.verdict == "converged" and run.steps == 0
    sm = run.split
    split = sum(a.nbytes for a in (sm.metric, sm.psi, sm.shift, sm.connection.transport,
                                   sm.connection.transport_inv, *sm.root, sm.tension))
    assert peak <= split + 12 * start.nbytes
    hd, peak = traced_peak(lambda: bf.higgs_from_harmonic(run.split, tension_tol=1e-8))
    res, peak_res = traced_peak(lambda: bf.hitchin_residuals(hd))
    assert max(res.values()) < 1e-10
    outputs = sum(a.nbytes for a in (hd.theta, hd.composite.transport,
                                     hd.composite.transport_inv))
    assert max(peak, peak_res) <= outputs + 8 * start.nbytes


def test_higgs_data_refuses_a_metric_that_is_not_one():
    dom, conn = unitary_torus(n=6)
    h = identity_metric(dom.n_sites, 2)
    theta = np.zeros((dom.n_sites, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        bf.HiggsData(conn, theta, h[:-1])
    negative = h.copy()
    negative[3] = -negative[3]
    with pytest.raises(ValueError, match="positive definite"):
        bf.HiggsData(conn, theta, negative)


def test_flat_from_higgs_unitary_returns_original():
    dom, conn = unitary_torus(n=8)
    h = identity_metric(dom.n_sites, 2)
    hd = bf.higgs_from_harmonic(bf.split_metric(conn, h))
    back = bf.flat_from_higgs(hd)
    assert np.abs(back.transport - conn.transport).max() < 1e-12


def test_round_trip_preserves_holonomy_spectra():
    dom, conn = unimodular_torus(n=16)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    hd = bf.higgs_from_harmonic(run.split)
    back = bf.flat_from_higgs(hd)
    for lp, gen in zip(back.loops, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])]):
        hol = bf.loop_holonomy(back, lp.axis)
        assert la.spectrum_distance(hol, gen) < 1e-4


def test_round_trip_rank1_unitarizes_the_monodromy():
    # The Higgs field of a rank-1 bundle is the trace-free part of a scalar,
    # identically zero; the composite connection is the metric connection, so
    # the reconstructed holonomy is the unitary part of the monodromy.
    dom = bf.build_domain("torus", (12, 12), (TWO_PI, TWO_PI))
    conn = bf.from_monodromy(dom, [np.array([[2.0]]), np.array([[1.0]])])
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 1))
    hd = bf.higgs_from_harmonic(run.split)
    back = bf.flat_from_higgs(hd)
    hol = bf.loop_holonomy(back, 0)
    assert abs(hol[0, 0] - 1.0) < 1e-8


def test_flat_from_higgs_rejects_curved_data():
    dom = bf.build_domain("torus", (10, 10), (1.0, 1.0))
    n = dom.n_sites
    w = np.broadcast_to(np.eye(1, dtype=complex), (2, n, 1, 1)).copy()
    ix = np.arange(n) // 10
    w[1, :, 0, 0] = np.exp(1j * 0.5 * ix)
    hd = bf.HiggsData(bf.connection_from_transports(dom, w), np.zeros((n, 1, 1), dtype=complex),
                      identity_metric(n, 1))
    with pytest.raises(ValueError, match="curvature"):
        bf.flat_from_higgs(hd, tol=1e-6)


# -------------------------------------------------------------- parallelism


def test_parallel_identity_section():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    f = identity_metric(dom.n_sites, 2)
    res = bf.parallel_section_residual(run.split, f)
    assert res < 1e-10


def test_parallel_projection_of_invariant_line():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    pi = np.broadcast_to(np.diag([1.0, 0.0]), (dom.n_sites, 2, 2)).astype(complex).copy()
    res = bf.parallel_section_residual(run.split, pi)
    assert res < 1e-8


def test_parallel_section_higgs_mode():
    dom, conn = unimodular_torus(n=12)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    hd = bf.higgs_from_harmonic(run.split)
    f = identity_metric(dom.n_sites, 2)
    assert bf.parallel_section_residual(hd, f) < 1e-10


def test_parallel_section_rejects_nonparallel_input():
    dom, conn = unimodular_torus(n=10)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    rng = np.random.default_rng(1)
    f = rng.normal(size=(dom.n_sites, 2, 2)) + 1j * rng.normal(size=(dom.n_sites, 2, 2))
    with pytest.raises(ValueError, match="parallel"):
        bf.parallel_section_residual(run.split, f)
    with pytest.raises(ValueError, match="parallel"):
        bf.parallel_section_residual(bf.higgs_from_harmonic(run.split), f)
