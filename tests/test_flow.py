import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import bundleflow as bf
from bundleflow import flow
from bundleflow import linalg as la
from bundleflow.analysis import runaway_certificate
from bundleflow.bundle import energy_hessian
from bundleflow.config import smooth_random_metric
from bundleflow.flow import (
    ENERGY_RTOL,
    FlowState,
    _drive,
    _implicit_direction,
    _implicit_floor,
    _residuals,
    _strategy,
    default_dt,
)

from util import (
    TWO_PI,
    circle_diag,
    energy_hessian_coo,
    determinant_flow_check,
    diag_metric,
    identity_metric,
    random_connection,
    random_metric,
    rough_random_metric,
    torus_diag,
    unit_hermitian_basis,
)


def implicit_step(diag: dict, dt: float) -> tuple[np.ndarray, int]:
    """The implicit direction from a metric's diagnostics, solved to CG_RTOL (eta = 0)."""
    return _implicit_direction(diag["split"], dt, eta=0.0)


def test_fixed_point_settles_with_one_history_row():
    dom = bf.build_domain("circle", 12, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.5j), 1.0])])
    h = 3.0 * identity_metric(dom.n_sites, 2)
    rep = bf.solve_harmonic(conn, h, init=FlowState(time=0.0, metric=h.copy(), dt=0.5))
    assert rep.verdict == "converged" and rep.steps == 0 and rep.trial_steps == 0
    assert len(rep.history) == 1 and rep.time == 0.0
    assert np.abs(rep.metric - h).max() == 0.0
    # a step of the same size from the fixed point stays there
    sm = bf.split_metric(conn, h)
    step = la.metric_exp_update(sm.tension, 2.0 * 0.5, sm.root)
    assert np.abs(step - h).max() < 1e-13


def test_rank1_uniform_update_is_unchanged():
    # The energy gradient of the evenly-spread rank-1 state vanishes
    # identically, so an explicit step H exp(2 dt q) leaves H fixed. The
    # driver settles such a state before stepping, so the update is applied
    # to the diagnostics directly.
    dom = bf.build_domain("circle", 20, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[2.0]], dtype=complex)])
    h = identity_metric(dom.n_sites, 1)
    sm = bf.split_metric(conn, h)
    out = la.metric_exp_update(sm.tension, 2.0 * 0.05, sm.root)
    assert np.abs(out - h).max() == 0.0


@pytest.mark.parametrize("kind, sites, lengths, rank", [
    ("torus", (9, 9), (1.0, 1.0), 2),      # 81 sites: the closed-form rank-2 kernels
    ("circle", 12, 1.0, 3),
    ("annulus", (12, 6), (TWO_PI, 1.0), 2),
])
def test_flow_steps_the_public_tension_and_energy(kind, sites, lengths, rank):
    # The flow's direction and energy are the split's tension and energy,
    # the operators the brute-force oracle checks, to the last bit.
    dom = bf.build_domain(kind, sites, lengths)
    conn = random_connection(dom, rank, seed=1)
    h = rough_random_metric(dom.n_sites, rank, seed=3)
    h[dom.boundary] = identity_metric(dom.n_sites, rank)[dom.boundary]    # K = I there
    diag = _residuals(bf.split_metric(conn, h))
    assert np.array_equal(diag["split"].tension, bf.tension(conn, h))
    assert diag["split"].energy == bf.split_metric(conn, h).energy


def test_step_preserves_positivity_for_large_dt():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([3.0, 1 / 3.0]).astype(complex)])
    h = random_metric(dom, 2, seed=1, amplitude=0.5)
    # one step of ~250x the CFL-like default, explicit and implicit; the
    # driver would reject it, so the update is applied to the diagnostics
    diag = _residuals(bf.split_metric(conn, h))
    for direction in (diag["split"].tension, implicit_step(diag, 0.2)[0]):
        stepped = la.metric_exp_update(direction, 2.0 * 0.2, diag["split"].root)
        assert np.linalg.eigvalsh(la.hermitize(stepped)).min() > 0.0
    # an additive Euler update of the same size would lose positivity
    additive = h + 2.0 * 0.2 * (h @ bf.tension(conn, h))
    assert np.linalg.eigvalsh(la.hermitize(additive)).min() < 0.0


def test_solve_harmonic_diagonal_reaches_oracle():
    dom, conn = circle_diag(n=200)
    k = identity_metric(dom.n_sites, 2)
    rep = bf.solve_harmonic(conn, k)
    assert rep.verdict == "converged"
    assert rep.residual_sup <= 1e-8
    oracle = bf.circle_harmonic_exact(np.diag([2.0, 0.5]), TWO_PI, 200)
    dev = np.abs(rep.metric - oracle).max() / np.abs(oracle).max()
    assert dev <= 5e-3


def test_solve_harmonic_converges_from_perturbed_start():
    # short circle for a healthy spectral gap; start off the fixed point
    dom = bf.build_domain("circle", 32, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=5, amplitude=0.25)
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-7))
    assert rep.verdict == "converged"
    assert rep.steps > 0
    en = rep.history[:, 3]
    assert np.all(np.diff(en) <= 1e-12 * (1.0 + en[:-1]))
    # limit commutes with the holonomy frame: off-diagonals die
    assert np.abs(rep.metric[:, 0, 1]).max() < 1e-5


def test_solve_harmonic_unitary_converges_immediately():
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.4j), np.exp(-0.1j)])])
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2))
    assert rep.verdict == "converged"
    assert rep.steps == 0


def test_solve_harmonic_jordan_diverges():
    """Non-semisimple monodromy: the flow runs away instead of settling."""
    dom = bf.build_domain("circle", 48, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    opts = bf.SolveOptions(tolerance=1e-30, divergence_threshold=30.0, max_steps=20000)
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2), opts)
    assert rep.verdict == "diverged"
    assert 30.0 < rep.logh_sup < 30.0 + 6.0
    assert (rep.history[:, 4] > 1e-30).all()
    # dt doubles along the runaway: 5,198 steps on the default schedule alone
    assert rep.steps < 2000
    assert any(note.startswith("dt doubled on ") for note in rep.notes)
    # the distance to the start grows once the runaway is under way
    sigma = rep.history[:, 9]
    assert sigma[-1] > sigma[len(sigma) // 2]


def test_runaway_verdict_names_the_invariant_subbundle():
    # The circle-runaway inputs: the metric degenerates along the invariant
    # line e1, which has no invariant complement.
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    opts = bf.SolveOptions(tolerance=1e-45, dt_growth_every=5)
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2), opts)
    assert rep.verdict == "diverged" and rep.steps <= 600 and 50.0 < rep.logh_sup < 56.0
    assert rep.rejected_steps == 0 and (rep.history[:, 4] > 1e-45).all()
    reason = rep.verdict_reason
    assert ("the metric degenerates along the invariant rank-1 sub-bundle spanned at site 0 "
            "by (1, 0) (invariance residual 0.0e+00), at angle 0.0e+00 rad") in reason
    assert reason.endswith("it has no invariant complement, so the monodromy is not "
                           "semisimple and admits no harmonic metric")


def test_runaway_certificate_finds_an_invariant_complement():
    # A metric shrinking along e2 of the split monodromy diag(2, 1/2): e2 is
    # invariant, and so is its complement e1.
    dom, conn = circle_diag(n=8, length=1.0)
    k = identity_metric(dom.n_sites, 2)
    h = diag_metric(np.tile([1e3, 1e-3], (dom.n_sites, 1)))
    clause = runaway_certificate(conn, k, h)
    assert "rank-1 sub-bundle spanned at site 0 by (0, 1)" in clause
    assert "(eigenvalue 1.000e-03)" in clause
    assert clause.endswith("it has an invariant complement")


def test_runaway_rule_leaves_runs_below_its_gate_unchanged():
    # A closed run asked for its implicit floor keeps the heat flow and its
    # runaway growth rule. Its sup|log h| (0.31) stays below a tenth of the
    # threshold, so dt keeps the default schedule: the run is, bit for bit,
    # the one at a threshold whose gate can never open.
    dom, conn = circle_diag(n=5, length=1.0)
    k = random_metric(dom, 2, seed=44, amplitude=0.25)
    opts = bf.SolveOptions(tolerance=_implicit_floor(dom))
    rep = bf.solve_harmonic(conn, k, opts)
    shut = bf.solve_harmonic(conn, k, replace(opts, divergence_threshold=1e300))
    assert rep.verdict == shut.verdict == "converged" and rep.step_kind == "explicit"
    assert rep.steps == shut.steps and np.array_equal(rep.metric, shut.metric)
    assert len(rep.notes) == 1 and rep.notes[0].startswith("explicit heat-flow step")
    assert not any(note.startswith("dt doubled") for note in rep.notes + shut.notes)


def test_runaway_rule_latch_keeps_a_converging_run_converging():
    # The same run with the threshold just above its sup|log h|: the gate is
    # open from the start, dt doubles until the first rejection closes the
    # latch, and the default schedule takes over. Doubling on every clean
    # step inside the gate instead ends max_steps near residual 5e-6.
    dom, conn = circle_diag(n=5, length=1.0)
    k = random_metric(dom, 2, seed=44, amplitude=0.25)
    opts = bf.SolveOptions(tolerance=_implicit_floor(dom), divergence_threshold=0.4,
                           max_steps=3000)
    rep = bf.solve_harmonic(conn, k, opts)
    assert rep.verdict == "converged" and rep.residual_sup < opts.tolerance
    # The note names the rule, not the run: this one converged.
    assert any(re.fullmatch(r"dt doubled on \d+ accepted steps by the runaway growth rule", note)
               for note in rep.notes)


def test_solve_harmonic_jordan_floor_is_not_converged():
    """A runaway whose residual passes below tolerance only at its roundoff
    floor is reported as precision_floor, and its energy never rises."""
    dom = bf.build_domain("circle", 8, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    opts = bf.SolveOptions(tolerance=1e-30, divergence_threshold=80.0, dt_growth_every=2)
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2), opts)
    assert rep.verdict == "precision_floor"
    assert "roundoff floor" in rep.verdict_reason
    assert rep.residual_sup < 1e-30 and rep.logh_sup > 40.0
    energy = rep.history[:, 3]
    assert np.all(np.diff(energy) <= ENERGY_RTOL * energy[:-1])


def test_energy_decrement_matches_gradient_norm():
    dom = bf.build_domain("circle", 24, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    h = random_metric(dom, 2, seed=9, amplitude=0.3)
    t = bf.tension(conn, h)
    dt = 1e-6
    e0 = bf.split_metric(conn, h).energy
    h1 = la.metric_exp_update(t, 2.0 * dt, la.check_metric(h))
    e1 = bf.split_metric(conn, h1).energy
    grad2 = float(np.sum(dom.volume * la.endo_norm2(t, la.orthonormal_frame(la.scaled_sqrt(h)))))
    assert (e1 - e0) / dt == pytest.approx(-2.0 * grad2, rel=1e-3)


def test_solve_poisson_unit_determinant():
    dom = bf.build_domain("circle", 48, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    x = dom.coords()[:, 0]
    phi = 0.3 * np.cos(TWO_PI * x)
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    rep = bf.solve_poisson(conn, k)
    assert rep.verdict == "converged"
    dets = np.linalg.det(np.linalg.solve(k, rep.metric))
    assert np.abs(dets - 1.0).max() < 1e-12
    assert rep.tracefree_residual_sup < 1e-8
    # closed domain: the Poisson function vanishes with the tension
    assert np.abs(rep.poisson_function).max() < 1e-6


def test_solve_poisson_dirichlet_pins_boundary():
    dom = bf.build_domain("rectangle", (10, 10), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    k = random_metric(dom, 2, seed=3, amplitude=0.3)
    rep = bf.solve_poisson(conn, k)
    assert rep.verdict == "converged"
    bnd = dom.boundary
    assert np.abs(rep.metric[bnd] - k[bnd]).max() == 0.0
    dets = np.linalg.det(np.linalg.solve(k, rep.metric))
    assert np.abs(dets - 1.0).max() < 1e-12


def test_dirichlet_run_starts_from_the_boundary_data():
    # A start metric that is off K on boundary sites is reset to K there before
    # the first split. This conformal start converges at step 0, and det
    # normalization, whose f vanishes on the boundary, keeps K there bit for bit.
    dom = bf.build_domain("rectangle", (9, 9), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    k = identity_metric(dom.n_sites, 2)
    start = k * np.exp(np.linspace(0.0, 0.5, dom.n_sites))[:, None, None]
    rep = bf.solve_poisson(conn, k, init=FlowState(time=0.0, metric=start, dt=0.0))
    assert rep.verdict == "converged" and rep.steps == 0
    assert np.array_equal(rep.metric[dom.boundary], k[dom.boundary])
    assert np.abs(rep.metric - k).max() < 1e-14


def test_two_flow_contraction_dirichlet():
    dom = bf.build_domain("rectangle", (12, 12), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    k = random_metric(dom, 2, seed=4, amplitude=0.25)
    bump = np.sin(np.pi * dom.coords() / 1.0).prod(axis=1)
    perturb = la.selfadjoint_part(
        0.4 * bump[:, None, None] * np.array([[1.0, 0.3j], [-0.3j, -1.0]]), k, la.scaled_sqrt(k)
    )
    h0 = la.metric_exp_update(perturb, 1.0, la.check_metric(k))
    # Both runs start from the same dt; with no rejection they take the same steps.
    dt = default_dt(dom, implicit=True)
    metrics_a, metrics_b = [], []
    rep_a = bf.solve_harmonic(conn, k, init=FlowState(time=0.0, metric=k.copy(), dt=dt),
                              callback=lambda s: metrics_a.append(s.metric.copy()))
    rep_b = bf.solve_harmonic(conn, k, init=FlowState(time=0.0, metric=h0, dt=dt),
                              callback=lambda s: metrics_b.append(s.metric.copy()))
    assert rep_a.rejected_steps == rep_b.rejected_steps == 0
    steps = min(len(metrics_a), len(metrics_b))
    sigmas = np.array(
        [bf.donaldson_distance(metrics_a[i], metrics_b[i])[1] for i in range(steps)]
    )
    assert np.all(np.diff(sigmas) <= 1e-10 * (1.0 + sigmas[:-1]))
    assert bf.donaldson_distance(rep_a.metric, rep_b.metric)[1] <= 1e-6


def test_determinant_rate_matches_tension_trace():
    dom = bf.build_domain("circle", 24, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=12, amplitude=0.3)
    defect = determinant_flow_check(conn, k, dt=1e-5, steps=3)
    assert defect < 1e-3


def test_conformal_shift_of_tension_is_exact_laplacian():
    """Scaling H by e^f shifts the tension by lap(f)/2 exactly (interior)."""
    dom = bf.build_domain("torus", (12, 12), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.eye(2)])
    h = random_metric(dom, 2, seed=2, amplitude=0.3)
    x = dom.coords()
    f = 0.2 * np.cos(TWO_PI * x[:, 0]) * np.sin(TWO_PI * x[:, 1])
    h2 = h * np.exp(f)[:, None, None]
    t1 = bf.tension(conn, h)
    t2 = bf.tension(conn, h2)
    shift = t2 - t1
    expected = 0.5 * bf.laplacian(dom, f)
    assert np.abs(shift - expected[:, None, None] * np.eye(2)).max() < 1e-10


def test_trace_identity_for_determinants():
    """tr T_H - tr T_K equals half the Laplacian of log det h.

    The edge splitting makes the trace parts telescope exactly, so the
    discrete identity holds to roundoff rather than to truncation order.
    """
    for n in (16, 32):
        dom = bf.build_domain("torus", (n, n), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.eye(2)])
        k = random_metric(dom, 2, seed=6, amplitude=0.25)
        h = random_metric(dom, 2, seed=7, amplitude=0.25)
        tr_diff = np.einsum("nii->n", bf.tension(conn, h) - bf.tension(conn, k)).real
        logdet = np.log(np.abs(np.linalg.det(np.linalg.solve(k, h))))
        gap = np.abs(tr_diff - 0.5 * bf.laplacian(dom, logdet)).max()
        assert gap < 1e-10


# ------------------------------------------------- implicit Dirichlet step


@pytest.mark.parametrize("kind, sites, lengths", [
    ("annulus", (12, 6), (TWO_PI, 0.5)),
    ("rectangle", (9, 9), (1.0, 1.0)),
])
def test_implicit_dirichlet_matches_heat_flow(kind, sites, lengths):
    dom = bf.build_domain(kind, sites, lengths)
    gens = [np.diag([2.0, 0.5]).astype(complex)] if kind == "annulus" else []
    conn = bf.from_monodromy(dom, gens, rank=2)
    k = random_metric(dom, 2, seed=8, amplitude=0.3)
    opts = bf.SolveOptions(tolerance=1e-9)
    implicit = bf.solve_poisson(conn, k, opts)
    # the same problem through the explicit heat direction
    heat = _drive(conn, k, opts, tracefree=True, implicit=False)
    assert implicit.verdict == heat.verdict == "converged"
    assert implicit.steps < heat.steps / 10
    assert implicit.phase_seconds["solve"] > 0.0 and heat.phase_seconds["solve"] == 0.0
    assert np.abs(implicit.metric - heat.metric).max() <= 1e-8


def test_implicit_direction_tends_to_the_tension():
    # (M + dt L) S = M Q gives S = Q - dt M^{-1} L Q + O(dt^2) on the interior,
    # and S = 0 on the boundary.
    dom = bf.build_domain("rectangle", (8, 8), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    diag = _residuals(bf.split_metric(conn, random_metric(dom, 2, seed=2, amplitude=0.3)))
    q = diag["split"].tension
    inner = dom.interior_mask()
    errors = []
    for dt in (1e-4, 1e-5):
        s = implicit_step(diag, dt)[0]
        assert np.abs(s[dom.boundary]).max() == 0.0
        errors.append(np.abs(s - q)[inner].max())
    assert errors[1] < 1e-2 * np.abs(q[inner]).max()
    assert errors[1] / errors[0] == pytest.approx(0.1, rel=0.05)


@pytest.mark.parametrize("kind, sites, lengths, rank", [
    ("annulus", (7, 5), (TWO_PI, 1.0), 2),
    ("annulus", (7, 5), (TWO_PI, 1.0), 3),
    ("torus", (5, 4), (1.0, 1.0), 2),
    ("torus", (5, 4), (1.0, 1.0), 3),
])
def test_implicit_direction_solves_the_assembled_system(kind, sites, lengths, rank, monkeypatch):
    # On rough inputs the matrix-free energy Hessian acts as the assembled
    # COO matrix, the CG direction is the direct solution of
    # (M + dt Hess) x = M q in its coordinates, and a direction capped at one
    # CG iteration still pairs positively with the tension: it descends.
    dom = bf.build_domain(kind, sites, lengths)
    conn = random_connection(dom, rank, seed=3)
    h = rough_random_metric(dom.n_sites, rank, seed=4)
    diag = _residuals(bf.split_metric(conn, h))
    frame = la.orthonormal_frame(diag["split"].root)
    g, g_inv = frame
    sites = np.flatnonzero(dom.interior_mask())
    basis = unit_hermitian_basis(rank)
    mat = energy_hessian_coo(diag["split"], frame, sites).toarray()
    assert np.abs(mat - mat.T).max() <= 1e-13 * np.abs(mat).max()

    def coords(field):
        return np.einsum("kij,nji->nk", basis, field[sites]).real.ravel()

    def from_coords(x):
        field = np.zeros_like(h)
        field[sites] = np.einsum("nk,kij->nij", x.reshape(len(sites), -1), basis)
        return field

    x = np.random.default_rng(5).normal(size=mat.shape[0])
    action = energy_hessian(diag["split"], frame)(from_coords(x))
    assert np.abs(action[dom.boundary]).max(initial=0.0) == 0.0
    assert np.abs(coords(action) - mat @ x).max() <= 1e-13 * np.abs(mat @ x).max()

    dt = default_dt(dom, implicit=True)
    q = diag["split"].tension
    mass = np.repeat(dom.volume[sites], rank * rank)
    direct = np.linalg.solve(np.diag(mass) + dt * mat, mass * coords(g @ q @ g_inv))
    want = g_inv @ from_coords(direct) @ g
    got, iterations = implicit_step(diag, dt)
    assert iterations > 1
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    monkeypatch.setattr(flow, "CG_MAX_ITERATIONS", 1)
    capped, iterations = implicit_step(diag, dt)
    assert iterations == 1 and np.abs(capped - want).max() > 1e-3 * np.abs(want).max()
    assert np.sum(dom.volume * np.einsum("nij,nji->n", q, capped).real) > 0.0


def test_implicit_step_count_is_flat_in_n():
    steps = []
    for n in (9, 17, 33):
        dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
        k = smooth_random_metric(dom, 2, 1, 0.3)
        rep = bf.solve_poisson(conn, k, bf.SolveOptions(tolerance=1e-8))
        assert rep.verdict == "converged"
        steps.append(rep.steps)
    assert max(steps) <= 1.5 * min(steps), steps


# ------------------------------------------------- implicit step on closed domains


def test_closed_circle_step_count_is_flat_in_n():
    # The harmonic metric of diag(2, 1/2) on the circle of length L has
    # energy (ln 2)^2 / L per eigenvalue.
    steps = []
    for n in (16, 32, 64, 128, 256):
        dom, conn = circle_diag(n=n, length=1.0)
        k = random_metric(dom, 2, seed=44, amplitude=0.25)
        rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-7))
        assert rep.verdict == "converged" and rep.step_kind == "implicit"
        assert rep.energy == pytest.approx(2.0 * np.log(2.0) ** 2, rel=1e-12)
        steps.append(rep.steps)
    assert max(steps) <= 1.5 * min(steps), steps


def test_torus_poisson_implicit_matches_heat_flow():
    # The monodromy is reducible, so the Poisson metrics form a family:
    # compare the two runs by residual and energy, not by metric.
    dom, conn = torus_diag(n=6, length=1.0)
    k = random_metric(dom, 2, seed=6, amplitude=0.3)
    opts = bf.SolveOptions(tolerance=1e-9)
    implicit = bf.solve_poisson(conn, k, opts)
    heat = _drive(conn, k, opts, tracefree=True, implicit=False)
    assert implicit.verdict == heat.verdict == "converged"
    assert (implicit.step_kind, heat.step_kind) == ("implicit", "explicit")
    assert max(implicit.tracefree_residual_sup, heat.tracefree_residual_sup) < opts.tolerance
    assert implicit.energy == pytest.approx(heat.energy, rel=1e-10)
    assert implicit.steps < heat.steps / 10
    # every implicit trial runs CG; the explicit step runs none
    assert implicit.cg_iterations >= implicit.trial_steps > 0
    assert 0 < implicit.cg_iterations_max <= implicit.cg_iterations
    assert heat.cg_iterations == heat.cg_iterations_max == 0
    for run in (implicit, heat):
        en = run.history[:, 3]
        assert np.all(np.diff(en) <= 1e-12 * (1.0 + en[:-1]))


def _rank3_circle():
    """A non-normal rank-3 monodromy on 12 sites, like the benchmark's circle-harmonic."""
    dom = bf.build_domain("circle", 12, 1.0)
    g = np.eye(3) + 0.5 * np.random.default_rng(0).normal(size=(3, 3))
    conn = bf.from_monodromy(dom, [(g @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(g))
                                   .astype(complex)])
    return dom, conn, random_metric(dom, 3, seed=0, amplitude=0.25)


def test_closed_run_just_above_the_floor_converges_implicitly():
    # Asked for 1.5x the floor, the implicit step's residual gets there (the
    # floor holds the solves' roundoff with room to spare).
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1.5 * _implicit_floor(dom)))
    assert rep.verdict == "converged" and rep.step_kind == "implicit"
    assert rep.steps < 30 and not rep.notes


def test_ratio_growth_cap_keeps_a_crawl_to_the_floor_converging():
    # The monodromy is reducible, so its harmonic metrics form a family, and
    # along that kernel S = Q at every dt: the step 2 dt S drifts with dt. At
    # 1.01x the floor the residual ratio keeps growing dt; without the cap
    # (IMPLICIT_DT_CAP) the run ended diverged after 1,653 steps.
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1.01 * _implicit_floor(dom)))
    assert rep.verdict == "converged" and rep.step_kind == "implicit"
    assert rep.steps < 1000


def test_implicit_jordan_runaway_keeps_its_verdict():
    # The implicit step on the 16-site Jordan circle, asked for 1e-8, reaches
    # it at sup|log h| 12.785 along the runaway, where the residual ratio is
    # near 1: only the x1.2 schedule, which runs alongside the ratio growth,
    # moves dt. With the ratio rule in its place the run ended max_steps at
    # 20,000 steps; the Laplacian step took 1,402.
    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2),
                            bf.SolveOptions(tolerance=1e-8))
    assert rep.verdict == "converged" and rep.step_kind == "implicit"
    assert rep.logh_sup == pytest.approx(12.785, abs=0.01)
    assert rep.steps < 1402


def test_stalled_run_reports_its_energy_rises():
    # Restarted from its own converged metric and asked for a residual no
    # step can reach, the explicit flow sits at the energy's roundoff: some
    # accepted steps raise it within the slack. The run trace counts them and
    # the verdict reason names them. The start run (20x the floor) solves
    # inexactly, and the count depends on its last bits.
    dom, conn, k = _rank3_circle()
    start = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-11))
    assert start.verdict == "converged" and start.steps == 8
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-300, max_steps=100),
                            init=FlowState(time=0.0, metric=start.metric.copy(), dt=0.0))
    assert rep.verdict == "max_steps" and rep.steps == 100 and rep.step_kind == "explicit"
    assert rep.energy_rises == 56
    assert rep.trial_steps == rep.steps + rep.rejected_steps
    assert rep.verdict_reason.endswith("; 56 of 100 accepted steps raised the energy")


def test_inexact_solves_halve_the_cg_iterations():
    # Solved to CG_RTOL, the rank-3 circle at tolerance 1e-7 took 7 steps and
    # 229 CG iterations; stopped at the forcing term, the same 7 steps take 42.
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-7))
    assert rep.verdict == "converged" and rep.step_kind == "implicit"
    assert rep.steps == rep.trial_steps == 7
    assert rep.cg_iterations <= 229 // 2


@pytest.mark.parametrize("factor, exact", [(1.5, True), (10.0, True), (10.5, False),
                                           (1e6, False)])
def test_forcing_term_follows_the_residuals_unless_near_the_floor(factor, exact, monkeypatch):
    # Eisenstat-Walker choice 2: ETA_MAX on the first trial, then
    # min(ETA_MAX, 0.9 (r / r_prev)^2) from the run's residuals; a run asked
    # for at most 10x the floor solves every trial to CG_RTOL (eta = 0).
    etas = []

    def recorded(sm, dt, eta):
        etas.append(eta)
        return _implicit_direction(sm, dt, eta)

    monkeypatch.setattr(flow, "_implicit_direction", recorded)
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=factor * _implicit_floor(dom)))
    assert rep.verdict == "converged" and rep.rejected_steps == 0
    residuals = rep.history[:, 4]
    assert len(etas) == rep.steps == len(residuals) - 1
    if exact:
        assert etas == [0.0] * rep.steps
    else:
        assert etas == [flow.ETA_MAX] + [min(flow.ETA_MAX, 0.9 * (r / r_prev) ** 2)
                                         for r_prev, r in zip(residuals, residuals[1:-1])]
        assert 0.0 < min(etas) < flow.ETA_MAX


@pytest.mark.parametrize("tolerance, dt, kind", [(1e-14, 1e3, "explicit"),
                                                 (1e-7, 1e20, "implicit")])
def test_an_overflowing_trial_is_a_rejected_trial(tolerance, dt, kind):
    # From a dt far too large, the trial metric H exp(2 dt S) overflows: the
    # trial is rejected, as a trial that raises the energy is. The explicit
    # step halves dt; the implicit step restarts at IMPLICIT_DT_CAP default_dt.
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=tolerance, max_steps=5),
                            init=FlowState(time=0.0, metric=k.copy(), dt=dt))
    assert rep.step_kind == kind and rep.verdict == "max_steps" and rep.steps == 5
    assert rep.rejected_steps > 0 and rep.trial_steps == rep.steps + rep.rejected_steps
    assert np.isfinite(rep.metric).all() and np.isfinite(rep.history).all()
    if kind == "explicit":
        halvings = np.log2(dt / rep.history[1, 2])
        assert halvings == int(halvings) >= 1
    else:
        assert rep.history[1, 2] == flow.IMPLICIT_DT_CAP * default_dt(dom, implicit=True)


def test_an_implicit_trial_rejected_above_the_cap_restarts_at_it():
    # From dt = 1e100 the first implicit trial overflows. Halving from there
    # took 276 rejections and 50,053 CG iterations to reach a dt that steps;
    # restarting at the cap takes one rejection, and the run its usual 7 steps.
    dom, conn, k = _rank3_circle()
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(tolerance=1e-7),
                            init=FlowState(time=0.0, metric=k.copy(), dt=1e100))
    assert rep.verdict == "converged" and rep.step_kind == "implicit"
    assert rep.steps == 7 and rep.rejected_steps == 1
    assert rep.history[1, 2] == flow.IMPLICIT_DT_CAP * default_dt(dom, implicit=True)
    assert rep.cg_iterations < 500


def test_strategy_switches_at_the_implicit_floor():
    # The driver starts from the state's dt, or from the default dt of the
    # step the strategy takes when it is 0; a run of no steps shows it in its
    # one history row.
    def start_dt(conn, implicit, opts, dt=0.0):
        init = FlowState(time=0.0, metric=identity_metric(conn.domain.n_sites, 2), dt=dt)
        run = _drive(conn, init.metric.copy(), replace(opts, max_steps=0), tracefree=False,
                     implicit=implicit, init=init)
        return run.history[0][2]

    dom, conn = circle_diag(n=16, length=1.0)
    floor = _implicit_floor(dom)
    for tol, implicit in ((floor * (1 - 1e-9), False), (floor, False),
                          (floor * (1 + 1e-9), True)):
        opts = bf.SolveOptions(tolerance=tol)
        chosen, notes = _strategy(conn, opts)
        assert chosen == implicit
        assert start_dt(conn, chosen, opts) == default_dt(dom, implicit=implicit)
        assert notes == ([] if implicit else [
            f"explicit heat-flow step: tolerance {tol:.3e} is at or below the implicit "
            f"step's roundoff floor {floor:.3e}"])
    # A domain with a boundary takes the implicit step on either side of the
    # floor, without a note; a state's positive dt is the starting dt.
    rect = bf.build_domain("rectangle", (6, 6), (1.0, 1.0))
    rect_conn = bf.from_monodromy(rect, [], rank=2)
    for factor in (0.5, 2.0):
        opts = bf.SolveOptions(tolerance=factor * _implicit_floor(rect))
        assert _strategy(rect_conn, opts) == (True, [])
        assert start_dt(rect_conn, True, opts) == default_dt(rect, implicit=True)
        assert start_dt(rect_conn, True, opts, dt=0.125) == 0.125


def test_report_carries_the_split_of_its_own_metric():
    # The report's split is taken at the very array it reports, whatever the
    # verdict: det-normalized Poisson, max_steps, diverged, every exhaustion level.
    # A det-normalized run carries its final split by the conformal law
    # (bundle.conformal_split), whose tension agrees with a fresh split's to
    # roundoff; every other run reports the fresh split's tension bit for bit.
    def check(rep, conn):
        assert rep.split.metric is rep.metric and rep.split.flat is conn
        fresh = bf.tension(conn, rep.metric)
        if rep.verdict == "converged" and rep.poisson_function is not None:
            assert np.abs(rep.split.tension - fresh).max() <= 1e-13 * np.abs(fresh).max()
        else:
            assert np.array_equal(rep.split.tension, fresh)
        assert rep.energy == rep.split.energy

    dom = bf.build_domain("torus", (6, 6), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])])
    rep = bf.solve_poisson(conn, random_metric(dom, 2, seed=4, amplitude=0.3))
    assert rep.verdict == "converged"
    check(rep, conn)
    trace = np.einsum("nii->n", rep.split.tension).real / 2
    assert np.array_equal(rep.poisson_function, trace)

    dom, conn = circle_diag(n=12)
    rep = bf.solve_harmonic(conn, random_metric(dom, 2, seed=5, amplitude=0.3),
                            bf.SolveOptions(max_steps=3))
    assert rep.verdict == "max_steps"
    check(rep, conn)

    dom = bf.build_domain("circle", 16, 1.0)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2),
                            bf.SolveOptions(tolerance=1e-45, dt_growth_every=5))
    assert rep.verdict == "diverged"
    check(rep, conn)

    dom = bf.build_domain("annulus", (12, 9), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=21, amplitude=0.3)
    reports, _ = bf.exhaustion_solve(conn, k, [4, 6], bf.SolveOptions(max_steps=2))
    assert [r.verdict for r in reports] == ["max_steps", "max_steps"]
    reports += bf.exhaustion_solve(conn, k, [4, 6])[0]
    assert [r.verdict for r in reports[2:]] == ["converged", "converged"]
    for rep in reports:
        assert rep.split.metric is rep.metric
        check(rep, rep.split.flat)


def test_exhaustion_unitary_is_trivial():
    dom = bf.build_domain("annulus", (16, 9), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([np.exp(0.3j), 1.0])])
    k = identity_metric(dom.n_sites, 2)
    reports, monitors = bf.exhaustion_solve(conn, k, [4, 6, 8])
    for rep, mon in zip(reports, monitors):
        assert rep.verdict == "converged"
        assert mon.sup_log_h < 1e-8


def test_exhaustion_largest_level_equals_single_dirichlet():
    dom = bf.build_domain("annulus", (16, 9), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    x = dom.coords()
    phi = 0.2 * np.sin(np.pi * x[:, 1])
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    reports, _ = bf.exhaustion_solve(conn, k, [8])
    direct = bf.solve_poisson(conn, k)
    assert np.abs(reports[0].metric - direct.metric).max() < 1e-12


@pytest.mark.parametrize("kind, sites, lengths, levels", [
    ("annulus", (12, 9), (TWO_PI, 1.0), [4, 6, 8]),
    # rectangle bands are bounding boxes around the centre: 5x5, 7x7, 9x9
    ("rectangle", (9, 9), (1.0, 1.0), [2, 3, 4]),
])
def test_exhaustion_warm_start_matches_cold_levels(kind, sites, lengths, levels):
    # Each level warm-started from the one below it against an independent
    # solve from K on the same sublevel domain: the Dirichlet solution is
    # unique, so verdicts agree and the metrics agree within the tolerance.
    dom = bf.build_domain(kind, sites, lengths)
    gens = [np.diag([2.0, 0.5]).astype(complex)] if kind == "annulus" else []
    conn = bf.from_monodromy(dom, gens, rank=2)
    k = random_metric(dom, 2, seed=21, amplitude=0.3)
    opts = bf.SolveOptions(tolerance=1e-8)
    reports, monitors = bf.exhaustion_solve(conn, k, levels, opts)
    for level, rep, mon in zip(levels, reports, monitors):
        sub, idx = bf.sublevel_domain(dom, level)
        cold = bf.solve_poisson(bf.from_monodromy(sub, gens, rank=2), k[idx],
                                bf.SolveOptions(tolerance=1e-8))
        assert rep.verdict == cold.verdict == "converged"
        assert mon.n_sites == sub.n_sites
        assert np.abs(rep.metric - cold.metric).max() <= opts.tolerance, level
    assert np.isnan(monitors[0].cauchy_sup)
    assert all(m.cauchy_sup > 0 for m in monitors[1:])


def test_exhaustion_unconverged_level_is_not_carried_on():
    # A level that ends max_steps holds no Dirichlet solution, so the next
    # level starts from K and ends exactly as a solve on its own does.
    dom = bf.build_domain("annulus", (12, 9), (TWO_PI, 1.0))
    gens = [np.diag([2.0, 0.5]).astype(complex)]
    conn = bf.from_monodromy(dom, gens)
    k = random_metric(dom, 2, seed=21, amplitude=0.3)
    # The implicit Dirichlet step converges level 4 in 4 steps.
    opts = bf.SolveOptions(tolerance=1e-8, max_steps=2)
    reports, _ = bf.exhaustion_solve(conn, k, [4, 6], opts)
    assert reports[0].verdict == "max_steps"
    sub, idx = bf.sublevel_domain(dom, 6)
    cold = bf.solve_poisson(bf.from_monodromy(sub, gens), k[idx], opts)
    assert reports[1].verdict == cold.verdict
    assert reports[1].steps == cold.steps
    assert np.array_equal(reports[1].metric, cold.metric)


def test_exhaustion_cauchy_monitor_compact_and_decaying_defect():
    dom = bf.build_domain("annulus", (8, 11), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    r = dom.coords()[:, 1]
    levels, tol, amp = [5, 7, 9, 10], 1e-8, 0.3

    # Compact defect (r < 0.4): every band here ends beyond it, the boundary
    # data is the identity, so all levels find H = I and agree, and a level
    # started from the one below it has next to nothing left to do (a start
    # from K takes 4 steps at each).
    phi = np.where(r < 0.4, amp * np.sin(np.pi * r / 0.4) ** 2, 0.0)
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    reports, monitors = bf.exhaustion_solve(conn, k, levels, bf.SolveOptions(tolerance=tol))
    assert all(rep.verdict == "converged" for rep in reports)
    assert np.isnan(monitors[0].cauchy_sup)
    # the distance is quadratic in the metric difference
    assert max(m.cauchy_sup for m in monitors[1:]) <= tol ** 2
    assert max(rep.steps for rep in reports[1:]) <= 2

    # Decaying defect phi = A e^{-r/r0}. The solution on the band of radius R is
    # diag(e^u, e^-u) with u linear from u(0) = A to u(R) = phi(R), since the
    # radial lattice Laplacian of a linear function vanishes. Between radii
    # R1 < R2 the distance tr(H1^-1 H2) + tr(H2^-1 H1) - 4 = 4(cosh(u2 - u1) - 1)
    # is largest at r = R1.
    phi = amp * np.exp(-r / 0.2)
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    reports, monitors = bf.exhaustion_solve(conn, k, levels, bf.SolveOptions(tolerance=tol))
    assert all(rep.verdict == "converged" for rep in reports)
    radii = [lv * dom.spacings[1] for lv in levels]
    for r1, r2, mon in zip(radii[:-1], radii[1:], monitors[1:]):
        u2_at_r1 = amp + (amp * np.exp(-r2 / 0.2) - amp) * r1 / r2
        want = 4.0 * (np.cosh(u2_at_r1 - amp * np.exp(-r1 / 0.2)) - 1.0)
        assert mon.cauchy_sup == pytest.approx(want, rel=1e-6)


def test_exhaustion_empty_interior_errors():
    dom = bf.build_domain("annulus", (16, 9), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    with pytest.raises(ValueError, match="interior"):
        bf.exhaustion_solve(conn, identity_metric(dom.n_sites, 2), [1])


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_non_finite_start_dt_is_refused(dt):
    # A dt of 0 or less means the default one; a dt that is not finite is refused.
    dom = bf.build_domain("circle", 12, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=3)
    with pytest.raises(ValueError, match=r"^dt (nan|inf) of the flow state must be finite$"):
        bf.solve_harmonic(conn, k, init=FlowState(time=0.0, metric=k.copy(), dt=dt))


def test_solver_option_validation():
    with pytest.raises(ValueError):
        bf.SolveOptions(tolerance=-1.0).validate()
    # NaN (every comparison with it is false) and infinity are refused, and
    # each message starts with its field's name, which a config error names
    for bad in ({"tolerance": float("nan")}, {"tolerance": float("inf")},
                {"divergence_threshold": float("nan")},
                {"divergence_threshold": float("inf")}, {"max_steps": -5},
                {"dt_growth_every": 0}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
            bf.SolveOptions(**bad).validate()
    bf.SolveOptions(max_steps=0).validate()


# ------------------------------------------------- one factorization per trial


def test_one_metric_factorization_per_trial(monkeypatch):
    # A trial factors its metric once (linalg.check_metric), and the step from
    # an accepted metric reuses that root: per trial one sqrt_pair, whose eigh
    # is joined by one eigh per axis for the edge comparisons and one for the
    # exponential update, and one eigvalsh for the relative spectrum. Per
    # solve, on top of the start metric's split and monitors, K is factored
    # once and nothing takes its eigvalsh: a run started at K takes K's root
    # from the start split, a run started elsewhere from the check that
    # validates K. The counts are taken at the linalg entry points, on a torus
    # whose edge batches are below SMALL_BATCH (numpy/LAPACK) and on one above
    # it (the closed forms), and read off two solves that differ only in length.
    counts: Counter = Counter()

    def counted(name):
        fn = getattr(la, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(la, name, wrapper)

    for name in ("sqrt_pair", "metric_exp_update", "eigh", "eigvalsh"):
        counted(name)
    above = int(np.ceil(np.sqrt(la.SMALL_BATCH))) + 1
    for n in (6, above):
        dom, conn = torus_diag(n=n, length=1.0)
        assert (dom.n_sites < la.SMALL_BATCH) == (n == 6)
        k = random_metric(dom, 2, seed=7, amplitude=0.3)
        elsewhere = random_metric(dom, 2, seed=8, amplitude=0.3)
        for start, k_factorizations in ((None, 0), (elsewhere, 1)):

            def run(steps: int) -> Counter:
                counts.clear()
                opts = bf.SolveOptions(tolerance=1e-14, max_steps=steps)
                init = None if start is None else FlowState(time=0.0, metric=start.copy(),
                                                            dt=0.0)
                rep = bf.solve_poisson(conn, k, opts, init=init)
                assert rep.verdict == "max_steps" and rep.steps == steps
                assert rep.rejected_steps == 0
                return Counter(counts)

            short, long = run(3), run(8)
            per_trial = {name: (long[name] - short[name]) / 5 for name in long}
            assert per_trial == {"sqrt_pair": 1, "metric_exp_update": 1,
                                 "eigh": dom.dim + 2, "eigvalsh": 1}, n
            per_solve = {name: short[name] - 3 * per_trial[name] for name in short}
            assert per_solve == {"sqrt_pair": 1 + k_factorizations, "metric_exp_update": 0,
                                 "eigh": dom.dim + 1 + k_factorizations, "eigvalsh": 1}, n


def test_sigma_from_relative_eigenvalues_matches_trace_formula():
    dom = bf.build_domain("circle", 10, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=11, amplitude=0.4)
    h = random_metric(dom, 2, seed=12, amplitude=0.6)

    def trace_formula(metric):
        return (np.einsum("nii->n", np.linalg.solve(k, metric)).real
                + np.einsum("nii->n", np.linalg.solve(metric, k)).real - 4.0)

    eigs = la.rel_eigvals(h, la.orthonormal_frame(la.check_metric(k))[1])
    via_eigs = la.donaldson_sigma(eigs)
    expected = trace_formula(h)
    assert expected.min() > 1e-2
    assert np.abs(via_eigs - expected).max() <= 1e-12 * np.abs(expected).max()
    # the flow's reported sigma is the same quantity
    opts = bf.SolveOptions(max_steps=1)
    rep = bf.solve_harmonic(conn, k, opts, init=FlowState(time=0.0, metric=h, dt=1e-3))
    assert rep.steps == 1
    assert rep.history[-1][9] == pytest.approx(trace_formula(rep.metric).max(), rel=1e-12)


def test_sigma_monitor_resolves_a_metric_near_the_reference():
    # 1e-9 from K the trace form sum(lambda + 1/lambda) - 2r reads roundoff;
    # the monitor must read the Donaldson distance, about 1e-18.
    dom = bf.build_domain("circle", 10, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    k = random_metric(dom, 2, seed=11, amplitude=0.4)
    h = k * np.exp(1e-9 * np.cos(TWO_PI * dom.coords()[:, 0]))[:, None, None]
    rep = bf.solve_harmonic(conn, k, bf.SolveOptions(max_steps=0),
                            init=FlowState(time=0.0, metric=h, dt=1e-3))
    distance = bf.donaldson_distance(h, k)[1]
    assert 1e-19 < distance < 1e-17
    assert rep.sigma_sup == rep.history[-1][9] == distance


def _malformed_metric(kind: str, n: int) -> np.ndarray:
    h = identity_metric(n, 2)
    if kind == "non_hermitian":
        h[2, 0, 1] = 0.5
    elif kind == "non_positive":
        h[2] = [[1.0, 2.0], [2.0, 1.0]]
    elif kind == "negative_diagonal":
        h[2] = np.diag([-1.0, 1.0])
    else:
        h[2, 0, 1] = h[2, 1, 0] = np.nan
    return h


@pytest.mark.parametrize("kind, message", [
    ("non_hermitian", "not Hermitian"),
    ("non_positive", "not positive definite"),
    ("negative_diagonal", "not positive definite"),
    ("not_finite", "not finite"),
])
def test_malformed_metric_is_a_clean_error(kind, message):
    dom = bf.build_domain("circle", 6, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    h = _malformed_metric(kind, dom.n_sites)
    # a square root of a negative diagonal would raise FloatingPointError here
    with np.errstate(invalid="raise"):
        with pytest.raises(ValueError, match=message):
            bf.split_metric(conn, h)
        # K is refused with the same message whether the run starts at K,
        # whose start split checks it, or elsewhere, where K is checked first.
        for init in (None, FlowState(time=0.0, metric=identity_metric(dom.n_sites, 2), dt=0.0)):
            with pytest.raises(ValueError, match=f"^metric field is {message}"):
                bf.solve_harmonic(conn, h, init=init)
        if kind != "non_hermitian":
            with pytest.raises(ValueError, match=message):
                la.scaled_sqrt(h)
