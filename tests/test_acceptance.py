"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers. Criterion 2 checks the harmonic solve against closed forms twice:
exactness on the circle, where the lattice fixed point equals the sampled
closed form, and second-order refinement on a Dirichlet rectangle, where the
discrete harmonic interpolant carries a genuine h^2 truncation error.
Criterion 3 checks that the unipotent circle monodromy, which admits no
harmonic metric, is reported as diverged at threshold 50 with a residual
that stays resolved (above 1e-45) all the way.
"""
import numpy as np
import yaml

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.analysis import axis_loop
from bundleflow.checkpoint import load_checkpoint
from bundleflow.cli import run_scenario
from bundleflow.flow import FlowState, default_dt

from util import (
    TWO_PI,
    diag_metric,
    identity_metric,
    random_connection,
    random_metric,
    rough_random_metric,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# --------------------------------------------------------------------------
def test_criterion_1_gradient_flow_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for i in range(12):
        n = int(rng.integers(8, 25))
        rank = 1 + (i % 2)
        dom = bf.build_domain("circle", n, float(rng.uniform(1.0, TWO_PI)))
        conn = random_connection(dom, rank, seed=100 + i)
        h = rough_random_metric(dom.n_sites, rank, seed=200 + i)
        t_closed = bf.tension(conn, h)
        t_brute = bf.brute_force_tension(conn, h)
        scale = max(np.abs(t_closed).max(), 1e-12)
        worst = max(worst, np.abs(t_closed - t_brute).max() / scale)
        count += 1
    for i in range(8):
        n = int(rng.integers(4, 7))
        rank = 2 if i % 3 else 1
        dom = bf.build_domain("torus", (n, n), (1.5, 2.0))
        conn = random_connection(dom, rank, seed=300 + i)
        h = rough_random_metric(dom.n_sites, rank, seed=400 + i)
        t_closed = bf.tension(conn, h)
        t_brute = bf.brute_force_tension(conn, h)
        scale = max(np.abs(t_closed).max(), 1e-12)
        worst = max(worst, np.abs(t_closed - t_brute).max() / scale)
        count += 1
    ok = worst <= 1e-4
    assert report(
        1, ok, f"tension matches brute-force energy gradient on {count} random "
        f"instances (worst relative error {worst:.3e} <= 1e-4)"
    )


# --------------------------------------------------------------------------
def _harmonic_oracle_deviation(n: int) -> tuple[float, bf.RunReport]:
    dom = bf.build_domain("circle", n, TWO_PI)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2))
    oracle = bf.circle_harmonic_exact(np.diag([2.0, 0.5]), TWO_PI, n)
    dev = float(np.abs(rep.metric - oracle).max() / np.abs(oracle).max())
    return dev, rep


def test_criterion_2_harmonic_oracle():
    dev, rep = _harmonic_oracle_deviation(200)
    bound = 5.0 * (TWO_PI / 200) ** 2
    ok = rep.verdict == "converged" and rep.residual_sup <= 1e-8 and dev <= bound
    assert report(
        2, ok, f"200-site harmonic solve: verdict {rep.verdict}, sup tension "
        f"{rep.residual_sup:.2e} <= 1e-8, oracle deviation {dev:.2e} <= {bound:.2e}"
    )


def _rectangle_oracle_deviation(n: int) -> tuple[float, bf.RunReport]:
    """Dirichlet harmonic solve on the unit square against diag(e^u, e^-u)."""
    dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
    conn = bf.from_monodromy(dom, [], rank=2)
    oracle = bf.rectangle_harmonic_exact(dom)
    start = identity_metric(dom.n_sites, 2)
    start[dom.boundary] = oracle[dom.boundary]
    rep = bf.solve_harmonic(conn, start, bf.SolveOptions(tolerance=1e-10))
    dev = float(np.abs(rep.metric - oracle).max() / np.abs(oracle).max())
    return dev, rep


def test_criterion_2_refinement_ratio():
    dev9, rep9 = _rectangle_oracle_deviation(9)
    dev17, rep17 = _rectangle_oracle_deviation(17)
    ratio = dev9 / dev17 if dev17 > 0 else float("nan")
    converged = rep9.verdict == rep17.verdict == "converged"
    ok = converged and bool(3.5 <= ratio <= 4.5)
    report(
        2, ok, f"rectangle Dirichlet oracle-deviation refinement ratio {ratio:.3f} "
        f"(dev9 {dev9:.3e}, dev17 {dev17:.3e}, verdicts {rep9.verdict}/"
        f"{rep17.verdict}); expected 3.5-4.5"
    )
    assert ok, (
        f"the Dirichlet harmonic solve does not approach the rectangle closed form "
        f"at second order: deviations {dev9:.3e} (9 sites per axis) and "
        f"{dev17:.3e} (17 sites per axis), ratio {ratio:.3f}"
    )


# --------------------------------------------------------------------------
def test_criterion_3_nonexistence_detection():
    dom = bf.build_domain("circle", 100, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    opts = bf.SolveOptions(tolerance=1e-45, max_steps=40000)
    rep = bf.solve_harmonic(conn, identity_metric(dom.n_sites, 2), opts)
    above = bool((rep.history[:, 4] > opts.tolerance).all())
    ok = rep.verdict == "diverged" and rep.logh_sup > 50.0 and above
    report(
        3, ok, f"non-semisimple monodromy: verdict {rep.verdict}, "
        f"sup|log h| reached {rep.logh_sup:.2f} (need > 50), final residual "
        f"{rep.residual_sup:.1e}"
    )
    assert ok, (
        f"the runaway was not reported as diverged beyond threshold 50 with a "
        f"resolved residual: verdict {rep.verdict} ({rep.verdict_reason}), "
        f"sup|log h| {rep.logh_sup:.2f}, smallest recorded residual "
        f"{rep.history[:, 4].min():.1e}"
    )


# --------------------------------------------------------------------------
def test_criterion_4_energy_and_contraction():
    # energy monotonicity on a converged closed-domain run
    dom = bf.build_domain("circle", 32, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    rep = bf.solve_harmonic(conn, random_metric(dom, 2, seed=44, amplitude=0.25),
                            bf.SolveOptions(tolerance=1e-7))
    en = rep.history[:, 3]
    energy_ok = rep.verdict == "converged" and bool(
        np.all(np.diff(en) <= 1e-12 * (1.0 + en[:-1]))
    )

    # two Dirichlet flows with shared boundary data contract in sup sigma
    dom2 = bf.build_domain("rectangle", (16, 16), (1.0, 1.0))
    conn2 = bf.from_monodromy(dom2, [], rank=2)
    k = random_metric(dom2, 2, seed=41, amplitude=0.3)
    bump = np.sin(np.pi * dom2.coords()).prod(axis=1)
    pert = la.selfadjoint_part(
        0.5 * bump[:, None, None] * np.array([[1.0, 0.4j], [-0.4j, -1.0]]), k, la.scaled_sqrt(k)
    )
    h0 = la.metric_exp_update(pert, 1.0, la.check_metric(k))
    # Both runs start from the Dirichlet default dt; with no rejection on
    # either, they take the same steps.
    dt = default_dt(dom2, implicit=True)
    ma, mb = [], []
    rep_a = bf.solve_harmonic(conn2, k, init=FlowState(time=0.0, metric=k.copy(), dt=dt),
                              callback=lambda s: ma.append(s.metric.copy()))
    rep_b = bf.solve_harmonic(conn2, k, init=FlowState(time=0.0, metric=h0, dt=dt),
                              callback=lambda s: mb.append(s.metric.copy()))
    synchronized = rep_a.rejected_steps == rep_b.rejected_steps == 0
    steps = min(len(ma), len(mb))
    sig = np.array([bf.donaldson_distance(ma[i], mb[i])[1] for i in range(steps)])
    monotone = bool(np.all(np.diff(sig) <= 1e-12 * (1.0 + sig[:-1])))
    final_sigma = bf.donaldson_distance(rep_a.metric, rep_b.metric)[1]
    contraction_ok = synchronized and monotone and final_sigma <= 1e-6
    ok = energy_ok and contraction_ok
    assert report(
        4, ok, f"energy non-increasing ({energy_ok}); sup sigma non-increasing "
        f"over {steps} synchronized Dirichlet steps ({synchronized}) with final sigma "
        f"{final_sigma:.2e} <= 1e-6 ({contraction_ok})"
    )


# --------------------------------------------------------------------------
def test_criterion_5_identity_residual_orders():
    pointwise = []
    for n in (16, 32, 64):
        dom = bf.build_domain("torus", (n, n), (TWO_PI, TWO_PI))
        conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]), np.eye(2)])
        h = random_metric(dom, 2, seed=11, amplitude=0.35)
        k = random_metric(dom, 2, seed=12, amplitude=0.35)
        out = bf.identity_residuals(conn, h, k)
        pointwise.append(np.abs(out["pointwise_residual"]).max())
    orders_pt = [np.log2(pointwise[i] / pointwise[i + 1]) for i in range(2)]

    gaps = []
    rng = np.random.default_rng(55)
    a_dir = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a_dir = 0.35 * (a_dir + a_dir.conj().T) / 2
    b_dir = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b_dir = 0.25 * (b_dir + b_dir.conj().T) / 2
    for n in (16, 32, 64):
        dom = bf.build_domain("rectangle", (n, n), (1.0, 1.0))
        conn = bf.from_monodromy(dom, [], rank=2)
        x = dom.coords()
        bump = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        s = bump[:, None, None] * a_dir + (bump ** 2)[:, None, None] * b_dir
        w, v = np.linalg.eigh(s)
        h = (v * np.exp(w)[..., None, :]) @ la.dagger(v)
        out = bf.identity_residuals(conn, h, identity_metric(dom.n_sites, 2))
        gaps.append(abs(out["integral_gap"]))
    orders_gap = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    ok = all(1.7 <= o <= 2.3 for o in orders_pt + orders_gap)
    assert report(
        5, ok, "refinement orders over {16,32,64}: pointwise "
        f"{[f'{o:.2f}' for o in orders_pt]}, integral gap "
        f"{[f'{o:.2f}' for o in orders_gap]} (need 2.0 +/- 0.3)"
    )


# --------------------------------------------------------------------------
def test_criterion_6_poisson_normalization():
    runs = []
    dom = bf.build_domain("circle", 48, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    x = dom.coords()[:, 0]
    phi = 0.3 * np.cos(TWO_PI * x)
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    runs.append((conn, k, bf.solve_poisson(conn, k)))

    dom2 = bf.build_domain("rectangle", (12, 12), (1.0, 1.0))
    conn2 = bf.from_monodromy(dom2, [], rank=2)
    k2 = random_metric(dom2, 2, seed=61, amplitude=0.3)
    runs.append((conn2, k2, bf.solve_poisson(conn2, k2)))

    dom3 = bf.build_domain("torus", (16, 16), (TWO_PI, TWO_PI))
    conn3 = bf.from_monodromy(dom3, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])])
    k3 = random_metric(dom3, 2, seed=62, amplitude=0.2)
    runs.append((conn3, k3, bf.solve_poisson(conn3, k3)))

    worst_det = 0.0
    worst_res = 0.0
    for conn_i, k_i, rep in runs:
        assert rep.verdict == "converged"
        dets = np.linalg.det(np.linalg.solve(k_i, rep.metric))
        worst_det = max(worst_det, float(np.abs(dets - 1.0).max()))
        worst_res = max(worst_res, rep.tracefree_residual_sup)
    ok = worst_det <= 1e-12 and worst_res <= 1e-8
    assert report(
        6, ok, f"{len(runs)} Poisson runs: worst |det(K^-1 H) - 1| = "
        f"{worst_det:.2e} <= 1e-12, worst trace-free tension {worst_res:.2e} <= 1e-8"
    )


# --------------------------------------------------------------------------
def test_criterion_7_exhaustion_monitors():
    dom = bf.build_domain("annulus", (64, 16), (TWO_PI, 1.0))
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
    r = dom.coords()[:, 1]
    r0 = 0.4
    phi = np.where(r < r0, 0.3 * np.sin(np.pi * r / r0) ** 2, 0.0)
    k = diag_metric(np.stack([np.exp(phi), np.exp(-phi)], axis=1))
    reports, monitors = bf.exhaustion_solve(conn, k, [9, 11, 13, 15])
    assert all(rep.verdict == "converged" for rep in reports)
    sups = [m.sup_log_h for m in monitors]
    dhs = [m.dh_l2 for m in monitors]
    variation = abs(sups[-1] - sups[-2]) / sups[-1]
    bounded = max(dhs) <= 1.05 * dhs[-1]
    ok = variation <= 0.05 and bounded
    assert report(
        7, ok, f"sup|log h_s| over levels {sups[0]:.4f}..{sups[-1]:.4f} "
        f"(top-two variation {variation:.2e} <= 5%), ||Dh_s|| bounded "
        f"({min(dhs):.3f}..{max(dhs):.3f})"
    )


# --------------------------------------------------------------------------
def test_criterion_8_degree_stability():
    line_devs = []
    verdicts = []
    for n in (64, 128):
        dom = bf.build_domain("circle", n, TWO_PI)
        conn = bf.from_monodromy(dom, [np.diag([4.0, 0.25]).astype(complex)])
        k = identity_metric(dom.n_sites, 2)
        subs = bf.invariant_subbundles(conn, k)
        sm = bf.split_metric(conn, k)
        total = bf.degree(sm)
        degs = [bf.degree(sm, sub=s) for s in subs]
        additivity = abs(degs[0] + degs[1] - total)
        assert additivity <= 1e-8
        # Each line bundle's degree is 0: on the closed circle the degree
        # integrand is a discrete divergence.
        oracle = 0.0
        h2 = dom.spacings[0] ** 2
        line_devs.append(max(abs(d - oracle) for d in degs))
        assert line_devs[-1] <= 10 * h2 + 1e-8
        assert abs(abs(degs[0]) - abs(degs[1])) <= 1e-8

        conn_j = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        subs_j = bf.invariant_subbundles(conn_j, k)
        assert len(subs_j) == 1
        verdicts.append(bf.stability_report(conn_j, k, subs_j).verdict)
    ok = verdicts[0] == verdicts[1]
    assert report(
        8, ok, f"line degrees balance to 1e-8 and match the rank-1 oracle "
        f"(dev {max(line_devs):.2e}); unipotent variant verdict "
        f"{verdicts[0]!r} consistent across resolutions"
    )


# --------------------------------------------------------------------------
def test_criterion_9_higgs_round_trip():
    gens = [np.diag([2.0, 0.5]).astype(complex), np.diag([3.0, 1 / 3.0]).astype(complex)]
    dom = bf.build_domain("torus", (32, 32), (TWO_PI, TWO_PI))
    conn = bf.from_monodromy(dom, gens)
    run = bf.solve_poisson(conn, identity_metric(dom.n_sites, 2))
    assert run.verdict == "converged"
    hd = bf.higgs_from_harmonic(run.split)
    res = bf.hitchin_residuals(hd)
    back = bf.flat_from_higgs(hd)
    drift = max(
        la.spectrum_distance(bf.loop_holonomy(back, lp.axis), gen)
        for lp, gen in zip(back.loops, gens)
    )
    ok = res["hs_curvature_sup"] <= 1e-4 and drift <= 1e-4
    assert report(
        9, ok, f"32x32 round trip: composite curvature {res['hs_curvature_sup']:.2e} "
        f"<= 1e-4, holonomy eigenvalue drift {drift:.2e} <= 1e-4"
    )


# --------------------------------------------------------------------------
def test_criterion_10_alpha1_metric_independence():
    n = 400
    dom = bf.build_domain("circle", n, TWO_PI)
    conn = bf.from_monodromy(dom, [np.array([[2.0]], dtype=complex)])
    loop = axis_loop(conn, 0)
    harmonic = bf.solve_harmonic(conn, identity_metric(n, 1))
    assert harmonic.verdict == "converged"
    p_harm = bf.alpha1_period(conn, harmonic.metric, loop)
    x = dom.coords()[:, 0]
    rough = np.exp(0.4 * np.sin(x) + 0.2 * np.cos(2 * x))[:, None, None].astype(complex)
    p_other = bf.alpha1_period(conn, rough, loop)
    h2 = dom.spacings[0] ** 2
    ok = abs(p_harm - p_other) <= 10 * h2 and abs(abs(p_harm) - np.log(2.0)) <= 1e-3
    assert report(
        10, ok, f"alpha1 periods {p_harm:.10f} (harmonic) vs {p_other:.10f} "
        f"(generic metric): difference {abs(p_harm - p_other):.2e}, magnitude "
        f"|ln 2| error {abs(abs(p_harm) - np.log(2)):.2e} <= 1e-3"
    )


# --------------------------------------------------------------------------
def test_criterion_11_determinism(tmp_path):
    cfg = {
        "scenario": "solve_poisson",
        "domain": {"kind": "circle", "sites": [24], "lengths": [1.0]},
        "bundle": {"rank": 2,
                   "monodromy": [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
        "reference_metric": {"kind": "random_smooth", "amplitude": 0.3},
        "solver": {"tolerance": 1e-6},
        "output": {"directory": "out", "checkpoint_cadence": 2},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    full, part, rerun = tmp_path / "full", tmp_path / "part", tmp_path / "rerun"
    assert run_scenario(path, out_dir=full, seed=4) == 0
    assert run_scenario(path, out_dir=rerun, seed=4) == 0
    csv_identical = (full / "run.csv").read_bytes() == (rerun / "run.csv").read_bytes()
    mid = full / "step00000002.ckpt"
    assert mid.exists()
    assert run_scenario(path, out_dir=part, seed=4, resume_path=mid) == 0
    a = load_checkpoint(full / "final.ckpt")
    b = load_checkpoint(part / "final.ckpt")
    resume_dev = float(np.abs(a.metric - b.metric).max())
    ok = csv_identical and resume_dev <= 1e-12
    assert report(
        11, ok, f"identical configs give byte-identical CSVs ({csv_identical}); "
        f"split-at-2 resume reproduces the unsplit final metric to "
        f"{resume_dev:.1e} <= 1e-12"
    )
