"""Each closed-form check passes on an exact output and fails on a perturbed one.

The exact outputs are built here from the closed forms, without bundleflow;
two small rounds of the real workloads then confirm the checks accept what
the program writes.
"""
from __future__ import annotations

import numpy as np
import pytest

import checks
import workloads
from checks import CheckError


def unit_rng(seed: int = 5) -> np.random.Generator:
    return np.random.default_rng(seed)


def write_checkpoint(path, metric, theta=None) -> None:
    n, r, _ = metric.shape
    lines = [f"rank {r}, sites {n}, time 0.0, step 0, dt 0.0, streak 0, grown 0"]
    blocks = [metric] if theta is None else [metric, theta]
    for k, block in enumerate(blocks):
        if k:
            lines.append("theta")
        for m in block:
            lines.append(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in m.ravel()))
    path.write_text("\n".join(lines) + "\n")


# circle-harmonic ----------------------------------------------------------

def circle_case():
    s = workloads.conditioned(unit_rng(), (1.0, 1.6, 2.5))
    harmonic = np.linalg.inv(s @ np.conj(s.T))
    return np.broadcast_to(harmonic, (10, 3, 3)).copy(), s, np.array([4.0, 1.0, 0.25])


def test_circle_energy_matches_closed_form():
    metric, s, lam = circle_case()
    checks.check_circle_harmonic(metric, s, lam, 1.0)


def test_circle_energy_rejects_perturbed_metric():
    metric, s, lam = circle_case()
    metric[3] *= 1.0 + 1e-3
    with pytest.raises(CheckError, match="edge energy"):
        checks.check_circle_harmonic(metric, s, lam, 1.0)


def test_energy_column_must_not_rise():
    energy = np.array([3.0, 2.0, 1.5, 1.5])
    checks.check_energy_nonincreasing(energy)
    energy[3] = 1.5 * (1.0 + 1e-9)
    with pytest.raises(CheckError, match="energy rises"):
        checks.check_energy_nonincreasing(energy)


# circle-runaway -----------------------------------------------------------

def runaway_case():
    n = 8
    x = np.arange(n) / n
    metric = workloads.smooth_metric(unit_rng(), x, 1.0, 2, 0.5)
    u = np.array([[1.0, 1.0 / n], [0.0, 1.0]])
    energy = checks.edge_energy(metric, u, 1.0 / n)
    return dict(verdict="diverged", logh_sup=51.0, residuals=np.array([1e-30, 1e-33]),
                energy=energy, metric=metric, length=1.0, tolerance=1e-45, threshold=50.0)


def test_runaway_energy_matches_high_precision():
    checks.check_runaway(**runaway_case())


@pytest.mark.parametrize("field, value, message", [
    ("verdict", "converged", "verdict"),
    ("logh_sup", 49.0, "sup"),
    ("residuals", np.array([1e-30, 1e-45]), "residual"),
    ("energy", None, "reported energy"),
])
def test_runaway_rejects_perturbed_output(field, value, message):
    case = runaway_case()
    case[field] = case["energy"] * (1.0 + 1e-8) if field == "energy" else value
    with pytest.raises(CheckError, match=message):
        checks.check_runaway(**case)


# annulus-exhaustion -------------------------------------------------------

def annulus_case():
    gen_a = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
    gen_a /= np.linalg.norm(gen_a)
    phi = 0.3 * np.sin(np.linspace(0.0, np.pi, 9)) ** 2
    reference = workloads.hermitian_exp(phi[:, None, None] * gen_a)
    metric = np.broadcast_to(np.eye(2, dtype=complex), (9, 2, 2)).copy()
    return dict(verdict="converged", metric=metric, reference=reference,
                sup_log_h=checks.annulus_closed_form(gen_a), gen_a=gen_a, tolerance=1e-8)


def test_annulus_band_is_identity():
    checks.check_annulus_level(**annulus_case())


@pytest.mark.parametrize("change, message", [
    (lambda c: c.update(verdict="max_steps"), "verdict"),
    (lambda c: c["metric"].__setitem__((4, 0, 1), 1e-6), "max"),
    (lambda c: c["metric"].__imul__(1.0 + 1e-11), "det"),
    (lambda c: c.update(sup_log_h=c["sup_log_h"] + 1e-6), "sup_log_h"),
])
def test_annulus_rejects_perturbed_output(change, message):
    case = annulus_case()
    change(case)
    with pytest.raises(CheckError, match=message):
        checks.check_annulus_level(**case)


# torus-higgs --------------------------------------------------------------

def torus_dir(tmp_path, theta_shift=0.0, drift=1e-14, metric_scale=1.0):
    s = workloads.conditioned(unit_rng(), (1.0, 2.0))
    lam = 0.5 * (np.log(2.0) - 1j * np.log(3.0))
    metric = np.broadcast_to(np.linalg.inv(s @ np.conj(s.T)) * metric_scale, (6, 2, 2))
    theta = np.broadcast_to(s @ np.diag([lam + theta_shift, -lam]) @ np.linalg.inv(s), (6, 2, 2))
    write_checkpoint(tmp_path / "final.ckpt", metric, theta)
    (tmp_path / "report.txt").write_text(
        "loop, eigenvalue drift (matched multisets)\n"
        f"  axis 0: {drift!r}\n  axis 1: 0.0\n")
    return s


def test_torus_higgs_matches_closed_form(tmp_path):
    s = torus_dir(tmp_path)
    checks.check_torus_higgs(0, tmp_path, s, 2.0, 3.0, 1.0)


@pytest.mark.parametrize("kwargs, status, message", [
    ({}, 1, "exit status"),
    ({"metric_scale": 1.0 + 1e-9}, 0, "final metric"),
    ({"theta_shift": 1e-8}, 0, "theta"),
    ({"drift": 2e-10}, 0, "drift"),
])
def test_torus_higgs_rejects_perturbed_output(tmp_path, kwargs, status, message):
    s = torus_dir(tmp_path, **kwargs)
    with pytest.raises(CheckError, match=message):
        checks.check_torus_higgs(status, tmp_path, s, 2.0, 3.0, 1.0)


# the real program, at small sizes -----------------------------------------

@pytest.mark.parametrize("name, sizes", [
    ("circle-harmonic", {"sites": 6, "cadence": 50}),
    ("torus-higgs", {"sites": 8}),
])
def test_small_round_passes_its_checks(tmp_path, name, sizes):
    bf = pytest.importorskip("bundleflow")
    workload = type("Small", (workloads.WORKLOADS[name],), sizes)()
    workload.setup(bf, unit_rng(), tmp_path)
    rnd = workloads.Round()
    workload.round(bf, rnd)
    assert rnd.failed == 0, rnd.errors
    assert rnd.attempted >= 1 and rnd.solve_s > 0


def test_tracer_spans_nest_and_patches_come_off():
    bf = pytest.importorskip("bundleflow")
    import tracing

    dom = bf.build_domain("circle", 6, 1.0)
    conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5])])
    metric = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2)).copy()
    original = bf.bundle.split_metric
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bf.tension(conn, metric)
    finally:
        tracer.remove()
    assert bf.bundle.split_metric is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "bundle.tension"
    assert all(span[3] >= 0 for span in tracer.spans[1:])
    layers = tracer.per_layer(1)
    assert layers["bundle.tension.calls"] == 1 and layers["bundle.split_metric.calls"] == 1
    assert layers["bundle.self_s"] > 0
