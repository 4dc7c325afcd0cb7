"""Higgs structures on complex-curve lattices and the flat round trip.

On a two-dimensional domain with complex structure the axes play the roles of
the real and imaginary parts of a holomorphic coordinate. A Higgs datum here
is a set of metric-connection edge transports (carrying the dbar operator)
together with a per-site Higgs field theta, the matrix coefficient of dz.
Composite connections add a self-adjoint one-form Psi with components
``Psi_x = theta + theta*``, ``Psi_y = i (theta - theta*)`` to the metric
transports; their plaquette holonomies measure the composite curvature, and
its area-normalized contraction drives the Hermitian-Einstein flow.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg as la
from .bundle import (
    FlatConnection,
    LoopSpec,
    SubBundleSpec,
    codifferential,
    connection_from_transports,
    covariant_d,
    loop_holonomy,
    plaquette_holonomies,
    psi_centered,
    split_metric,
)
from .flow import (
    ENERGY_RTOL,
    FLOOR_ULPS,
    RunReport,
    SolveOptions,
    default_dt,
    divergence_reason,
    settle,
)
from .linalg import dagger
from .mesh import LatticeDomain, integrate

Array = np.ndarray


@dataclass(frozen=True)
class HiggsData:
    domain: LatticeDomain
    rank: int
    transport: Array            # (2, n, r, r) metric-connection edge transports
    theta: Array                # (n, r, r) dz-coefficient; theta ^ theta = 0 on curves
    holomorphicity_residual: float
    loops: tuple[LoopSpec, ...] = ()

    def __post_init__(self):
        if self.domain.dim != 2 or not self.domain.complex_structure:
            raise ValueError("Higgs data needs a complex-curve domain")


def complex_split(domain: LatticeDomain, components: Array) -> tuple[Array, Array]:
    """(1,0) / (0,1) parts of site-centered one-form components (a_x, a_y).

    Returns the dz and dzbar coefficients; the original components are
    recovered as ``a_x = p10 + p01`` and ``a_y = i (p10 - p01)``.
    """
    if not domain.complex_structure:
        raise ValueError("domain carries no complex structure")
    a_x, a_y = components[0], components[1]
    p10 = 0.5 * (a_x - 1j * a_y)
    p01 = 0.5 * (a_x + 1j * a_y)
    return p10, p01


def _dbar_site_field(domain: LatticeDomain, transports: Array, field: Array,
                     theta: Array | None = None) -> Array:
    """dbar operator on an endomorphism site field: 0.5 (grad_x + i grad_y) + [theta, .]."""
    out = np.zeros_like(field)
    for a in range(2):
        plus = domain.neighbors[a, 0]
        minus = domain.neighbors[a, 1]
        ok = (plus >= 0) & (minus >= 0)
        sites = np.flatnonzero(ok)
        v_f = transports[a, sites]
        v_b = transports[a, minus[sites]]
        fwd = np.linalg.inv(v_f) @ field[plus[sites]] @ v_f
        bwd = v_b @ field[minus[sites]] @ np.linalg.inv(v_b)
        comp = (fwd - bwd) / (2.0 * domain.spacings[a])
        out[sites] += 0.5 * (1j * comp if a == 1 else comp)
    if theta is not None:
        out += la.commutator(theta, field)
    return out


def higgs_from_harmonic(
    conn: FlatConnection,
    metric: Array,
    tension_tol: float = 1e-7,
) -> HiggsData:
    """Higgs structure carried by a harmonic (or Poisson) metric on a curve.

    theta is the dz-part of the trace-free splitting one-form in site-centered
    components; the metric transports carry the dbar operator. The metric is
    accepted when the trace-free part of its tension is below ``10 *
    tension_tol``: a Poisson metric's tension is a scalar multiple of the
    identity at each site, which theta does not see. The recorded
    holomorphicity residual is the sup of dbar theta, which vanishes in the
    continuum for exact solutions and here decays with the spacing and the
    solver tolerance.
    """
    dom = conn.domain
    if dom.dim != 2 or not dom.complex_structure:
        raise ValueError("Higgs extraction needs a complex-curve domain")
    sm = split_metric(conn, metric)
    tf = la.tracefree(la.selfadjoint_part(codifferential(conn, metric, sm.psi, sm), metric))
    t_sup = float(np.max(np.sqrt(np.maximum(np.einsum("nij,nji->n", tf, tf).real, 0.0))))
    if t_sup > 10.0 * tension_tol:
        raise ValueError(
            f"metric is not harmonic or Poisson enough (sup trace-free tension {t_sup:.3e} "
            f"> {10 * tension_tol:.1e})"
        )
    psic = psi_centered(conn, metric, sm)
    perp = np.stack([la.tracefree(psic[a]) for a in range(2)])
    theta, _ = complex_split(dom, perp)
    residual = float(np.max(la.frobenius(_dbar_site_field(dom, sm.transport, theta))))
    return HiggsData(
        domain=dom,
        rank=conn.rank,
        transport=sm.transport,
        theta=theta,
        holomorphicity_residual=residual,
        loops=conn.loops,
    )


def higgs_from_parts(
    domain: LatticeDomain,
    transports: Array,
    theta: Array,
    loops: tuple[LoopSpec, ...] = (),
) -> HiggsData:
    """Assemble Higgs data directly from transports and a Higgs field."""
    transports = np.asarray(transports, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    residual = float(np.max(la.frobenius(_dbar_site_field(domain, transports, theta))))
    return HiggsData(
        domain=domain,
        rank=theta.shape[-1],
        transport=transports,
        theta=theta,
        holomorphicity_residual=residual,
        loops=loops,
    )


def _psi_from_theta(theta: Array, metric: Array) -> Array:
    """Self-adjoint one-form components of theta dz + theta* dzbar."""
    theta_star = np.linalg.solve(metric, dagger(theta) @ metric)
    psi_x = theta + theta_star
    psi_y = 1j * (theta - theta_star)
    return np.stack([psi_x, psi_y])


def composite_transports(higgs: HiggsData, metric: Array) -> Array:
    """Edge transports of the composite (metric + Higgs) connection."""
    dom = higgs.domain
    psi = _psi_from_theta(higgs.theta, metric)
    out = higgs.transport.copy()
    for a in range(2):
        tails = np.flatnonzero(dom.neighbors[a, 0] >= 0)
        step = la.exp_hsa(psi[a, tails], np.asarray(metric)[tails], -dom.spacings[a])
        out[a, tails] = la.mm(higgs.transport[a, tails], step)
    return out


def lambda_contraction(higgs: HiggsData, metric: Array, transports: Array | None = None) -> Array:
    """Area-normalized, metric-symmetrized plaquette coefficient i (hol - 1)/area."""
    dom = higgs.domain
    if transports is None:
        transports = composite_transports(higgs, metric)
    base, hol = plaquette_holonomies(dom, transports)
    area = dom.spacings[0] * dom.spacings[1]
    out = np.zeros((dom.n_sites, higgs.rank, higgs.rank), dtype=complex)
    eye = np.eye(higgs.rank, dtype=complex)
    out[base] = 1j * (hol - eye) / area
    out[base] = la.selfadjoint_part(out[base], np.asarray(metric)[base])
    return out


def hitchin_residuals(higgs: HiggsData, metric: Array, transports: Array | None = None) -> dict:
    """Holomorphy, composite-curvature, and contracted-curvature sup norms.

    ``transports`` are ``composite_transports(higgs, metric)`` when the caller
    already holds them.
    """
    la.check_metric(metric)
    if transports is None:
        transports = composite_transports(higgs, metric)
    base, hol = plaquette_holonomies(higgs.domain, transports)
    eye = np.eye(higgs.rank, dtype=complex)
    hs_curv = float(np.max(la.specnorm(hol - eye), initial=0.0))
    lam = lambda_contraction(higgs, metric, transports)
    lam_sup = float(np.max(la.frobenius(lam), initial=0.0))
    holo = float(np.max(la.frobenius(
        _dbar_site_field(higgs.domain, higgs.transport, higgs.theta))))
    return {
        "holomorphy": holo,
        "hs_curvature_sup": hs_curv,
        "lambda_F_sup": lam_sup,
    }


def higgs_degree_stability(
    higgs: HiggsData,
    reference: Array,
    subs: list[SubBundleSpec],
    invariance_tol: float = 1e-6,
):
    """Degrees and slope verdicts for Higgs-invariant sub-bundles.

    The total degree integrates i tr(Lambda F); a sub-bundle subtracts the
    squared dbar-derivative of its projection (with the dzbar frame weight 2
    from |dzbar|^2 = 2 in the flat base metric). Requires the stored
    transports to be near-isometries of the reference metric, which holds for
    data extracted at the metric that will be audited.
    """
    from .analysis import StabilityReport, SubBundleRow

    dom = higgs.domain
    k_field = np.asarray(reference, dtype=complex)
    la.check_metric(k_field)
    for a in range(2):
        tails = np.flatnonzero(dom.neighbors[a, 0] >= 0)
        heads = dom.neighbors[a, 0][tails]
        w = higgs.transport[a, tails]
        defect = la.frobenius(dagger(w) @ k_field[heads] @ w - k_field[tails])
        if float(defect.max()) > 1e-6 * (1.0 + float(la.frobenius(k_field).max())):
            raise ValueError("reference metric is incompatible with the stored transports")
    lam = lambda_contraction(higgs, k_field)
    total_dens = np.einsum("nii->n", lam).real
    total_deg = integrate(dom, total_dens)
    rows = []
    for s in subs:
        theta_res = float(np.max(la.frobenius(
            (np.eye(higgs.rank) - s.projection) @ higgs.theta @ s.projection)))
        if theta_res > invariance_tol or s.invariance_residual > invariance_tol:
            raise ValueError("sub-bundle is not Higgs-invariant within tolerance")
        dbar_pi = _dbar_site_field(dom, higgs.transport, s.projection, theta=higgs.theta)
        dens = np.einsum("nij,nji->n", s.projection, lam).real
        dens -= 2.0 * la.endo_norm2(dbar_pi, k_field)
        d = integrate(dom, dens)
        rows.append(SubBundleRow(rank=s.rank, invariance_residual=max(
            s.invariance_residual, theta_res), degree=d, slope=d / s.rank))
    total_slope = total_deg / higgs.rank
    tol = 1e-8 * (1.0 + abs(total_deg))
    verdict = "stable"
    witness = None
    worst = -np.inf
    for i, row in enumerate(rows):
        gap = row.slope - total_slope
        if gap > worst:
            worst, witness = gap, i
        if gap > tol:
            verdict = "unstable"
    if verdict != "unstable" and worst >= -tol:
        verdict = "strictly_semistable"
    return StabilityReport(
        total_degree=total_deg,
        total_rank=higgs.rank,
        total_slope=total_slope,
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        scope_note="scope: verdict relative to the supplied sub-bundle list.",
    )


def hermitian_einstein_solve(
    higgs: HiggsData,
    reference: Array,
    opts: SolveOptions | None = None,
) -> RunReport:
    """Drive the contracted composite curvature to its trace average.

    Multiplicative updates ``H <- H exp(-2 dt (Phi - tr Phi / r))`` mirror the
    metric heat flow; acceptance is controlled by the trace-free curvature
    energy, verdicts follow the flow module's semantics, and the final metric
    is conformally normalized to det(K^{-1}H) = 1. The residual's roundoff
    floor is that of forming ``hol - I`` for unit-scale plaquette holonomies.
    """
    import time as _time

    t0 = _time.perf_counter()
    opts = opts or SolveOptions()
    dom = higgs.domain
    opts.validate(dom)
    k_field = np.asarray(reference, dtype=complex)
    la.check_metric(k_field)
    k_isqrt = la.sqrt_pair(k_field)[1]
    h_field = k_field.copy()
    dt = opts.dt if opts.dt is not None else default_dt(dom)
    r = higgs.rank
    floor = FLOOR_ULPS * np.finfo(float).eps * np.sqrt(r) / (dom.spacings[0] * dom.spacings[1])

    def measure(hf: Array):
        """Trace-free curvature with its sup and energy, sup|log h| and sup sigma.

        With the eigenvalues lambda of K^{-1}H, Donaldson's sigma is
        sum(lambda + 1/lambda) - 2r, as in the flow's diagnostics.
        """
        phi_perp = la.tracefree(lambda_contraction(higgs, hf))
        dens = la.endo_norm2(phi_perp, hf)
        eigs = la.rel_eigvals(k_field, hf, k_isqrt)
        logs = np.log(eigs)
        sigma = (eigs + 1.0 / eigs).sum(axis=1) - 2.0 * r
        return (phi_perp, float(np.max(np.sqrt(dens))), float(np.sum(dom.volume * dens)),
                float(np.sqrt((logs ** 2).sum(axis=1)).max()), float(sigma.max()))

    phi_perp, res, en, logh, sigma = measure(h_field)
    steps = 0
    streak = 0
    grown = 0
    verdict, reason = "max_steps", ""
    notes: list[str] = []
    history = [(0, 0.0, dt, en, res, res, res, 0.0, 0.0, 0.0)]
    t = 0.0
    logh_prev = logh
    while steps < opts.max_steps:
        settled = settle(res, opts.tolerance, floor, logh, logh_prev)
        if settled:
            verdict, reason = settled
            break
        trial = la.metric_exp_update(h_field, -phi_perp, 2.0 * dt)
        phi_t, res_t, en_t, logh_t, sigma_t = measure(trial)
        if opts.dt_policy == "adaptive" and en_t > en + ENERGY_RTOL * en:
            dt *= 0.5
            grown = 0
            if dt < 1e-300:
                notes.append("step size collapsed; aborting")
                reason = "step size collapsed below 1e-300"
                break
            continue
        logh_prev = logh
        h_field, phi_perp, res, en, logh, sigma = trial, phi_t, res_t, en_t, logh_t, sigma_t
        steps += 1
        t += dt
        history.append((steps, t, dt, en, res, res, res, 0.0, 0.0, 0.0))
        if logh > opts.divergence_threshold and res > opts.tolerance:
            streak += 1
        else:
            streak = 0
        if streak >= opts.divergence_patience:
            verdict = "diverged"
            reason = divergence_reason(logh, opts)
            break
        if opts.dt_policy == "adaptive":
            grown += 1
            if grown >= opts.dt_growth_every:
                dt *= opts.dt_growth
                grown = 0
    if verdict == "max_steps":
        settled = settle(res, opts.tolerance, floor, logh, logh_prev)
        if settled:
            verdict, reason = settled
        elif not reason:
            reason = f"step limit {opts.max_steps} reached with residual {res:.3e}"
    if verdict == "converged" and opts.det_normalize:
        eigs = la.rel_eigvals(k_field, h_field, k_isqrt)
        f = -np.log(eigs).sum(axis=1) / r
        h_field = h_field * np.exp(f)[:, None, None]
        phi_perp, res, en, logh, sigma = measure(h_field)
    return RunReport(
        verdict=verdict,
        steps=steps,
        time=t,
        metric=h_field,
        residual_sup=res,
        tracefree_residual_sup=res,
        energy=en,
        sigma_sup=sigma,
        logh_sup=logh,
        history=np.array(history, dtype=float),
        notes=notes,
        wall_seconds=_time.perf_counter() - t0,
        verdict_reason=reason,
    )


def flat_from_higgs(higgs: HiggsData, metric: Array, residual_factor: float = 10.0,
                    tol: float = 1e-5, transports: Array | None = None,
                    curvature_sup: float | None = None) -> FlatConnection:
    """The composite connection as a flat connection object.

    Requires the composite curvature to be small (within ``residual_factor *
    tol``); the designated loops are re-measured on the composite transports
    so the returned object's flatness residual equals the curvature sup.
    A caller that has already run ``hitchin_residuals`` passes its composite
    ``transports`` and ``curvature_sup`` (its ``hs_curvature_sup``), which
    are then not computed again.
    """
    if curvature_sup is None:
        curvature_sup = hitchin_residuals(higgs, metric, transports)["hs_curvature_sup"]
    if curvature_sup > residual_factor * tol:
        raise ValueError(f"composite curvature {curvature_sup:.3e} too large to flatten")
    if transports is None:
        transports = composite_transports(higgs, metric)
    conn = connection_from_transports(higgs.domain, transports, ())
    loops = []
    for a in range(2):
        if higgs.domain.periodic[a]:
            hol = loop_holonomy(conn, a, 0)
            loops.append(LoopSpec(axis=a, base=0, generator=hol))
    return replace(conn, loops=tuple(loops))


def parallel_section_residual(
    conn: FlatConnection,
    metric: Array,
    section: Array,
    mode: str,
    higgs: HiggsData | None = None,
    source_tol: float = 1e-6,
) -> float:
    """Transfer check: a source-parallel section is parallel for the target operator.

    ``flat_to_higgs``: source is the flat connection, target the mixed
    operator (dbar part of the metric connection plus the dz-part of psi);
    needs a harmonic metric. ``higgs_to_flat``: source is the Higgs dbar
    operator, target the composite connection; needs the Higgs data. Sections
    may be vectors (n, r) or endomorphisms (n, r, r); endomorphisms transform
    by the adjoint action.
    """
    dom = conn.domain
    f = np.asarray(section, dtype=complex)
    endo = f.ndim == 3
    h_field = np.asarray(metric, dtype=complex)
    sm = split_metric(conn, h_field)

    def act(coeff: Array, g: Array) -> Array:
        return la.commutator(coeff, g) if endo else np.einsum("nij,nj->ni", coeff, g)

    def centered(transports: Array, g: Array) -> Array:
        out = np.zeros((dom.dim,) + g.shape, dtype=complex)
        for a in range(dom.dim):
            plus = dom.neighbors[a, 0]
            minus = dom.neighbors[a, 1]
            ok = (plus >= 0) & (minus >= 0)
            sites = np.flatnonzero(ok)
            v_f = transports[a, sites]
            v_b = transports[a, minus[sites]]
            if endo:
                fwd = np.linalg.inv(v_f) @ g[plus[sites]] @ v_f
                bwd = v_b @ g[minus[sites]] @ np.linalg.inv(v_b)
            else:
                fwd = np.einsum("eij,ej->ei", np.linalg.inv(v_f), g[plus[sites]])
                bwd = np.einsum("eij,ej->ei", v_b, g[minus[sites]])
            out[a, sites] = (fwd - bwd) / (2.0 * dom.spacings[a])
        return out

    scale = float(np.max(np.abs(f))) + 1e-300
    if mode == "flat_to_higgs":
        src = covariant_d(conn, f)
        if float(np.max(np.abs(src))) > source_tol * scale / min(dom.spacings):
            raise ValueError("section is not parallel for the source connection")
        grad = centered(sm.transport, f)
        psic = psi_centered(conn, h_field, sm)
        p10, _ = complex_split(dom, psic)
        target = 0.5 * (grad[0] + 1j * grad[1]) + act(p10, f)
        return float(np.max(np.abs(target)))
    if mode == "higgs_to_flat":
        if higgs is None:
            raise ValueError("higgs_to_flat mode needs the Higgs data")
        grad = centered(higgs.transport, f)
        src = 0.5 * (grad[0] + 1j * grad[1]) + act(higgs.theta, f)
        if float(np.max(np.abs(src))) > source_tol * scale / min(dom.spacings):
            raise ValueError("section is not parallel for the Higgs operator")
        psi = _psi_from_theta(higgs.theta, h_field)
        grad_full = centered(higgs.transport, f)
        worst = 0.0
        for a in range(dom.dim):
            comp = grad_full[a] + act(psi[a], f)
            worst = max(worst, float(np.max(np.abs(comp))))
        return worst
    raise ValueError(f"unknown mode {mode!r}")
