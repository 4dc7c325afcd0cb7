"""Higgs structures on complex-curve lattices and the flat round trip.

On a two-dimensional domain (a complex curve) the axes play the roles of
the real and imaginary parts of a holomorphic coordinate. A Higgs datum here
is a metric connection (edge transports with their inverses, carrying the dbar
operator) together with a per-site Higgs field theta, the matrix coefficient
of dz. The composite connection adds a self-adjoint one-form Psi with
components ``Psi_x = theta + theta*``, ``Psi_y = i (theta - theta*)`` to the
metric transports; its plaquette holonomies measure the composite curvature,
and their area-normalized contraction is the contracted curvature that
``hitchin_residuals`` reports and ``higgs_degree_stability`` integrates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg as la
from .analysis import INVARIANCE_TOL, StabilityReport, SubBundleRow, slope_verdict
from .bundle import (
    FlatConnection,
    LoopSpec,
    SplitMetric,
    SubBundleSpec,
    centered_derivative,
    connection_from_transports,
    covariant_d,
    flatness_residual,
    loop_holonomy,
    plaquette_holonomies,
    psi_centered,
    split_metric,
    tension,
)
from .linalg import dagger
from .mesh import LatticeDomain, integrate

Array = np.ndarray

# ``flat_from_higgs`` refuses a composite curvature above CURVATURE_FACTOR
# times its ``tol``.
CURVATURE_FACTOR = 10.0

# ``parallel_section_residual`` refuses a section whose derivative for the
# source operator exceeds SOURCE_TOL sup |section| / min(spacing).
SOURCE_TOL = 1e-6


@dataclass(frozen=True)
class HiggsData:
    connection: FlatConnection  # metric transports, their inverses, and the loops
    theta: Array                # (n, r, r) dz-coefficient; theta ^ theta = 0 on curves

    def __post_init__(self):
        dom = self.connection.domain
        if dom.dim != 2:
            raise ValueError("Higgs data needs a complex-curve domain")

    @cached_property
    def holomorphicity_residual(self) -> float:
        """Sup of dbar theta, taken once. It vanishes in the continuum for exact
        solutions and here decays with the spacing and the solver tolerance."""
        return float(np.max(la.frobenius(_dbar_site_field(self.connection, self.theta))))


def complex_split(domain: LatticeDomain, components: Array) -> tuple[Array, Array]:
    """(1,0) / (0,1) parts of site-centered one-form components (a_x, a_y).

    Returns the dz and dzbar coefficients; the original components are
    recovered as ``a_x = p10 + p01`` and ``a_y = i (p10 - p01)``.
    """
    if domain.dim != 2:
        raise ValueError("complex split needs a complex-curve domain")
    a_x, a_y = components[0], components[1]
    p10 = 0.5 * (a_x - 1j * a_y)
    p01 = 0.5 * (a_x + 1j * a_y)
    return p10, p01


def _dbar_site_field(conn: FlatConnection, field: Array, theta: Array | None = None) -> Array:
    """dbar operator on an endomorphism site field: 0.5 (grad_x + i grad_y) + [theta, .]."""
    grad = centered_derivative(conn, field)
    out = 0.5 * (grad[0] + 1j * grad[1])
    if theta is not None:
        out += la.commutator(theta, field)
    return out


def higgs_from_harmonic(
    conn: FlatConnection,
    metric: Array,
    tension_tol: float = 1e-7,
    sm: SplitMetric | None = None,
    tension_field: Array | None = None,
) -> HiggsData:
    """Higgs structure carried by a harmonic (or Poisson) metric on a curve.

    theta is the dz-part of the trace-free splitting one-form in site-centered
    components; the metric transports carry the dbar operator. The metric is
    accepted when the trace-free part of its tension is below ``10 *
    tension_tol``: a Poisson metric's tension is a scalar multiple of the
    identity at each site, which theta does not see. ``sm`` is the split at
    ``metric`` and ``tension_field`` its tension when the caller already holds
    them (a solve's ``RunReport.split`` and ``RunReport.tension``); otherwise
    they are computed here.
    """
    dom = conn.domain
    if dom.dim != 2:
        raise ValueError("Higgs extraction needs a complex-curve domain")
    if sm is None:
        sm = split_metric(conn, metric)
    if tension_field is None:
        tension_field = tension(conn, metric, sm)
    t_sup = float(np.max(la.hsa_norm(la.tracefree(tension_field))))
    if t_sup > 10.0 * tension_tol:
        raise ValueError(
            f"metric is not harmonic or Poisson enough (sup trace-free tension {t_sup:.3e} "
            f"> {10 * tension_tol:.1e})"
        )
    psic = psi_centered(conn, metric, sm)
    perp = np.stack([la.tracefree(psic[a]) for a in range(2)])
    theta, _ = complex_split(dom, perp)
    return HiggsData(replace(sm.connection, loops=conn.loops), theta)


def higgs_from_parts(
    domain: LatticeDomain,
    transports: Array,
    theta: Array,
    loops: tuple[LoopSpec, ...] = (),
) -> HiggsData:
    """Assemble Higgs data directly from metric transports and a Higgs field."""
    return HiggsData(connection_from_transports(domain, transports, loops),
                     np.asarray(theta, dtype=complex))


def _psi_from_theta(theta: Array, metric: Array) -> Array:
    """Self-adjoint one-form components of theta dz + theta* dzbar."""
    theta_star = np.linalg.solve(metric, la.mm(dagger(theta), metric))
    psi_x = theta + theta_star
    psi_y = 1j * (theta - theta_star)
    return np.stack([psi_x, psi_y])


def composite_transports(higgs: HiggsData, metric: Array) -> FlatConnection:
    """The composite (metric + Higgs) connection, without loops."""
    conn = higgs.connection
    dom = conn.domain
    psi = _psi_from_theta(higgs.theta, metric)
    out = conn.transport.copy()
    for a in range(2):
        tails, _ = conn.edge_sites(a)
        step = la.exp_hsa(psi[a, tails], np.asarray(metric)[tails], -dom.spacings[a])
        out[a, tails] = la.mm(conn.transport[a, tails], step)
    return connection_from_transports(dom, out)


def lambda_contraction(higgs: HiggsData, metric: Array) -> Array:
    """Area-normalized, metric-symmetrized plaquette coefficient i (hol - 1)/area
    of ``composite_transports(higgs, metric)``."""
    composite = composite_transports(higgs, metric)
    return _contraction(composite, metric, *plaquette_holonomies(composite))


def _contraction(composite: FlatConnection, metric: Array, base: Array, hol: Array) -> Array:
    """``lambda_contraction`` from the plaquette holonomies ``(base, hol)`` of ``composite``."""
    dom = composite.domain
    area = dom.spacings[0] * dom.spacings[1]
    out = np.zeros((dom.n_sites, composite.rank, composite.rank), dtype=complex)
    out[base] = 1j * (hol - np.eye(composite.rank, dtype=complex)) / area
    out[base] = la.selfadjoint_part(out[base], np.asarray(metric)[base])
    return out


def hitchin_residuals(higgs: HiggsData, metric: Array,
                      composite: FlatConnection | None = None) -> dict:
    """Holomorphy, composite-curvature, and contracted-curvature sup norms.

    The holomorphy is the ``holomorphicity_residual`` the Higgs data carries.
    ``composite`` is ``composite_transports(higgs, metric)`` when the caller
    already holds it.
    """
    la.check_metric(metric)
    if composite is None:
        composite = composite_transports(higgs, metric)
    base, hol = plaquette_holonomies(composite)
    hs_curv = float(np.max(la.specnorm(hol - np.eye(composite.rank, dtype=complex)),
                           initial=0.0))
    lam = _contraction(composite, metric, base, hol)
    return {
        "holomorphy": higgs.holomorphicity_residual,
        "hs_curvature_sup": hs_curv,
        "lambda_F_sup": float(np.max(la.frobenius(lam), initial=0.0)),
    }


def higgs_degree_stability(
    higgs: HiggsData,
    reference: Array,
    subs: list[SubBundleSpec],
) -> StabilityReport:
    """Degrees and slope verdicts for Higgs-invariant sub-bundles.

    The total degree integrates i tr(Lambda F); a sub-bundle subtracts the
    squared dbar-derivative of its projection (with the dzbar frame weight 2
    from |dzbar|^2 = 2 in the flat base metric). Requires the stored
    transports to be near-isometries of the reference metric, which holds for
    data extracted at the metric that will be audited.
    """
    conn = higgs.connection
    dom = conn.domain
    k_field = np.asarray(reference, dtype=complex)
    la.check_metric(k_field)
    for a in range(2):
        tails, heads = conn.edge_sites(a)
        w = conn.transport[a, tails]
        defect = la.frobenius(la.mm(la.mm(dagger(w), k_field[heads]), w) - k_field[tails])
        if float(defect.max()) > 1e-6 * (1.0 + float(la.frobenius(k_field).max())):
            raise ValueError("reference metric is incompatible with the stored transports")
    lam = lambda_contraction(higgs, k_field)
    total_dens = np.einsum("nii->n", lam).real
    total_deg = integrate(dom, total_dens)
    rows = []
    for s in subs:
        leak = la.mm(la.mm(np.eye(conn.rank) - s.projection, higgs.theta), s.projection)
        theta_res = float(np.max(la.frobenius(leak)))
        if theta_res > INVARIANCE_TOL or s.invariance_residual > INVARIANCE_TOL:
            raise ValueError("sub-bundle is not Higgs-invariant within tolerance")
        dbar_pi = _dbar_site_field(conn, s.projection, theta=higgs.theta)
        dens = np.einsum("nij,nji->n", s.projection, lam).real
        dens -= 2.0 * la.endo_norm2(dbar_pi, k_field)
        d = integrate(dom, dens)
        rows.append(SubBundleRow(rank=s.rank, invariance_residual=max(
            s.invariance_residual, theta_res), degree=d, slope=d / s.rank))
    return slope_verdict(total_deg, conn.rank, rows,
                         "scope: verdict relative to the supplied sub-bundle list.")


def flat_from_higgs(higgs: HiggsData, metric: Array, tol: float = 1e-5,
                    composite: FlatConnection | None = None) -> FlatConnection:
    """The composite connection with its loops re-measured, as a flat connection.

    Refuses a composite curvature (the sup of ``|hol - I|``, which is the
    flatness residual of the loop-free composite) above ``CURVATURE_FACTOR *
    tol``. ``composite`` is ``composite_transports(higgs, metric)`` when the
    caller already holds it.
    """
    if composite is None:
        composite = composite_transports(higgs, metric)
    curvature_sup = flatness_residual(composite)
    if curvature_sup > CURVATURE_FACTOR * tol:
        raise ValueError(f"composite curvature {curvature_sup:.3e} too large to flatten")
    dom = composite.domain
    loops = tuple(LoopSpec(axis=a, base=0, generator=loop_holonomy(composite, a, 0))
                  for a in range(2) if dom.periodic[a])
    return replace(composite, loops=loops)


def parallel_section_residual(
    conn: FlatConnection,
    metric: Array,
    section: Array,
    mode: str,
    higgs: HiggsData | None = None,
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

    def act(coeff: Array, g: Array) -> Array:
        return la.commutator(coeff, g) if endo else np.einsum("nij,nj->ni", coeff, g)

    scale = float(np.max(np.abs(f))) + 1e-300
    if mode == "flat_to_higgs":
        src = covariant_d(conn, f)
        if float(np.max(np.abs(src))) > SOURCE_TOL * scale / min(dom.spacings):
            raise ValueError("section is not parallel for the source connection")
        sm = split_metric(conn, h_field)
        grad = centered_derivative(sm.connection, f)
        psic = psi_centered(conn, h_field, sm)
        p10, _ = complex_split(dom, psic)
        target = 0.5 * (grad[0] + 1j * grad[1]) + act(p10, f)
        return float(np.max(np.abs(target)))
    if mode == "higgs_to_flat":
        if higgs is None:
            raise ValueError("higgs_to_flat mode needs the Higgs data")
        grad = centered_derivative(higgs.connection, f)
        src = 0.5 * (grad[0] + 1j * grad[1]) + act(higgs.theta, f)
        if float(np.max(np.abs(src))) > SOURCE_TOL * scale / min(dom.spacings):
            raise ValueError("section is not parallel for the Higgs operator")
        psi = _psi_from_theta(higgs.theta, h_field)
        worst = 0.0
        for a in range(dom.dim):
            comp = grad[a] + act(psi[a], f)
            worst = max(worst, float(np.max(np.abs(comp))))
        return worst
    raise ValueError(f"unknown mode {mode!r}")
