"""Higgs structures on complex-curve lattices and the flat round trip.

On a two-dimensional domain (a complex curve) the axes play the roles of
the real and imaginary parts of a holomorphic coordinate. A Higgs datum here
is a metric connection (edge transports with their inverses, carrying the dbar
operator), a per-site Higgs field theta (the matrix coefficient of dz) and the
metric h. The composite connection adds a self-adjoint one-form Psi with
components ``Psi_x = theta + theta*``, ``Psi_y = i (theta - theta*)`` to the
metric transports; its plaquette holonomies measure the composite curvature,
and their area-normalized contraction is the contracted curvature that
``hitchin_residuals`` reports and ``higgs_degree_stability`` integrates.
theta, the composite transports and the residuals are taken over tiles of
sites or edges (``linalg.tiled``), so each holds one tile's temporaries.
The composite transports, the contracted curvature, the degrees and the section
check take each adjoint, exp and norm relative to h from ``HiggsData.root``,
the split's root of h or, for data built bare, ``linalg.check_metric``'s.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import linalg as la
from .analysis import INVARIANCE_TOL, StabilityReport, SubBundleRow, slope_verdict
from .bundle import (
    FlatConnection,
    LoopSpec,
    SplitMetric,
    SubBundleSpec,
    centered_components,
    centered_derivative,
    connection_from_transports,
    covariant_d,
    loop_holonomy,
    plaquette_bases,
    plaquette_holonomies,
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
    """Simpson's harmonic bundle (dbar, theta, h) on a complex-curve lattice.

    A ``root`` left out is taken by ``linalg.check_metric``, which checks the metric.
    The composite connection and the residuals are taken once, when first
    read, and kept with the data. The residuals are sups reduced over tiles
    of sites (``linalg.tiled``): no site field is held whole.
    """

    connection: FlatConnection  # metric transports, their inverses, and the loops
    theta: Array                # (n, r, r) dz-coefficient; theta ^ theta = 0 on curves
    metric: Array               # (n, r, r) the harmonic metric h the data belongs to
    root: la.ScaledRoot | None = None   # the metric's scaled root (linalg.check_metric)

    def __post_init__(self):
        dom = self.connection.domain
        if dom.dim != 2:
            raise ValueError("Higgs data needs a complex-curve domain")
        if np.shape(self.metric) != np.shape(self.theta):
            raise ValueError("metric shape does not match the Higgs field")
        if self.root is None:
            object.__setattr__(self, "root", la.check_metric(self.metric))

    @cached_property
    def holomorphicity_residual(self) -> float:
        """Sup of dbar theta. It vanishes in the continuum for exact solutions
        and here decays with the spacing and the solver tolerance."""
        def norms(sites: Array) -> Array:
            return la.frobenius(_dbar_site_field(self.connection, self.theta, sites))

        return float(np.max(la.tiled(norms, np.arange(self.connection.domain.n_sites))))

    @cached_property
    def composite(self) -> FlatConnection:
        """``composite_transports(self)``, built once."""
        return composite_transports(self)

    @cached_property
    def curvature_sups(self) -> tuple[float, float]:
        """Sups of ``|hol - I|`` and of the contracted curvature over the composite plaquettes."""
        def norms(base: Array) -> tuple[Array, Array]:
            deviation, contracted = _plaquette_curvature(self, base)
            return la.specnorm(deviation), la.frobenius(contracted)

        hol, lam = la.tiled(norms, plaquette_bases(self.connection.domain))
        return float(np.max(hol, initial=0.0)), float(np.max(lam, initial=0.0))


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


def _dbar_site_field(conn: FlatConnection, field: Array, sites: Array | None = None,
                     theta: Array | None = None) -> Array:
    """dbar operator on an endomorphism site field: 0.5 (grad_x + i grad_y) + [theta, .],
    at ``sites`` (every site by default)."""
    sites = np.arange(conn.domain.n_sites) if sites is None else sites
    grad = centered_derivative(conn, field, sites)
    out = 0.5 * (grad[0] + 1j * grad[1])
    if theta is not None:
        out += la.commutator(theta[sites], field[sites])
    return out


def higgs_from_harmonic(sm: SplitMetric, tension_tol: float = 1e-7) -> HiggsData:
    """Higgs structure carried by a harmonic (or Poisson) metric on a curve.

    ``sm`` is the flat connection split at the metric (``bundle.split_metric``,
    or a solve's ``RunReport.split``). theta is the dz-part of the trace-free
    splitting one-form in site-centered components; the metric transports
    carry the dbar operator. The metric is accepted when the trace-free part
    of the split's tension is below ``10 * tension_tol``: a Poisson metric's
    tension is a scalar multiple of the identity at each site, which theta
    does not see. The check and theta run over tiles of sites
    (``linalg.tiled``). The data holds the split's root of the metric.
    """
    conn = sm.flat
    dom = conn.domain
    if dom.dim != 2:
        raise ValueError("Higgs extraction needs a complex-curve domain")
    t_sup = float(np.max(la.tracefree_norm(sm.tension)))
    if t_sup > 10.0 * tension_tol:
        raise ValueError(
            f"metric is not harmonic or Poisson enough (sup trace-free tension {t_sup:.3e} "
            f"> {10 * tension_tol:.1e})"
        )

    def theta_at(sites: Array) -> Array:
        return complex_split(dom, la.tracefree(centered_components(conn, sm.psi, sites)))[0]

    theta = la.tiled(theta_at, np.arange(dom.n_sites))
    return HiggsData(replace(sm.connection, loops=conn.loops), theta, sm.metric, sm.root)


def _psi_from_theta(theta: Array, frame: la.Frame, axes: tuple[int, ...] = (0, 1)) -> Array:
    """Self-adjoint one-form components of theta dz + theta* dzbar along ``axes``:
    ``theta + theta*`` along x and ``i (theta - theta*)`` along y, in the metric's ``frame``."""
    theta_star = la.adjoint(theta, frame)
    return np.stack([theta + theta_star if a == 0 else 1j * (theta - theta_star) for a in axes])


def composite_transports(higgs: HiggsData) -> FlatConnection:
    """The composite (metric + Higgs) connection, without loops.

    The transports ``V exp(-h Psi)`` of the forward edges are taken over tiles
    of edges (``linalg.tiled``) and written into the output stack.
    """
    conn = higgs.connection
    dom = conn.domain

    def edges(a: int, tails: Array) -> Array:
        frame = la.orthonormal_frame(tuple(f[tails] for f in higgs.root))
        psi = _psi_from_theta(higgs.theta[tails], frame, (a,))[0]
        step = la.exp_hsa(psi, frame, -dom.spacings[a])
        return la.mm(conn.transport[a, tails], step)

    out = conn.transport.copy()
    for a in range(2):
        tails, _ = conn.edge_sites(a)
        la.tiled(partial(edges, a), tails, out=(out[a],), at=tails)
    return connection_from_transports(dom, out)


def _plaquette_curvature(higgs: HiggsData, base: Array) -> tuple[Array, Array]:
    """``hol - I`` and the contracted curvature at the composite plaquettes based at ``base``.

    The contracted curvature is the area-normalized, metric-symmetrized
    coefficient ``i (hol - I) / area``.
    """
    dom = higgs.connection.domain
    _, hol = plaquette_holonomies(higgs.composite, base)
    deviation = hol - np.eye(higgs.connection.rank, dtype=complex)
    area = dom.spacings[0] * dom.spacings[1]
    contracted = la.selfadjoint_part(1j * deviation / area, np.asarray(higgs.metric)[base],
                                     tuple(f[base] for f in higgs.root))
    return deviation, contracted


def lambda_contraction(higgs: HiggsData) -> Array:
    """The contracted curvature of the composite connection as a site field,
    at the base site of each plaquette and zero elsewhere."""
    dom, r = higgs.connection.domain, higgs.connection.rank
    out = np.zeros((dom.n_sites, r, r), dtype=complex)
    base = plaquette_bases(dom)
    la.tiled(lambda b: _plaquette_curvature(higgs, b)[1], base, out=(out,), at=base)
    return out


def hitchin_residuals(higgs: HiggsData) -> dict:
    """Holomorphy, composite-curvature, and contracted-curvature sup norms."""
    curvature, contracted = higgs.curvature_sups
    return {
        "holomorphy": higgs.holomorphicity_residual,
        "hs_curvature_sup": curvature,
        "lambda_F_sup": contracted,
    }


def higgs_degree_stability(higgs: HiggsData, subs: list[SubBundleSpec]) -> StabilityReport:
    """Degrees and slope verdicts for Higgs-invariant sub-bundles.

    The total degree integrates i tr(Lambda F); a sub-bundle subtracts the
    squared dbar-derivative of its projection (with the dzbar frame weight 2
    from |dzbar|^2 = 2 in the flat base metric). Requires the stored
    transports to be near-isometries of the data's metric, which holds for
    data extracted at that metric.
    """
    conn = higgs.connection
    dom = conn.domain
    k_field = np.asarray(higgs.metric, dtype=complex)
    for a in range(2):
        tails, heads = conn.edge_sites(a)
        w = conn.transport[a, tails]
        defect = la.frobenius(la.mm(la.mm(dagger(w), k_field[heads]), w) - k_field[tails])
        if float(defect.max()) > 1e-6 * (1.0 + float(la.frobenius(k_field).max())):
            raise ValueError("metric is incompatible with the stored transports")
    lam = lambda_contraction(higgs)
    frame = la.orthonormal_frame(higgs.root)
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
        dens -= 2.0 * la.endo_norm2(dbar_pi, frame)
        d = integrate(dom, dens)
        rows.append(SubBundleRow(rank=s.rank, invariance_residual=max(
            s.invariance_residual, theta_res), degree=d, slope=d / s.rank))
    return slope_verdict(total_deg, conn.rank, rows,
                         "scope: verdict relative to the supplied sub-bundle list.")


def flat_from_higgs(higgs: HiggsData, tol: float = 1e-5) -> FlatConnection:
    """The composite connection with its loops re-measured, as a flat connection.

    Refuses a composite curvature (the sup of ``|hol - I|`` the Higgs data
    carries) above ``CURVATURE_FACTOR * tol``.
    """
    curvature_sup = higgs.curvature_sups[0]
    if curvature_sup > CURVATURE_FACTOR * tol:
        raise ValueError(f"composite curvature {curvature_sup:.3e} too large to flatten")
    composite = higgs.composite
    loops = tuple(LoopSpec(axis=a, generator=loop_holonomy(composite, a))
                  for a in range(2) if composite.domain.periodic[a])
    return replace(composite, loops=loops)


def parallel_section_residual(source: SplitMetric | HiggsData, section: Array) -> float:
    """Transfer check: a source-parallel section is parallel for the target operator.

    From a ``SplitMetric`` (flat to Higgs) the source is the flat connection
    it split and the target the mixed operator: the dbar part of the metric
    connection plus the dz-part of psi, which needs a harmonic metric. From
    ``HiggsData`` (Higgs to flat) the source is the Higgs dbar operator and
    the target the composite connection at the data's metric. Sections may be
    vectors (n, r) or endomorphisms (n, r, r); endomorphisms transform by the
    adjoint action.
    """
    dom = source.connection.domain
    f = np.asarray(section, dtype=complex)
    endo = f.ndim == 3

    def act(coeff: Array, g: Array) -> Array:
        return la.commutator(coeff, g) if endo else np.einsum("nij,nj->ni", coeff, g)

    limit = SOURCE_TOL * (float(np.max(np.abs(f))) + 1e-300) / min(dom.spacings)
    grad = centered_derivative(source.connection, f)
    if isinstance(source, SplitMetric):
        src = covariant_d(source.flat, f)
        if float(np.max(np.abs(src))) > limit:
            raise ValueError("section is not parallel for the source connection")
        p10, _ = complex_split(dom, centered_components(source.flat, source.psi))
        target = 0.5 * (grad[0] + 1j * grad[1]) + act(p10, f)
        return float(np.max(np.abs(target)))
    src = 0.5 * (grad[0] + 1j * grad[1]) + act(source.theta, f)
    if float(np.max(np.abs(src))) > limit:
        raise ValueError("section is not parallel for the Higgs operator")
    psi = _psi_from_theta(source.theta, la.orthonormal_frame(source.root))
    worst = 0.0
    for a in range(dom.dim):
        comp = grad[a] + act(psi[a], f)
        worst = max(worst, float(np.max(np.abs(comp))))
    return worst
