"""Diagnostics on flat bundles: distances, degrees, stability, and identities.

The analytic degree integrates the trace of the tension field; on closed
domains the total degree vanishes identically (the integrand is a discrete
divergence), so the interesting content sits in the sub-bundle degrees, which
are assembled from the projection's covariant derivative. Slope comparisons
carry an absolute margin: equality within tolerance is reported as strictly
semistable, never as stable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .bundle import (
    FlatConnection,
    SplitMetric,
    SubBundleSpec,
    centered_components,
    covariant_d,
    invariant_subbundles,
    reference_difference,
    split_metric,
    tension,
)
from .mesh import integrate, laplacian

Array = np.ndarray

# The largest invariance residual of a sub-bundle whose degree is taken
# (``degree``, ``hodge.higgs_degree_stability``).
INVARIANCE_TOL = 1e-6


def donaldson_distance(h_field: Array, k_field: Array) -> tuple[Array, float]:
    """Pointwise tr(K^-1 H) + tr(H^-1 K) - 2 rank, and its sup over sites.

    Read off the relative eigenvalues of K^-1 H (``linalg.rel_eigvals``) by
    ``linalg.donaldson_sigma``, which resolves distances far below 2 rank's roundoff.
    """
    h = np.asarray(h_field, dtype=complex)
    k = np.asarray(k_field, dtype=complex)
    if h.shape != k.shape:
        raise ValueError("metric fields must share rank and site count")
    field = la.donaldson_sigma(la.rel_eigvals(h, la.orthonormal_frame(la.check_metric(k))[1]))
    return field, float(field.max())


def degree(sm: SplitMetric, sub: SubBundleSpec | None = None) -> float:
    """Analytic degree of the bundle, or of an invariant sub-bundle.

    ``sm`` is the flat connection split at the reference metric
    (``bundle.split_metric``), which one caller shares between the total and
    every sub-bundle degree. Total degree: minus the integral of the tension
    trace. Sub-bundle degree: minus the integral of tr(pi T) + 0.5 |D pi|^2
    with pi the reference-orthogonal projection; its derivative enters through
    site-centered components under the reference pairing. Intended for closed
    domains, where the total integrand is an exact divergence.
    """
    conn = sm.flat
    t_field, frame = sm.tension, la.orthonormal_frame(sm.root)
    if sub is None:
        return -integrate(conn.domain, np.einsum("nii->n", t_field).real)
    if sub.invariance_residual > INVARIANCE_TOL:
        raise ValueError("sub-bundle is not invariant within tolerance")
    pi = sub.projection
    dpi = centered_components(conn, covariant_d(conn, pi))
    dens = np.einsum("nij,nji->n", pi, t_field).real
    for a in range(conn.domain.dim):
        dens += 0.5 * la.endo_norm2(dpi[a], frame)
    return -integrate(conn.domain, dens)


@dataclass(frozen=True)
class SubBundleRow:
    rank: int
    invariance_residual: float
    degree: float
    slope: float


@dataclass(frozen=True)
class StabilityReport:
    total_degree: float
    total_rank: int
    total_slope: float
    rows: tuple[SubBundleRow, ...]
    verdict: str                  # stable | strictly_semistable | unstable
    witness: int | None           # row index driving the verdict
    scope_note: str

    def to_text(self) -> str:
        lines = [
            f"total: rank {self.total_rank}, degree {self.total_degree:+.10e}, "
            f"slope {self.total_slope:+.10e}",
            "sub-bundles (rank, degree, slope, invariance residual):",
        ]
        for i, row in enumerate(self.rows):
            tag = "  <- witness" if self.witness == i else ""
            lines.append(
                f"  [{i}] rank {row.rank}  degree {row.degree:+.10e}  "
                f"slope {row.slope:+.10e}  residual {row.invariance_residual:.3e}{tag}"
            )
        lines.append(f"verdict: {self.verdict}")
        lines.append(self.scope_note)
        return "\n".join(lines)


def stability_report(
    conn: FlatConnection, reference: Array, subs: list[SubBundleSpec]
) -> StabilityReport:
    if not subs:
        raise ValueError("stability needs at least one candidate sub-bundle")
    sm = split_metric(conn, reference)
    total_deg = degree(sm)
    rows = []
    for s in subs:
        d = degree(sm, sub=s)
        rows.append(
            SubBundleRow(
                rank=s.rank,
                invariance_residual=s.invariance_residual,
                degree=d,
                slope=d / s.rank,
            )
        )
    return slope_verdict(total_deg, conn.rank, rows, (
        "scope: verdict relative to the supplied sub-bundle list; the built-in "
        "enumeration is exhaustive for rank <= 3 holonomy up to representatives "
        "inside degenerate joint eigenspaces."
    ))


def slope_verdict(
    total_degree: float, rank: int, rows: list[SubBundleRow], scope_note: str
) -> StabilityReport:
    """Slope verdict of the sub-bundle rows against the total slope.

    A row whose slope exceeds the total slope by more than the absolute margin
    ``1e-8 (1 + |total degree|)`` makes the bundle unstable; a worst row within
    the margin makes it strictly semistable. The witness is the row with the
    largest slope gap.
    """
    total_slope = total_degree / rank
    tol = 1e-8 * (1.0 + abs(total_degree))
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
        total_degree=total_degree,
        total_rank=rank,
        total_slope=total_slope,
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        scope_note=scope_note,
    )


# ---------------------------------------------------------------------------
# spectral functional calculus


def _theta_scalar(x: Array, y: Array) -> Array:
    """(e^{y-x} - 1) / (y - x), by ``expm1`` to full relative precision, and 1 at y = x."""
    d = y - x
    safe = np.where(d == 0.0, 1.0, d)
    return np.where(d == 0.0, 1.0, np.expm1(safe) / safe)


def theta_apply(s: Array, chi: Array, frame: la.Frame) -> Array:
    """Spectral two-variable calculus in the eigenbasis of a self-adjoint s.

    Scales the component of chi mapping the lambda_a eigenvector into the
    lambda_b eigenvector by (e^{l_b - l_a} - 1)/(l_b - l_a), which ``expm1``
    keeps free of cancellation for near-coincident eigenvalues.
    s must be self-adjoint to within 1e-8 for the metric whose orthonormal
    ``frame`` (g, g^{-1}) is given: g s g^{-1} Hermitian.
    """
    x = la.to_frame(s, frame)
    if np.any(la.frobenius(x - la.dagger(x)) > 1e-8 * (1.0 + la.frobenius(x))):
        raise ValueError("endomorphism is not self-adjoint for the reference metric")
    lam, v = la.eigh(la.hermitize(x))
    comp = la.mm(la.mm(la.dagger(v), la.to_frame(chi, frame)), v)
    weights = _theta_scalar(lam[..., None, :], lam[..., :, None])
    return la.from_frame(la.mm(la.mm(v, weights * comp), la.dagger(v)), frame)


def identity_residuals(conn: FlatConnection, h_field: Array, k_field: Array) -> dict:
    """Defects of the two exact relations tying a metric pair together.

    ``pointwise_residual``: per-site defect of
    (T_H - T_K, h) = 0.5 lap tr h - 0.5 |h^{-1/2} delta_K h|^2
    under the K-pairing, with site-centered derivative components (zeroed on
    boundary sites, where ``mesh.laplacian`` reads 0).

    ``integral_gap``: defect of
    int (T_H - T_K, s) = -0.5 int (Theta[s](D s), D s)
    with s = log(K^{-1}H); on bounded domains this requires s = 0 on the
    boundary, and a pair whose s does not vanish there raises.
    """
    dom = conn.domain
    h = np.asarray(h_field, dtype=complex)
    k = np.asarray(k_field, dtype=complex)
    sm_k = split_metric(conn, k)      # the splits check both metrics
    diff = tension(conn, h) - sm_k.tension
    frame = la.orthonormal_frame(sm_k.root)
    # Functions of K^-1 H from the eigenpairs of H in K's frame.
    lam, v = la.eigh(la.metric_in_frame(h, frame[1]))
    if np.any(lam <= 0):
        raise ValueError("relative endomorphism is not positive")

    def relative(f: Array) -> Array:
        return la.from_frame(la.mm(v * f[..., None, :], la.dagger(v)), frame)

    h_rel = relative(lam)

    # left side and Laplacian term
    lhs = np.einsum("nij,nji->n", diff, h_rel).real
    tr_h = np.einsum("nii->n", h_rel).real
    lap = laplacian(dom, tr_h)

    # |h^{-1/2} delta_K h|^2 with centered components
    dk_c = centered_components(sm_k.connection, reference_difference(sm_k, h_rel))
    inv_sqrt = relative(lam ** -0.5)
    grad2 = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        grad2 += la.endo_norm2(la.mm(inv_sqrt, dk_c[a]), frame)
    pointwise = lhs - 0.5 * lap + 0.5 * grad2
    pointwise[dom.boundary] = 0.0

    # integral identity
    s_log = relative(np.log(lam))
    if dom.boundary.any():
        s_edge = float(np.max(la.frobenius(s_log[dom.boundary]), initial=0.0))
        if s_edge > 1e-8 * (1.0 + float(np.max(la.frobenius(s_log)))):
            raise ValueError(
                "the integral identity needs log(K^{-1}H) to vanish on the boundary"
            )
    ds = centered_components(conn, covariant_d(conn, s_log))
    lhs_int = integrate(dom, np.einsum("nij,nji->n", diff, s_log).real)
    rhs_dens = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        rhs_dens += la.endo_inner(theta_apply(s_log, ds[a], frame), ds[a], frame)
    gap = lhs_int + 0.5 * integrate(dom, rhs_dens)
    return {"pointwise_residual": pointwise, "integral_gap": float(gap)}


def runaway_certificate(conn: FlatConnection, reference: Array, metric: Array) -> str:
    """The invariant sub-bundle along which a runaway metric degenerates, as one clause.

    The eigendirection of K^{-1}H at site 0, where ``invariant_subbundles``
    places its base bases, whose eigenvalue is the smallest is the direction
    in which the metric shrinks. It is matched to the invariant sub-bundle at
    the smallest K-angle from it (the lowest rank among equal angles), and the
    clause says whether that sub-bundle has an invariant complement among the
    enumerated ones. When it has none, the monodromy is not semisimple, and by
    Corlette's theorem no harmonic metric exists. Rank <= 3, as the
    enumeration.
    """
    subs = invariant_subbundles(conn, reference)
    # H v = lam K v through K = g^dag g: the Hermitian g^-dag H g^-1 w = lam w, with
    # v = g^-1 w. In that frame the K-norm is the Euclidean norm.
    frame = la.orthonormal_frame(la.check_metric(np.asarray(reference[:1], dtype=complex)))
    lam, w = la.eigh(la.metric_in_frame(np.asarray(metric[:1], dtype=complex), frame[1]))
    if not subs:
        return "; the enumeration finds no proper invariant sub-bundle to name"
    w0 = w[0, :, 0]

    def angle(spec: SubBundleSpec) -> float:
        inside = la.to_frame(spec.projection[:1], frame)[0] @ w0
        return float(np.arctan2(np.linalg.norm(w0 - inside), np.linalg.norm(inside)))

    angles = [angle(spec) for spec in subs]
    best = min(range(len(subs)), key=lambda i: (round(angles[i], 6), subs[i].rank))
    spec = subs[best]
    complement = any(
        other.rank == conn.rank - spec.rank
        and np.linalg.svd(np.hstack([spec.base_basis, other.base_basis]),
                          compute_uv=False).min() > 1e-8
        for other in subs)
    basis = ", ".join(_fmt_vector(col) for col in spec.base_basis.T)
    clause = (f"; the metric degenerates along the invariant rank-{spec.rank} sub-bundle "
              f"spanned at site 0 by {basis} (invariance residual "
              f"{spec.invariance_residual:.1e}), at angle {angles[best]:.1e} rad from the "
              f"shrinking eigendirection of K^-1 H there (eigenvalue {lam[0, 0]:.3e}); ")
    if complement:
        return clause + "it has an invariant complement"
    return clause + ("it has no invariant complement, so the monodromy is not semisimple "
                     "and admits no harmonic metric")


def _fmt_vector(v: Array) -> str:
    """A unit basis vector as ``(a, b, ...)``, its largest entry made real and positive."""
    v = v * np.exp(-1j * np.angle(v[np.argmax(np.abs(v))]))
    parts = []
    for z in v:
        if abs(z.imag) <= 1e-12:
            parts.append(f"{z.real + 0.0:.3g}")
        else:
            parts.append(f"{z.real + 0.0:.3g}{z.imag:+.3g}j")
    return "(" + ", ".join(parts) + ")"


def alpha1_period(conn: FlatConnection, metric: Array, loop: list[int]) -> float:
    """Loop period of tr(psi_H): sum of spacing * tr psi over the loop edges.

    The loop is an ordered closed cycle of lattice-adjacent sites. Between two
    metrics the period shifts by the loop sum of a discrete exact differential
    of log det h, which telescopes away, so the period is a metric-independent
    class invariant of the connection.
    """
    dom = conn.domain
    sites = list(loop)
    if sites[0] != sites[-1]:
        sites = sites + [sites[0]]
    sm = split_metric(conn, metric)
    total = 0.0
    for x, y in zip(sites[:-1], sites[1:]):
        for a in range(dom.dim):
            if dom.neighbors[a, 0, x] == y:
                total += dom.spacings[a] * float(np.trace(sm.psi[a, x]).real)
                break
            if dom.neighbors[a, 1, x] == y:
                # reverse edge: transport antisymmetry flips the trace sign
                total -= dom.spacings[a] * float(np.trace(sm.psi[a, y]).real)
                break
        else:
            raise ValueError(f"loop sites {x} and {y} are not lattice-adjacent")
    return total


def axis_loop(conn: FlatConnection, axis: int) -> list[int]:
    """The fundamental cycle along a periodic axis from site 0, as an ordered site list."""
    dom = conn.domain
    if not dom.periodic[axis]:
        raise ValueError("axis is not periodic")
    sites = [0]
    for _ in range(dom.sites_per_axis[axis]):
        sites.append(int(dom.neighbors[axis, 0, sites[-1]]))
    return sites

