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

    Read off the relative eigenvalues of K^-1 H by ``linalg.donaldson_sigma``,
    which resolves distances far below the roundoff of 2 rank.
    """
    h = np.asarray(h_field, dtype=complex)
    k = np.asarray(k_field, dtype=complex)
    if h.shape != k.shape:
        raise ValueError("metric fields must share rank and site count")
    field = la.donaldson_sigma(la.rel_eigvals(k, h))
    return field, float(field.max())


def degree(
    conn: FlatConnection,
    reference: Array,
    sub: SubBundleSpec | None = None,
) -> float:
    """Analytic degree of the bundle, or of an invariant sub-bundle.

    Total degree: minus the integral of the tension trace. Sub-bundle degree:
    minus the integral of tr(pi T) + 0.5 |D pi|^2 with pi the reference-
    orthogonal projection; its derivative enters through site-centered
    components under the reference pairing. Intended for closed domains,
    where the total integrand is an exact divergence.
    """
    t_field = tension(conn, reference)
    if sub is None:
        return -integrate(conn.domain, np.einsum("nii->n", t_field).real)
    if sub.invariance_residual > INVARIANCE_TOL:
        raise ValueError("sub-bundle is not invariant within tolerance")
    pi = sub.projection
    dpi = centered_components(conn, covariant_d(conn, pi))
    dens = np.einsum("nij,nji->n", pi, t_field).real
    for a in range(conn.domain.dim):
        dens += 0.5 * la.endo_norm2(dpi[a], reference)
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
    total_deg = degree(conn, reference)
    rows = []
    for s in subs:
        d = degree(conn, reference, sub=s)
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
    """(e^{y-x} - 1) / (y - x), series-continued through the diagonal."""
    d = y - x
    small = np.abs(d) < 1e-7
    safe = np.where(small, 1.0, d)
    quotient = (np.exp(safe) - 1.0) / safe
    series = 1.0 + d / 2.0 + d * d / 6.0
    return np.where(small, series, quotient)


def theta_apply(s: Array, chi: Array, metric: Array | None = None) -> Array:
    """Spectral two-variable calculus in the eigenbasis of a self-adjoint s.

    Scales the component of chi mapping the lambda_a eigenvector into the
    lambda_b eigenvector by (e^{l_b - l_a} - 1)/(l_b - l_a); near-
    coincident eigenvalues use the quadratic series to avoid cancellation.
    s must be self-adjoint for ``metric`` (identity by default) to within
    1e-8.
    """
    s = np.asarray(s, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    single = s.ndim == 2
    if single:
        s = s[None]
        chi = chi[None]
    if metric is None:
        metric = np.broadcast_to(np.eye(s.shape[-1], dtype=complex), s.shape).copy()
    else:
        metric = np.asarray(metric, dtype=complex)
        if metric.ndim == 2:
            metric = np.broadcast_to(metric, s.shape).copy()
    dev = la.frobenius(s - np.linalg.solve(metric, la.mm(la.dagger(s), metric)))
    if np.any(dev > 1e-8 * (1.0 + la.frobenius(s))):
        raise ValueError("endomorphism is not self-adjoint for the reference metric")
    lam, frame, frame_inv = la.log_hsa(s, metric)
    comp = la.mm(la.mm(frame_inv, chi), frame)
    weights = _theta_scalar(lam[..., None, :], lam[..., :, None])
    out = la.mm(la.mm(frame, weights * comp), frame_inv)
    return out[0] if single else out


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
    la.check_metric(h)
    la.check_metric(k)
    h_rel = np.linalg.solve(k, h)
    sm_k = split_metric(conn, k)
    diff = tension(conn, h) - sm_k.tension

    # left side and Laplacian term
    lhs = np.einsum("nij,nji->n", diff, h_rel).real
    tr_h = np.einsum("nii->n", h_rel).real
    lap = laplacian(dom, tr_h)

    # |h^{-1/2} delta_K h|^2 with centered components
    dk_c = centered_components(sm_k.connection, reference_difference(sm_k, h_rel)[0])
    lam, frame, frame_inv = la.log_hsa(h_rel, k)
    if np.any(lam <= 0):
        raise ValueError("relative endomorphism is not positive")
    inv_sqrt = la.mm(frame * (lam[..., None, :] ** -0.5), frame_inv)
    grad2 = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        grad2 += la.endo_norm2(la.mm(inv_sqrt, dk_c[a]), k)
    pointwise = lhs - 0.5 * lap + 0.5 * grad2
    pointwise[dom.boundary] = 0.0

    # integral identity
    s_log = la.mm(frame * np.log(lam)[..., None, :], frame_inv)
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
        rhs_dens += la.endo_inner(theta_apply(s_log, ds[a], metric=k), ds[a], k)
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
    k0 = np.asarray(reference[0], dtype=complex)
    # H v = lam K v through K = C C^dag: the Hermitian C^-1 H C^-dag, then v = C^-dag w.
    chol = np.linalg.cholesky(k0)
    lam, w = np.linalg.eigh(la.hermitize(np.linalg.solve(
        chol, la.dagger(np.linalg.solve(chol, np.asarray(metric[0], dtype=complex))))))
    vecs = np.linalg.solve(la.dagger(chol), w)
    if not subs:
        return "; the enumeration finds no proper invariant sub-bundle to name"
    v = vecs[:, 0]

    def k_norm(w: Array) -> float:
        return float(np.sqrt(max(np.vdot(w, k0 @ w).real, 0.0)))

    def angle(spec: SubBundleSpec) -> float:
        inside = spec.projection[0] @ v
        return float(np.arctan2(k_norm(v - inside), k_norm(inside)))

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
              f"shrinking eigendirection of K^-1 H there (eigenvalue {lam[0]:.3e}); ")
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

