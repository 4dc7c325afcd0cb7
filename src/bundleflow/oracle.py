"""Independent reference solutions: closed forms and a brute-force energy gradient.

These routines deliberately avoid the production operator assembly. The
brute-force gradient differentiates the scalar edge energy numerically and
maps the result back through the metric pairing; agreement with the closed
form tension pins every sign and factor convention in the package (the flow
must be the descent direction of the energy).
"""
from __future__ import annotations

import numpy as np

from . import linalg as la
from .bundle import FlatConnection, split_metric
from .mesh import LatticeDomain

Array = np.ndarray


def circle_harmonic_exact(monodromy: Array, length: float, n_sites: int) -> Array:
    """Harmonic metric for a circle connection that spreads ``monodromy`` evenly.

    Diagonalize M = P diag(mu_j) P^{-1}. In the eigenframe the problem is a
    direct sum of rank-one equations whose equivariant solutions are
    exponential in the covering coordinate; expressed in the evenly-spread
    lattice gauge the accumulated transports cancel the exponentials exactly
    and the metric becomes the constant field (P P^dag)^{-1}, normalized here
    to unit determinant. Non-diagonalizable monodromies are rejected: they
    admit no harmonic metric.

    This is an exactness reference, not a refinement reference: every
    discrete flat bundle on a circle is gauge-equivalent to the evenly spread
    one and the discrete equation is gauge-covariant, so the lattice fixed
    point equals this constant field exactly, at every resolution. For an
    oracle with a genuine O(h^2) truncation error use
    ``rectangle_harmonic_exact``.
    """
    m = np.asarray(monodromy, dtype=complex)
    r = m.shape[0]
    if m.shape != (r, r):
        raise ValueError("monodromy must be square")
    lam, p = np.linalg.eig(m)
    if np.any(np.abs(lam) < 1e-14):
        raise ValueError("monodromy is singular")
    recon = p @ np.diag(lam) @ np.linalg.inv(p)
    if (
        la.specnorm(recon - m) > 1e-8 * max(float(la.specnorm(m)), 1.0)
        or np.linalg.cond(p) > 1e8
    ):
        raise ValueError("monodromy is not diagonalizable; no harmonic metric exists")
    h0 = np.linalg.inv(p @ la.dagger(p))
    h0 = la.hermitize(h0 / np.linalg.det(h0) ** (1.0 / r))
    return np.broadcast_to(h0, (n_sites, r, r)).copy()


def rectangle_harmonic_exact(domain: LatticeDomain) -> Array:
    """Harmonic metric diag(e^u, e^-u) of the trivial rank-2 bundle on a rectangle.

    ``u = sin(pi x / Lx) sinh(pi y / Lx) / sinh(pi Ly / Lx)`` is harmonic, and
    for a trivial connection a metric exp(u sigma_3) with harmonic u has
    vanishing tension. Sampled on the lattice and used as Dirichlet data, it
    is the limit of the discrete Dirichlet solves, which reach it at second
    order in the spacing: the discrete fixed point is exp(u_h sigma_3) with
    u_h the discrete harmonic interpolant of the boundary values of u.
    """
    if domain.kind != "rectangle":
        raise ValueError("the closed form is for rectangle domains")
    lx, ly = domain.lengths
    x, y = domain.coords().T
    u = np.sin(np.pi * x / lx) * np.sinh(np.pi * y / lx) / np.sinh(np.pi * ly / lx)
    out = np.zeros((domain.n_sites, 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(u)
    out[:, 1, 1] = np.exp(-u)
    return out


def brute_force_tension(conn: FlatConnection, metric: Array, step: float = 1e-5) -> Array:
    """Central finite-difference gradient of the edge energy, site by site.

    For each site and each Hermitian perturbation direction A the derivative
    of the energy along ``H -> H + eps A`` is measured, then the collection is
    mapped back through the pairing ``dE = -vol_x Re tr(v Q)`` with
    ``v = H^{-1} A`` to recover the H-self-adjoint gradient field Q. Instances
    are limited to sites * rank^2 <= 5000 degrees of freedom.
    """
    dom: LatticeDomain = conn.domain
    h_field = np.asarray(metric, dtype=complex)
    r = conn.rank
    if dom.n_sites * r * r > 5000:
        raise ValueError("instance too large for brute-force differentiation")
    basis = la.hermitian_basis(r)
    nb = len(basis)
    out = np.zeros((dom.n_sites, r, r), dtype=complex)
    for x in range(dom.n_sites):
        derivs = np.zeros(nb)
        for k, a_dir in enumerate(basis):
            hp = h_field.copy()
            hp[x] = h_field[x] + step * a_dir
            hm = h_field.copy()
            hm[x] = h_field[x] - step * a_dir
            rise = split_metric(conn, hp).energy - split_metric(conn, hm).energy
            derivs[k] = rise / (2.0 * step)
        v_dirs = [np.linalg.solve(h_field[x], a_dir) for a_dir in basis]
        gram = np.array(
            [[np.trace(vi @ vj).real for vj in v_dirs] for vi in v_dirs]
        )
        coeff = np.linalg.solve(gram, -derivs / dom.volume[x])
        q = sum(c * v for c, v in zip(coeff, v_dirs))
        out[x] = la.selfadjoint_part(q[None], h_field[x:x + 1], la.scaled_sqrt(h_field[x:x + 1]))[0]
    return out
