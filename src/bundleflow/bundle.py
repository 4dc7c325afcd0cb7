"""Flat bundles as per-edge parallel transports, and their metric calculus.

Conventions
-----------
A transport ``U_e`` on the forward edge ``e = (x -> x+e_a)`` maps the fiber at
``x`` to the fiber at ``x+e_a``: a section is parallel when ``v(y) = U_e v(x)``.
One-forms store one matrix per forward edge, attached to the tail site; the
value on the reverse edge is ``-U_e . value . U_e^{-1}`` (transport
antisymmetry), which the splitting one-form below satisfies identically.

Metric splitting
----------------
For a fiber metric ``H`` the connection decomposes into a metric-preserving
part and an H-self-adjoint one-form. On an edge the whole content sits in the
positive, H(x)-self-adjoint comparison operator ``P_e = H(x)^{-1} U_e^dag H(y)
U_e``:

``psi_H(e) = -log(P_e) / (2 h)``,   ``V_e = U_e exp(+h psi_H(e)) = U_e P_e^{-1/2}``.

``V_e`` is an exact isometry from (fiber_x, H(x)) to (fiber_y, H(y)) and
``U_e = V_e exp(-h psi_H(e))`` exactly. The codifferential is the exact
adjoint of the V-covariant difference under the quadrature-weighted pairings,
so the tension field below is the exact gradient of the edge energy
``E(H) = sum_e w_e |psi_H(e)|^2`` under the metric pairing
``<v, Q> = sum_x vol_x Re tr(v Q)``; the heat flow defined on top of it is a
genuine discrete gradient flow.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg as la
from .mesh import LatticeDomain

Array = np.ndarray


@dataclass(frozen=True)
class LoopSpec:
    """A designated fundamental loop: one full cycle along a periodic axis."""

    axis: int
    base: int
    generator: Array


@dataclass(frozen=True)
class FlatConnection:
    domain: LatticeDomain
    rank: int
    transport: Array          # (dim, n, r, r); identity rows where no forward edge
    transport_inv: Array
    loops: tuple[LoopSpec, ...] = field(default_factory=tuple)

    def edge_sites(self, axis: int) -> tuple[Array, Array]:
        """(tails, heads) of the forward edges along one axis."""
        tails = np.flatnonzero(self.domain.neighbors[axis, 0] >= 0)
        return tails, self.domain.neighbors[axis, 0][tails]


def connection_from_transports(
    domain: LatticeDomain, transports: Array, loops: tuple[LoopSpec, ...] = ()
) -> FlatConnection:
    t = np.asarray(transports, dtype=complex)
    r = t.shape[-1]
    if t.shape != (domain.dim, domain.n_sites, r, r):
        raise ValueError("transport array shape does not match the domain")
    return FlatConnection(domain, r, t, np.linalg.inv(t), tuple(loops))


def from_monodromy(
    domain: LatticeDomain,
    generators: list[Array] | tuple[Array, ...],
    logs: list[Array] | None = None,
    rank: int | None = None,
) -> FlatConnection:
    """Flat connection spreading each loop generator evenly along its axis.

    One generator per periodic axis (circle and annulus: 1, torus: 2, bounded
    domains: 0, where ``rank`` must be given explicitly). Torus generators
    must commute, otherwise no flat connection has those monodromies.
    Generators whose spectrum meets the nonpositive real axis need an
    explicit logarithm branch through ``logs``.
    """
    periodic_axes = [a for a in range(domain.dim) if domain.periodic[a]]
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if len(gens) != len(periodic_axes):
        raise ValueError(
            f"domain kind {domain.kind!r} needs {len(periodic_axes)} generator(s), got {len(gens)}"
        )
    if not gens:
        if rank is None:
            raise ValueError("rank is required when the domain has no loops")
        r = int(rank)
    else:
        r = gens[0].shape[0]
        if rank is not None and rank != r:
            raise ValueError("rank does not match the generators")
    if r < 1:
        raise ValueError(f"rank must be 1 or more, got {r}")
    for g in gens:
        if g.shape != (r, r):
            raise ValueError("generators must be square matrices of equal rank")
        if abs(np.linalg.det(g)) < 1e-14:
            raise ValueError("generator is singular")
    if len(gens) == 2:
        comm = gens[0] @ gens[1] - gens[1] @ gens[0]
        scale = la.frobenius(gens[0]) * la.frobenius(gens[1])
        if la.frobenius(comm) > 1e-10 * max(scale, 1e-300):
            raise ValueError("torus generators do not commute; flatness is impossible")

    transports = np.broadcast_to(
        np.eye(r, dtype=complex), (domain.dim, domain.n_sites, r, r)
    ).copy()
    loops: list[LoopSpec] = []
    for k, axis in enumerate(periodic_axes):
        lg = None if logs is None else logs[k]
        frac = la.fractional_power(gens[k], domain.spacings[axis] / domain.lengths[axis], log=lg)
        closure = np.linalg.matrix_power(frac, domain.sites_per_axis[axis])
        if la.specnorm(closure - gens[k]) > 1e-10 * max(float(la.specnorm(gens[k])), 1.0):
            raise ValueError("per-edge transport does not close up to the generator")
        transports[axis] = frac
        loops.append(LoopSpec(axis=axis, base=0, generator=gens[k]))
    return connection_from_transports(domain, transports, tuple(loops))


def loop_holonomy(conn: FlatConnection, axis: int, base: int) -> Array:
    """Holonomy of the full axis cycle through ``base`` (path-ordered product)."""
    dom = conn.domain
    hol = np.eye(conn.rank, dtype=complex)
    site = base
    for _ in range(dom.sites_per_axis[axis]):
        hol = conn.transport[axis, site] @ hol
        site = int(dom.neighbors[axis, 0, site])
    if site != base:
        raise ValueError("axis is not periodic; no loop")
    return hol


def plaquette_holonomies(conn: FlatConnection) -> tuple[Array, Array]:
    """(sites, holonomies) for every plaquette with base at its lower-left site."""
    dom = conn.domain
    if dom.dim != 2:
        return np.zeros(0, dtype=int), np.zeros((0, conn.rank, conn.rank))
    nx = dom.neighbors[0, 0]
    ny = dom.neighbors[1, 0]
    base = np.flatnonzero((nx >= 0) & (ny >= 0))
    base = base[(ny[nx[base]] >= 0) & (nx[ny[base]] >= 0)]
    t, t_inv = conn.transport, conn.transport_inv
    hol = t_inv[1, base] @ t_inv[0, ny[base]] @ t[1, nx[base]] @ t[0, base]
    return base, hol


def flatness_residual(conn: FlatConnection) -> float:
    """Deviation of the connection from flatness with the prescribed monodromies.

    Plaquette holonomies are compared to the identity in spectral norm; the
    designated axis loops are compared to their generators through the
    eigenvalue-multiset distance, which is insensitive to the base point and
    to gauge.
    """
    worst = 0.0
    _, hol = plaquette_holonomies(conn)
    if hol.size:
        eye = np.eye(conn.rank, dtype=complex)
        worst = float(np.max(la.specnorm(hol - eye)))
    for loop in conn.loops:
        h = loop_holonomy(conn, loop.axis, loop.base)
        worst = max(worst, la.spectrum_distance(h, loop.generator))
    return worst


def gauge_transform(conn: FlatConnection, gauge: Array) -> FlatConnection:
    """New connection in the frame ``v' = g^{-1} v``; transports g(y)^{-1} U g(x)."""
    g = np.asarray(gauge, dtype=complex)
    new = conn.transport.copy()
    for a in range(conn.domain.dim):
        tails, heads = conn.edge_sites(a)
        new[a, tails] = np.linalg.solve(g[heads], conn.transport[a, tails] @ g[tails])
    return connection_from_transports(conn.domain, new, conn.loops)


def gauge_transform_metric(metric: Array, gauge: Array) -> Array:
    g = np.asarray(gauge, dtype=complex)
    return la.dagger(g) @ metric @ g


def covariant_d(conn: FlatConnection, field_values: Array) -> Array:
    """First-order covariant difference of a site field, one value per forward edge.

    Endomorphism fields (n, r, r) transform by the adjoint action; section
    fields (n, r) by the plain action. Edges that do not exist hold zeros.
    """
    dom = conn.domain
    f = np.asarray(field_values, dtype=complex)
    endo = f.ndim == 3
    out = np.zeros((dom.dim,) + f.shape, dtype=complex)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        u = conn.transport[a, tails]
        uinv = conn.transport_inv[a, tails]
        if endo:
            out[a, tails] = (uinv @ f[heads] @ u - f[tails]) / dom.spacings[a]
        else:
            out[a, tails] = (
                np.einsum("eij,ej->ei", uinv, f[heads]) - f[tails]
            ) / dom.spacings[a]
    return out


def centered_derivative(conn: FlatConnection, values: Array) -> Array:
    """Centered covariant derivative of a site field along ``conn``, per axis.

    At a site x with neighbours on both sides along axis a the value is
    ``(U_x^{-1} f(x + e_a) - U_{x - e_a} f(x - e_a)) / (2 h_a)`` for section
    fields (n, r); endomorphism fields (n, r, r) transform by the adjoint
    action, ``U_x^{-1} f U_x`` and ``U f U^{-1}``. Sites next to a boundary
    hold zeros.
    """
    dom = conn.domain
    f = np.asarray(values, dtype=complex)
    endo = f.ndim == 3
    out = np.zeros((dom.dim,) + f.shape, dtype=complex)
    for a in range(dom.dim):
        plus, minus = dom.neighbors[a]
        sites = np.flatnonzero((plus >= 0) & (minus >= 0))
        left = minus[sites]
        t, t_inv = conn.transport[a], conn.transport_inv[a]
        if endo:
            fwd = t_inv[sites] @ f[plus[sites]] @ t[sites]
            bwd = t[left] @ f[left] @ t_inv[left]
        else:
            fwd = np.einsum("eij,ej->ei", t_inv[sites], f[plus[sites]])
            bwd = np.einsum("eij,ej->ei", t[left], f[left])
        out[a, sites] = (fwd - bwd) / (2.0 * dom.spacings[a])
    return out


def reverse_edge_values(conn: FlatConnection, omega: Array) -> Array:
    """Values of a one-form on the reverse edges, by transport antisymmetry.

    Entry ``[a, x]`` is the value on the directed edge ``x -> x - e_a``
    (attached at x), i.e. ``-U . omega[a, x-e_a] . U^{-1}`` transported from
    the left neighbour; zero where that edge does not exist. One-forms whose
    natural parallelism is the metric connection (covariant derivatives of
    site fields taken along the metric transports) pass the split's
    ``connection`` instead of the flat one.
    """
    dom = conn.domain
    endo = omega.ndim == 4
    out = np.zeros_like(omega)
    for a in range(dom.dim):
        lefts = dom.neighbors[a, 1]
        sites = np.flatnonzero(lefts >= 0)
        src = lefts[sites]
        u = conn.transport[a, src]
        if endo:
            out[a, sites] = -(u @ omega[a, src] @ conn.transport_inv[a, src])
        else:
            out[a, sites] = -np.einsum("eij,ej->ei", u, omega[a, src])
    return out


def centered_components(conn: FlatConnection, omega: Array) -> Array:
    """Site-centered axis components of a one-form, second-order accurate.

    Averages the forward-edge value with the pulled-back left-edge value;
    falls back to the single available side next to a boundary.
    """
    dom = conn.domain
    rev = reverse_edge_values(conn, omega)
    out = np.zeros_like(omega)
    for a in range(dom.dim):
        has_fwd = dom.neighbors[a, 0] >= 0
        has_bwd = dom.neighbors[a, 1] >= 0
        both = has_fwd & has_bwd
        out[a, both] = 0.5 * (omega[a, both] - rev[a, both])
        only_f = has_fwd & ~has_bwd
        out[a, only_f] = omega[a, only_f]
        only_b = ~has_fwd & has_bwd
        out[a, only_b] = -rev[a, only_b]
    return out


@dataclass(frozen=True)
class SplitMetric:
    """Metric splitting of a flat connection: one-form psi and metric connection.

    ``shift`` holds ``V_e - I`` computed as a small quantity rather than by
    subtracting the identity from V, so that transporting a one-form,
    ``V omega V^{-1} - omega = [V - I, omega] V^{-1}``, keeps its relative
    precision when V is the identity to roundoff.
    """

    psi: Array                  # (dim, n, r, r) forward-edge values, exactly H-self-adjoint
    connection: FlatConnection  # D_H: V_e = U_e exp(+h psi), V_e^{-1} = P_e^{1/2} U_e^{-1}
    shift: Array                # (dim, n, r, r) V_e - I
    root: la.ScaledRoot         # linalg.scaled_sqrt(H), the split's one eigendecomposition


def split_metric(
    conn: FlatConnection, metric: Array, root: la.ScaledRoot | None = None
) -> SplitMetric:
    """Split the connection at ``metric``, edge by edge, without forming P.

    With ``N = U - I`` the edge difference ``U^dag H(y) U - H(x)`` is
    assembled as ``(H(y) - H(x)) + N^dag H(y) + H(y) N + N^dag H(y) N`` and
    handed to ``linalg.comparison_functions``; psi, V and V - I follow from
    that difference without losing the digits of P - I. The scaled square
    root of H is computed once over all sites (``root``, when the caller
    already holds ``linalg.scaled_sqrt(metric)``) and gathered at the tails
    of each axis; computing it also checks that H is positive definite. The
    split keeps it as ``root`` for the operators that solve against H.
    """
    dom = conn.domain
    h_field = np.asarray(metric, dtype=complex)
    la.check_hermitian(h_field)
    if root is None:
        root = la.scaled_sqrt(h_field)
    eye = np.eye(conn.rank, dtype=complex)
    psi = np.zeros_like(conn.transport)
    vt = conn.transport.copy()
    vt_inv = conn.transport_inv.copy()
    shift = np.zeros_like(conn.transport)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        u = conn.transport[a, tails]
        u_inv = conn.transport_inv[a, tails]
        n = u - eye
        hy = h_field[heads]
        g = la.mm(hy, n)
        delta = (hy - h_field[tails]) + g + la.dagger(g) + la.mm(la.dagger(n), g)
        logp, pmh, pph = la.comparison_functions(tuple(f[tails] for f in root), delta)
        psi[a, tails] = -logp / (2.0 * dom.spacings[a])
        u_pmh = la.mm(u, pmh)
        vt[a, tails] = u + u_pmh
        vt_inv[a, tails] = u_inv + la.mm(pph, u_inv)
        shift[a, tails] = n + u_pmh
    return SplitMetric(psi=psi, connection=FlatConnection(dom, conn.rank, vt, vt_inv),
                       shift=shift, root=root)


def psi_centered(conn: FlatConnection, metric: Array, sm: SplitMetric | None = None) -> Array:
    """Site-centered components of the splitting one-form."""
    if sm is None:
        sm = split_metric(conn, metric)
    return centered_components(conn, sm.psi)


def energy(conn: FlatConnection, metric: Array, sm: SplitMetric | None = None) -> float:
    """Edge energy sum_e w_e |psi_H(e)|^2, the flow's Lyapunov functional."""
    if sm is None:
        sm = split_metric(conn, metric)
    dom = conn.domain
    total = 0.0
    for a in range(dom.dim):
        total += float(np.sum(dom.edge_weight[a] * la.hsa_norm2(sm.psi[a])))
    return total


def codifferential(
    conn: FlatConnection,
    metric: Array,
    omega: Array,
    sm: SplitMetric | None = None,
) -> Array:
    """Exact adjoint of the metric covariant difference on one-forms.

    Defined so that ``<D_H sigma, omega> = <sigma, codifferential(omega)>``
    holds identically under the weighted pairings (on closed domains for all
    sigma; on bounded domains for sigma supported away from the boundary),
    with ``D_H`` the covariant difference along the metric transports of
    ``sm`` (split at ``metric`` when not given).

    Each edge contributes ``w V omega V^{-1}`` at its head and ``-w omega`` at
    its tail. The head term is summed as ``w omega`` plus the transport
    correction ``w [V - I, omega] V^{-1}``, and the corrections are
    accumulated apart from the fluxes: for a site-constant one-form the
    fluxes cancel exactly and the corrections keep their own relative
    precision (and vanish exactly when V - I commutes with omega). Along one
    axis the heads are distinct, and so are the tails, so each scatter adds
    every site's term once.
    """
    dom = conn.domain
    if sm is None:
        sm = split_metric(conn, metric)
    flux = np.zeros_like(np.asarray(metric, dtype=complex))
    turned = np.zeros_like(flux)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        w = (dom.edge_weight[a, tails] / dom.spacings[a])[:, None, None]
        om = omega[a, tails]
        x = sm.shift[a, tails]
        turned[heads] += w * la.mm(la.commutator(x, om), sm.connection.transport_inv[a, tails])
        flux[heads] += w * om
        flux[tails] -= w * om
    return (flux + turned) / dom.volume[:, None, None]


def tension(conn: FlatConnection, metric: Array, sm: SplitMetric | None = None) -> Array:
    """Gradient of the edge energy under the metric pairing (the flow's drive).

    The codifferential of the splitting one-form ``sm`` (split at ``metric``
    when not given): exactly the energy gradient and exactly H-self-adjoint.
    Its self-adjoint part is taken through the split's scaled root of H, with
    no solve. The flow steps along this field, and the brute-force oracle
    checks it.
    """
    if sm is None:
        sm = split_metric(conn, metric)
    return la.selfadjoint_part(codifferential(conn, metric, sm.psi, sm), metric, sm.root)


def covariant_laplacian(
    metric_conn: FlatConnection, frame: tuple[Array, Array]
) -> Callable[[Array], Array]:
    """The covariant Laplacian on Hermitian endomorphism fields, as its action ``s -> L s``.

    ``metric_conn`` holds the metric transports V of a split at H and
    ``frame`` is ``linalg.orthonormal_frame`` of H's scaled root, (g, g^{-1})
    with H = g^dag g. An H-self-adjoint field S is carried as the Hermitian
    field s = g S g^{-1}, of shape (n, r, r), that vanishes on the boundary
    sites (a Dirichlet condition); the action is zeroed there. ``L`` is the
    real symmetric form ``sum_e c_e |W^dag s(y) W - s(x)|^2`` under
    ``Re tr(a b)``, with ``c_e = w_e / h_a^2`` and the unitary
    ``W = g(y) V g(x)^{-1}``: each edge adds ``c_e (s(x) - W^dag s(y) W)`` at
    its tail and ``c_e (s(y) - W s(x) W^dag)`` at its head. So ``M + dt L`` is
    positive definite for the site volumes M and any dt > 0. ``M^{-1} L`` is
    the codifferential of the V-covariant difference, the principal part of
    the tension's linearization:
    ``tension(H exp(X)) = tension(H) - M^{-1} L X / 2`` up to terms in psi.
    The edge factors are held per site and neighbour (``domain.neighbors``),
    so the action gathers and never scatters.
    """
    dom = metric_conn.domain
    g, g_inv = frame
    near = dom.neighbors.reshape(2 * dom.dim, -1)      # -1 where no edge, whose factor is 0
    left = np.zeros((2 * dom.dim,) + g.shape, dtype=complex)
    right = np.zeros_like(left)
    stiffness = np.zeros((dom.n_sites, 1, 1))
    for a in range(dom.dim):
        tails, heads = metric_conn.edge_sites(a)
        c = (dom.edge_weight[a, tails] / dom.spacings[a] ** 2)[:, None, None]
        w = la.mm(la.mm(g[heads], metric_conn.transport[a, tails]), g_inv[tails])
        left[2 * a, tails], right[2 * a, tails] = c * la.dagger(w), w
        left[2 * a + 1, heads], right[2 * a + 1, heads] = c * w, la.dagger(w)
        stiffness[tails] += c
        stiffness[heads] += c
    left[:, dom.boundary] = 0.0
    stiffness[dom.boundary] = 0.0

    def apply(s: Array) -> Array:
        return stiffness * s - la.mm(la.mm(left, s[near]), right).sum(axis=0)

    return apply


def reference_difference(sm_k: SplitMetric, h_rel: Array) -> tuple[Array, Array]:
    """(delta_K h, h_mid) on the forward edges, for h = K^{-1}H and the split ``sm_k`` at K.

    delta_K h is the covariant difference of h along the metric transports
    minus [psi_K, h_mid], with h_mid the mean of the tail value and the
    pulled-back head value: second-order edge-midpoint samples. Entries
    without a forward edge hold 0 and I.
    """
    conn = sm_k.connection
    delta = np.zeros_like(sm_k.psi)
    h_mid = la.eye_like(sm_k.psi)
    for a in range(conn.domain.dim):
        tails, heads = conn.edge_sites(a)
        pulled = conn.transport_inv[a, tails] @ h_rel[heads] @ conn.transport[a, tails]
        h_mid[a, tails] = 0.5 * (pulled + h_rel[tails])
        delta[a, tails] = ((pulled - h_rel[tails]) / conn.domain.spacings[a]
                           - la.commutator(sm_k.psi[a, tails], h_mid[a, tails]))
    return delta, h_mid


# ---------------------------------------------------------------------------
# invariant sub-bundles


@dataclass(frozen=True)
class SubBundleSpec:
    projection: Array            # (n, r, r), idempotent, self-adjoint for the stated metric
    rank: int
    invariance_residual: float
    base_basis: Array            # (r, k) basis of the subspace at the base site


def _orth(basis: Array) -> Array:
    q, _ = np.linalg.qr(basis)
    return q


def _null_space(a: Array, rcond: float) -> Array:
    """Orthonormal null-space basis: singular values at most rcond times the largest count as zero."""
    _, s, vh = np.linalg.svd(a)
    return la.dagger(vh[int(np.sum(s > rcond * s.max(initial=0.0))):])


def _joint_invariant_spaces(mats: list[Array], r: int, tol: float = 1e-8) -> list[Array]:
    """Joint eigen-type invariant subspaces of a commuting family (geometric parts)."""
    spaces = [np.eye(r, dtype=complex)]
    for m in mats:
        refined: list[Array] = []
        for b in spaces:
            restricted = la.dagger(b) @ m @ b
            # Valid restriction only when the space is m-invariant; the joint
            # family is assumed commuting so this holds for previous factors.
            lam = np.linalg.eigvals(restricted)
            clusters: list[list[complex]] = []
            for ev in lam:
                for c in clusters:
                    if abs(ev - c[0]) <= tol * (1.0 + abs(ev)):
                        c.append(ev)
                        break
                else:
                    clusters.append([ev])
            for c in clusters:
                mean = np.mean(c)
                ns = _null_space(restricted - mean * np.eye(b.shape[1]), max(tol, 1e-10))
                if ns.shape[1] == 0:
                    # defective eigenvalue with geometric space resolved at looser scale
                    ns = _null_space(restricted - mean * np.eye(b.shape[1]), 1e-6)
                if ns.shape[1] > 0:
                    refined.append(_orth(b @ ns))
        spaces = refined if refined else spaces
    return spaces


def _dedupe(bases: list[Array], tol: float = 1e-8) -> list[Array]:
    kept: list[Array] = []
    for b in bases:
        p = b @ la.dagger(b)
        if not any(
            b.shape[1] == k.shape[1] and la.frobenius(p - k @ la.dagger(k)) < tol for k in kept
        ):
            kept.append(b)
    return kept


def invariant_subbundles(
    conn: FlatConnection,
    reference: Array,
    candidates: list[Array] | None = None,
    tol: float = 1e-8,
) -> list[SubBundleSpec]:
    """Enumerate invariant sub-bundles as reference-orthogonal projection fields.

    Without candidates the holonomy generators' common invariant subspaces are
    enumerated exhaustively for rank <= 3 (joint eigenspaces and their direct
    sums; inside a degenerate joint eigenspace only the space itself is
    returned as the canonical representative). Candidate subspaces, one
    ``(r, k)`` basis each at the base site, may be supplied for any rank.
    Each spec is extended over the lattice by parallel transport from the base
    site and reports its invariance residual.
    """
    r = conn.rank
    dom = conn.domain
    if candidates is None:
        if r > 3:
            raise ValueError("exhaustive search is limited to rank <= 3; supply candidates")
        gens = [loop_holonomy(conn, lp.axis, lp.base) for lp in conn.loops]
        if not gens:
            gens = [np.eye(r, dtype=complex)]
        atoms = _dedupe(_joint_invariant_spaces(gens, r, tol))
        bases: list[Array] = []
        for size in range(1, len(atoms) + 1):
            for combo in itertools.combinations(atoms, size):
                dim = sum(b.shape[1] for b in combo)
                if 1 <= dim <= r - 1:
                    bases.append(_orth(np.concatenate(combo, axis=1)))
        bases = _dedupe(bases)
    else:
        bases = [np.asarray(b, dtype=complex).reshape(r, -1) for b in candidates]

    k_field = np.asarray(reference, dtype=complex)
    specs: list[SubBundleSpec] = []
    order = _transport_order(conn)
    for b in bases:
        frames = _transport_frames(conn, b, order)
        proj = _metric_projection(frames, k_field)
        res = _invariance_residual(conn, proj)
        specs.append(
            SubBundleSpec(
                projection=proj, rank=b.shape[1], invariance_residual=res, base_basis=b
            )
        )
    specs.sort(key=lambda s: (s.rank, s.invariance_residual))
    return specs


def _transport_order(conn: FlatConnection) -> list[tuple[int, int, int]]:
    """Spanning-tree traversal (site, axis, source) from site 0 over forward/backward edges."""
    dom = conn.domain
    seen = np.zeros(dom.n_sites, dtype=bool)
    seen[0] = True
    frontier = [0]
    order: list[tuple[int, int, int]] = []
    while frontier:
        nxt: list[int] = []
        for x in frontier:
            for a in range(dom.dim):
                y = int(dom.neighbors[a, 0, x])
                if y >= 0 and not seen[y]:
                    seen[y] = True
                    order.append((y, a, x))
                    nxt.append(y)
                z = int(dom.neighbors[a, 1, x])
                if z >= 0 and not seen[z]:
                    seen[z] = True
                    order.append((z, ~a, x))
                    nxt.append(z)
        frontier = nxt
    return order


def _transport_frames(conn: FlatConnection, base_basis: Array, order) -> Array:
    n = conn.domain.n_sites
    k = base_basis.shape[1]
    frames = np.zeros((n, conn.rank, k), dtype=complex)
    frames[0] = base_basis
    for site, axis, src in order:
        if axis >= 0:
            frames[site] = conn.transport[axis, src] @ frames[src]
        else:
            frames[site] = conn.transport_inv[~axis, site] @ frames[src]
    return frames


def _metric_projection(frames: Array, k_field: Array) -> Array:
    gram = la.dagger(frames) @ k_field @ frames
    return frames @ np.linalg.solve(gram, la.dagger(frames) @ k_field)


def _invariance_residual(conn: FlatConnection, proj: Array) -> float:
    """Span-leakage defect max_e ||(1 - pi(x)) U^{-1} pi(y) U pi(x)||.

    Vanishes exactly for invariant sub-bundles even with non-unitary
    transports; the raw difference U^{-1} pi(y) U - pi(x) would be of order
    the spacing whenever the orthogonal complement is not also invariant.
    """
    worst = 0.0
    r = proj.shape[-1]
    eye = np.eye(r, dtype=complex)
    for a in range(conn.domain.dim):
        tails, heads = conn.edge_sites(a)
        moved = conn.transport_inv[a, tails] @ proj[heads] @ conn.transport[a, tails]
        leak = (eye - proj[tails]) @ moved @ proj[tails]
        worst = max(worst, float(np.max(la.specnorm(leak), initial=0.0)))
    return worst
