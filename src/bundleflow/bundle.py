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

``split_metric`` returns a ``SplitMetric`` that holds the connection it split
and the metric it split at, so everything derived from the split reads that
one object: the codifferential takes the split, and the tension and the
energy are its cached properties. An operator therefore cannot pair a split
with a metric other than its own. ``conformal_split`` carries a split at H to
the metric H e^f of a site scalar f by the exact conformal law
``P_e(H e^f) = e^{f(y) - f(x)} P_e(H)``, with no eigendecomposition and no
codifferential: a flow's det normalization splits no metric twice. It takes
over the arrays of the split it carries and moves them in place, so the
normalization holds one split, not two.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import linalg as la
from .mesh import LatticeDomain

Array = np.ndarray


@dataclass(frozen=True)
class LoopSpec:
    """A designated fundamental loop: one full cycle along a periodic axis from site 0."""

    axis: int
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
    explicit logarithm branch through ``logs``. Each axis carries one
    transport and its inverse at every site, so one r x r matrix is inverted
    per periodic axis.
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
        if not np.all(np.isfinite(g)):
            raise ValueError("generator has a non-finite entry")
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
    transports_inv = transports.copy()
    loops: list[LoopSpec] = []
    for k, axis in enumerate(periodic_axes):
        lg = None if logs is None else logs[k]
        frac = la.fractional_power(gens[k], domain.spacings[axis] / domain.lengths[axis], log=lg)
        closure = np.linalg.matrix_power(frac, domain.sites_per_axis[axis])
        if la.specnorm(closure - gens[k]) > 1e-10 * max(float(la.specnorm(gens[k])), 1.0):
            raise ValueError("per-edge transport does not close up to the generator")
        transports[axis] = frac
        transports_inv[axis] = np.linalg.inv(frac)
        loops.append(LoopSpec(axis=axis, generator=gens[k]))
    return FlatConnection(domain, r, transports, transports_inv, tuple(loops))


def loop_holonomy(conn: FlatConnection, axis: int) -> Array:
    """Holonomy of the full axis cycle through site 0 (path-ordered product)."""
    dom = conn.domain
    hol = np.eye(conn.rank, dtype=complex)
    site = 0
    for _ in range(dom.sites_per_axis[axis]):
        hol = conn.transport[axis, site] @ hol
        site = int(dom.neighbors[axis, 0, site])
    if site != 0:
        raise ValueError("axis is not periodic; no loop")
    return hol


def plaquette_bases(domain: LatticeDomain) -> Array:
    """Lower-left sites of the plaquettes of a 2-D domain; none in other dimensions."""
    if domain.dim != 2:
        return np.zeros(0, dtype=int)
    nx = domain.neighbors[0, 0]
    ny = domain.neighbors[1, 0]
    base = np.flatnonzero((nx >= 0) & (ny >= 0))
    return base[(ny[nx[base]] >= 0) & (nx[ny[base]] >= 0)]


def plaquette_holonomies(conn: FlatConnection, base: Array | None = None) -> tuple[Array, Array]:
    """(sites, holonomies) for every plaquette with base at its lower-left site.

    ``base`` picks some of those plaquettes (a part of ``plaquette_bases``);
    their holonomies come in its order.
    """
    dom = conn.domain
    base = plaquette_bases(dom) if base is None else base
    if dom.dim != 2:
        return base, np.zeros((0, conn.rank, conn.rank))
    nx = dom.neighbors[0, 0]
    ny = dom.neighbors[1, 0]
    t, t_inv = conn.transport, conn.transport_inv
    hol = la.mm(la.mm(la.mm(t_inv[1, base], t_inv[0, ny[base]]), t[1, nx[base]]), t[0, base])
    return base, hol


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
            out[a, tails] = (la.mm(la.mm(uinv, f[heads]), u) - f[tails]) / dom.spacings[a]
        else:
            out[a, tails] = (
                np.einsum("eij,ej->ei", uinv, f[heads]) - f[tails]
            ) / dom.spacings[a]
    return out


def centered_derivative(conn: FlatConnection, values: Array, sites: Array | None = None) -> Array:
    """Centered covariant derivative of a site field along ``conn``, per axis.

    At a site x with neighbours on both sides along axis a the value is
    ``(U_x^{-1} f(x + e_a) - U_{x - e_a} f(x - e_a)) / (2 h_a)`` for section
    fields (n, r); endomorphism fields (n, r, r) transform by the adjoint
    action, ``U_x^{-1} f U_x`` and ``U f U^{-1}``. Sites next to a boundary
    hold zeros. ``sites`` takes the derivative at those sites only (one row
    each, in their order); every site by default. The products run over all
    the rows, a site without both neighbours standing in for them, so the
    kernel each row takes is set by the number of rows, as ``linalg.tiled``
    needs.
    """
    dom = conn.domain
    f = np.asarray(values, dtype=complex)
    endo = f.ndim == 3
    sites = np.arange(dom.n_sites) if sites is None else sites
    out = np.zeros((dom.dim, len(sites)) + f.shape[1:], dtype=complex)
    for a in range(dom.dim):
        plus, minus = dom.neighbors[a][:, sites]
        inner = (plus >= 0) & (minus >= 0)
        right, left = np.where(inner, plus, sites), np.where(inner, minus, sites)
        t, t_inv = conn.transport[a], conn.transport_inv[a]
        if endo:
            fwd = la.mm(la.mm(t_inv[sites], f[right]), t[sites])
            bwd = la.mm(la.mm(t[left], f[left]), t_inv[left])
        else:
            fwd = np.einsum("eij,ej->ei", t_inv[sites], f[right])
            bwd = np.einsum("eij,ej->ei", t[left], f[left])
        out[a, inner] = ((fwd - bwd) / (2.0 * dom.spacings[a]))[inner]
    return out


def reverse_edge_values(conn: FlatConnection, omega: Array, sites: Array | None = None) -> Array:
    """Values of a one-form on the reverse edges, by transport antisymmetry.

    Entry ``[a, x]`` is the value on the directed edge ``x -> x - e_a``
    (attached at x), i.e. ``-U . omega[a, x-e_a] . U^{-1}`` transported from
    the left neighbour; zero where that edge does not exist. One-forms whose
    natural parallelism is the metric connection (covariant derivatives of
    site fields taken along the metric transports) pass the split's
    ``connection`` instead of the flat one. ``sites`` takes the values at
    those sites only (one row each, in their order); every site by default.
    As in ``centered_derivative``, the products run over all the rows.
    """
    dom = conn.domain
    endo = omega.ndim == 4
    sites = np.arange(dom.n_sites) if sites is None else sites
    out = np.zeros((dom.dim, len(sites)) + omega.shape[2:], dtype=omega.dtype)
    for a in range(dom.dim):
        lefts = dom.neighbors[a, 1, sites]
        has = lefts >= 0
        src = np.where(has, lefts, sites)
        u = conn.transport[a, src]
        if endo:
            moved = -la.mm(la.mm(u, omega[a, src]), conn.transport_inv[a, src])
        else:
            moved = -np.einsum("eij,ej->ei", u, omega[a, src])
        out[a, has] = moved[has]
    return out


def centered_components(conn: FlatConnection, omega: Array, sites: Array | None = None) -> Array:
    """Site-centered axis components of a one-form, second-order accurate.

    Averages the forward-edge value with the pulled-back left-edge value;
    falls back to the single available side next to a boundary. ``sites``
    takes the components at those sites only (one row each, in their order);
    every site by default.
    """
    dom = conn.domain
    sites = np.arange(dom.n_sites) if sites is None else sites
    rev = reverse_edge_values(conn, omega, sites)
    out = np.zeros_like(rev)
    for a in range(dom.dim):
        fwd = omega[a, sites]
        has_fwd = dom.neighbors[a, 0, sites] >= 0
        has_bwd = dom.neighbors[a, 1, sites] >= 0
        both = has_fwd & has_bwd
        out[a, both] = 0.5 * (fwd[both] - rev[a, both])
        only_f = has_fwd & ~has_bwd
        out[a, only_f] = fwd[only_f]
        only_b = ~has_fwd & has_bwd
        out[a, only_b] = -rev[a, only_b]
    return out


@dataclass(frozen=True)
class SplitMetric:
    """The flat connection split at one metric, and what is derived from the split.

    ``flat`` is the connection D that was split and ``metric`` the H it was
    split at; ``psi`` and ``connection`` are the two parts of ``D = D_H + psi_H``.
    ``shift`` holds ``V_e - I`` computed as a small quantity rather than by
    subtracting the identity from V, so that transporting a one-form,
    ``V omega V^{-1} - omega = [V - I, omega] V^{-1}``, keeps its relative
    precision when V is the identity to roundoff. ``tension`` and ``energy``
    are taken from the split when first read and kept with it.
    """

    flat: FlatConnection        # D, the connection that was split
    metric: Array               # (n, r, r) H, the metric it was split at
    psi: Array                  # (dim, n, r, r) forward-edge values, exactly H-self-adjoint
    connection: FlatConnection  # D_H: V_e = U_e exp(+h psi), V_e^{-1} = P_e^{1/2} U_e^{-1}
    shift: Array                # (dim, n, r, r) V_e - I
    root: la.ScaledRoot         # linalg.check_metric(H), the split's one eigendecomposition

    @cached_property
    def energy(self) -> float:
        """Edge energy sum_e w_e |psi_H(e)|^2, the flow's Lyapunov functional."""
        dom = self.flat.domain
        total = 0.0
        for a in range(dom.dim):
            total += float(np.sum(dom.edge_weight[a] * la.hsa_norm2(self.psi[a])))
        return total

    @cached_property
    def tension(self) -> Array:
        """Gradient of the edge energy under the metric pairing (the flow's drive).

        The codifferential of psi: exactly the energy gradient and exactly
        H-self-adjoint. Its self-adjoint part is taken through the split's
        scaled root of H, with no solve. The flow steps along this field, and
        the brute-force oracle checks it.
        """
        return la.selfadjoint_part(codifferential(self, self.psi), self.metric, self.root)


def split_metric(conn: FlatConnection, metric: Array) -> SplitMetric:
    """Split the connection at ``metric``, edge by edge, without forming P.

    With ``N = U - I`` the edge difference ``U^dag H(y) U - H(x)`` is
    assembled as ``(H(y) - H(x)) + N^dag H(y) + H(y) N + N^dag H(y) N`` and
    handed to ``linalg.comparison_functions``; psi, V and V - I follow from
    that difference without losing the digits of P - I. The scaled square
    root of H is computed once over all sites, by ``linalg.check_metric``,
    which checks H as it factors it, and gathered at the tails of each axis.
    The split keeps it as ``root`` for the operators relative to H. The
    edges of an axis run in tiles (``linalg.tiled``), each written straight
    into the split's fields.
    """
    dom = conn.domain
    h_field = np.asarray(metric, dtype=complex)
    root = la.check_metric(h_field)
    psi = np.zeros_like(conn.transport)
    vt = conn.transport.copy()
    vt_inv = conn.transport_inv.copy()
    shift = np.zeros_like(conn.transport)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        la.tiled(partial(_split_edges, conn, h_field, root, a), tails, heads,
                 out=(psi[a], vt[a], vt_inv[a], shift[a]), at=tails)
    return SplitMetric(flat=conn, metric=h_field, psi=psi,
                       connection=FlatConnection(dom, conn.rank, vt, vt_inv),
                       shift=shift, root=root)


def _split_edges(conn: FlatConnection, h_field: Array, root: la.ScaledRoot, a: int,
                 tails: Array, heads: Array) -> tuple[Array, Array, Array, Array]:
    """psi, V, V^{-1} and V - I on the forward edges ``tails -> heads`` along axis a."""
    u = conn.transport[a, tails]
    u_inv = conn.transport_inv[a, tails]
    n = u - np.eye(conn.rank, dtype=complex)
    hy = h_field[heads]
    g = la.mm(hy, n)
    delta = (hy - h_field[tails]) + g + la.dagger(g) + la.mm(la.dagger(n), g)
    logp, pmh, pph = la.comparison_functions(tuple(f[tails] for f in root), delta)
    u_pmh = la.mm(u, pmh)
    return (-logp / (2.0 * conn.domain.spacings[a]), u + u_pmh,
            u_inv + la.mm(pph, u_inv), n + u_pmh)


def conformal_split(sm: SplitMetric, f: Array) -> SplitMetric:
    """The split at ``H e^f`` for a real site scalar f, carried from the split ``sm`` at H.

    A scalar moves every edge comparison by ``P_e(H e^f) = e^{df} P_e(H)``
    exactly, with ``df = f(head) - f(tail)`` on the forward edge. So
    ``psi' = psi - df / (2h) I``, ``V' = V e^{-df/2}``,
    ``V'^{-1} = V^{-1} e^{df/2}``, and
    ``V' - I = (V - I) e^{-df/2} + expm1(-df/2) I`` stays a small quantity.
    The scaled root is ``(d e^{f/2}, Ht^{1/2}, Ht^{-1/2})``: the
    unit-diagonal Ht does not change. The codifferential's transport
    correction ``[V' - I, psi'] V'^{-1} = [V - I, psi] V^{-1}`` does not
    change either, so only the fluxes of the scalar one-form ``df / (2h)``
    move the tension: ``T' = T - div I``, with ``div`` adding
    ``w df / (2h^2)`` at each head and subtracting it at each tail, over the
    site volume. That is ``T + Delta f / 2 I`` on interior sites, and exact
    on boundary sites too. The new split holds its tension already, so
    neither an eigendecomposition nor a codifferential is taken; its energy
    is read from psi'.

    The new split takes over the arrays of ``sm``: psi, V, V^{-1}, V - I and
    the tension (read first), updated in place, so ``sm`` must not be read
    again. V and V^{-1} are scaled whole; the scalar terms enter entry by
    entry, the off-diagonal zeros of I included, so every entry, signed
    zeros too, rounds as in the sums above. The metric ``H * e^f`` and the
    root's d are new arrays: the metric ``sm`` was split at is not written.
    """
    conn = sm.flat
    dom = conn.domain
    df = np.zeros((dom.dim, dom.n_sites))     # 0 where no forward edge: those rows keep their bits
    div = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        df[a, tails] = f[heads] - f[tails]
        flux = dom.edge_weight[a, tails] * df[a, tails] / (2.0 * dom.spacings[a] ** 2)
        div[heads] += flux
        div[tails] -= flux
    psi, shift, tension = sm.psi, sm.shift, sm.tension
    v, v_inv = sm.connection.transport, sm.connection.transport_inv
    half = np.exp(-0.5 * df)[..., None, None]
    v *= half
    v_inv *= np.exp(0.5 * df)[..., None, None]
    shift *= half
    step = df / (2.0 * np.reshape(dom.spacings, (-1, 1)))
    grow = np.expm1(-0.5 * df)
    dens = div / dom.volume
    eye = np.eye(conn.rank)
    for i, j in np.ndindex(eye.shape):
        psi[..., i, j] -= step * eye[i, j]
        shift[..., i, j] += grow * eye[i, j]
        tension[..., i, j] -= dens * eye[i, j]
    d, ht_sqrt, ht_isqrt = sm.root
    out = SplitMetric(flat=conn, metric=sm.metric * np.exp(f)[:, None, None], psi=psi,
                      connection=sm.connection, shift=shift,
                      root=(d * np.exp(0.5 * f)[:, None], ht_sqrt, ht_isqrt))
    # Seed the cached property, so reading the tension takes no codifferential.
    out.__dict__["tension"] = tension
    return out


def codifferential(sm: SplitMetric, omega: Array) -> Array:
    """Exact adjoint of the metric covariant difference on one-forms.

    Defined so that ``<D_H sigma, omega> = <sigma, codifferential(omega)>``
    holds identically under the weighted pairings (on closed domains for all
    sigma; on bounded domains for sigma supported away from the boundary),
    with ``D_H`` the covariant difference along the metric transports of the
    split ``sm``.

    Each edge contributes ``w V omega V^{-1}`` at its head and ``-w omega`` at
    its tail. The head term is summed as ``w omega`` plus the transport
    correction ``w [V - I, omega] V^{-1}``, and the corrections are
    accumulated apart from the fluxes: for a site-constant one-form the
    fluxes cancel exactly and the corrections keep their own relative
    precision (and vanish exactly when V - I commutes with omega). Along one
    axis the heads are distinct, and so are the tails, so each scatter adds
    every site's term once. The corrections are formed in tiles
    (``linalg.tiled``) and scattered on the whole arrays.
    """
    conn = sm.flat
    dom = conn.domain
    flux = np.zeros_like(sm.metric)
    turned = np.zeros_like(flux)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        w = (dom.edge_weight[a, tails] / dom.spacings[a])[:, None, None]

        def correction(edges: Array, weights: Array) -> Array:
            return weights * la.mm(la.commutator(sm.shift[a, edges], omega[a, edges]),
                                   sm.connection.transport_inv[a, edges])

        turned[heads] += la.tiled(correction, tails, w)
        flux[heads] += w * omega[a, tails]
        flux[tails] -= w * omega[a, tails]
    flux += turned
    flux /= dom.volume[:, None, None]
    return flux


def tension(conn: FlatConnection, metric: Array) -> Array:
    """``split_metric(conn, metric).tension``: the tension of a metric with no split at hand."""
    return split_metric(conn, metric).tension


def energy_hessian(sm: SplitMetric, frame: tuple[Array, Array]) -> Callable[[Array], Array]:
    """The Hessian of the edge energy along ``H -> H exp(X)``, as its action ``s -> Hess s``.

    ``sm`` is the split at H and ``frame`` is ``linalg.orthonormal_frame`` of
    its scaled root, (g, g^{-1}) with H = g^dag g. An H-self-adjoint field X
    is carried as the Hermitian field s = g X g^{-1}, of shape (n, r, r),
    that vanishes on the boundary sites (a Dirichlet condition); the action
    is zeroed there. ``Hess`` is real symmetric under ``Re tr(a b)``, and the
    energy along ``H exp(tX)`` has second derivative ``<s, Hess s> / 2``.

    H exp(tX) is a geodesic of GL(r)/U(r), so each edge's Hessian is closed
    form in its Jacobi fields. On the edge e = (x -> y) along axis a, let
    ``c_e = w_e / h_a^2``, ``W = g(y) V g(x)^{-1}`` (unitary) and
    ``Q diag(l) Q^dag`` the eigendecomposition of log P_e in x's frame,
    ``g(x) (-2 h_a psi_e) g(x)^{-1}``. With ``a = Q^dag s(x) Q`` and
    ``b = Q^dag W^dag s(y) W Q`` the edge adds ``c_e Q (F a - G b) Q^dag`` at
    its tail and ``c_e W Q (F b - G a) Q^dag W^dag`` at its head, entry-wise
    products with ``F_ij = alpha coth alpha``, ``G_ij = alpha / sinh alpha``
    and ``alpha = (l_i - l_j) / 2`` (``_jacobi_weights``). At psi = 0,
    F = G = 1 and Hess is the covariant Laplacian
    ``sum_e c_e |W^dag s(y) W - s(x)|^2``, M^{-1} times the codifferential
    of the V-covariant difference. Since F >= 1 >= G >= 0 and F + G >= 2,
    Hess is positive semidefinite and its form is at least the Laplacian's,
    so ``M + dt Hess`` is positive definite for the site volumes M and any
    dt > 0. The per-edge factors take one ``linalg.eigh`` per axis and are
    built when the action is, not kept with the split.
    """
    dom = sm.flat.domain
    g, g_inv = frame
    edges = []
    for a in range(dom.dim):
        tails, heads = sm.flat.edge_sites(a)
        psi_x = la.mm(la.mm(g[tails], sm.psi[a, tails]), g_inv[tails])
        l, q = la.eigh(la.hermitize(-2.0 * dom.spacings[a] * psi_x))
        w = la.mm(la.mm(g[heads], sm.connection.transport[a, tails]), g_inv[tails])
        wq = la.mm(w, q)
        c = (dom.edge_weight[a, tails] / dom.spacings[a] ** 2)[:, None, None]
        f, gj = _jacobi_weights(0.5 * (l[:, :, None] - l[:, None, :]))
        edges.append((tails, heads, q, la.dagger(q), wq, la.dagger(wq), c * f, c * gj))

    def apply(s: Array) -> Array:
        out = np.zeros_like(s)
        for tails, heads, q, q_dag, wq, wq_dag, f, gj in edges:
            at_tail = la.mm(la.mm(q_dag, s[tails]), q)
            at_head = la.mm(la.mm(wq_dag, s[heads]), wq)
            out[tails] += la.mm(la.mm(q, f * at_tail - gj * at_head), q_dag)
            out[heads] += la.mm(la.mm(wq, f * at_head - gj * at_tail), wq_dag)
        out[dom.boundary] = 0.0
        return out

    return apply


def _jacobi_weights(alpha: Array) -> tuple[Array, Array]:
    """(alpha coth alpha, alpha / sinh alpha), even in alpha and 1 at 0.

    Below ``|alpha|`` 1e-4 the series 1 + alpha^2/3 and 1 - alpha^2/6 hold
    to roundoff; above it both are written in ``exp(-|alpha|)`` and
    ``expm1``, which neither overflow nor divide by zero.
    """
    t = np.abs(alpha)
    small = t < 1e-4
    t2 = np.where(small, t, 0.0) ** 2
    t = np.where(small, 1.0, t)
    decay = np.exp(-t)
    scale = t / -np.expm1(-2.0 * t)
    return (np.where(small, 1.0 + t2 / 3.0, scale * (1.0 + decay * decay)),
            np.where(small, 1.0 - t2 / 6.0, 2.0 * scale * decay))


def reference_difference(sm_k: SplitMetric, h_rel: Array) -> Array:
    """delta_K h on the forward edges, for h = K^{-1}H and the split ``sm_k`` at K.

    delta_K h is the covariant difference of h along the metric transports
    minus [psi_K, h_mid], with h_mid the mean of the tail value and the
    pulled-back head value: second-order edge-midpoint samples. Entries
    without a forward edge hold 0.
    """
    conn = sm_k.connection
    delta = np.zeros_like(sm_k.psi)
    for a in range(conn.domain.dim):
        tails, heads = conn.edge_sites(a)
        pulled = la.mm(la.mm(conn.transport_inv[a, tails], h_rel[heads]), conn.transport[a, tails])
        h_mid = 0.5 * (pulled + h_rel[tails])
        delta[a, tails] = ((pulled - h_rel[tails]) / conn.domain.spacings[a]
                           - la.commutator(sm_k.psi[a, tails], h_mid))
    return delta


# ---------------------------------------------------------------------------
# invariant sub-bundles

# ``invariant_subbundles``' search: eigenvalues within SUBSPACE_TOL (relative) share
# a joint eigenspace, and subspaces whose projections differ by less are one.
SUBSPACE_TOL = 1e-8


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


def _joint_invariant_spaces(mats: list[Array], r: int) -> list[Array]:
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
                    if abs(ev - c[0]) <= SUBSPACE_TOL * (1.0 + abs(ev)):
                        c.append(ev)
                        break
                else:
                    clusters.append([ev])
            for c in clusters:
                mean = np.mean(c)
                ns = _null_space(restricted - mean * np.eye(b.shape[1]), SUBSPACE_TOL)
                if ns.shape[1] == 0:
                    # defective eigenvalue with geometric space resolved at looser scale
                    ns = _null_space(restricted - mean * np.eye(b.shape[1]), 1e-6)
                if ns.shape[1] > 0:
                    refined.append(_orth(b @ ns))
        spaces = refined if refined else spaces
    return spaces


def _dedupe(bases: list[Array]) -> list[Array]:
    kept: list[Array] = []
    for b in bases:
        p = b @ la.dagger(b)
        if not any(b.shape[1] == k.shape[1]
                   and la.frobenius(p - k @ la.dagger(k)) < SUBSPACE_TOL for k in kept):
            kept.append(b)
    return kept


def invariant_subbundles(
    conn: FlatConnection,
    reference: Array,
    candidates: list[Array] | None = None,
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
        gens = [loop_holonomy(conn, lp.axis) for lp in conn.loops]
        if not gens:
            gens = [np.eye(r, dtype=complex)]
        atoms = _dedupe(_joint_invariant_spaces(gens, r))
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
    gram = la.mm(la.mm(la.dagger(frames), k_field), frames)
    return la.mm(frames, np.linalg.solve(gram, la.mm(la.dagger(frames), k_field)))


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
        moved = la.mm(la.mm(conn.transport_inv[a, tails], proj[heads]), conn.transport[a, tails])
        leak = la.mm(la.mm(eye - proj[tails], moved), proj[tails])
        worst = max(worst, float(np.max(la.specnorm(leak), initial=0.0)))
    return worst
