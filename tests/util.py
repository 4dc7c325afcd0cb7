"""Shared builders for the test suite, and operators only the tests use."""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm

import bundleflow as bf
from bundleflow import linalg as la
from bundleflow.config import smooth_random_metric

TWO_PI = 2.0 * np.pi


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes, dtypes and bytes: ``np.array_equal`` that also tells 0.0 from -0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def conformal_split_out_of_place(sm, f) -> "bf.SplitMetric":
    """``bundle.conformal_split`` as whole-array sums into new arrays, leaving ``sm`` as it is.

    The reference for the in-place law: ``psi - df / (2h) I``, ``V e^{-df/2}``,
    ``V^{-1} e^{df/2}``, ``(V - I) e^{-df/2} + expm1(-df/2) I`` and
    ``T - div / volume I``, with I a real identity broadcast over the stacks.
    """
    conn = sm.flat
    dom = conn.domain
    df = np.zeros((dom.dim, dom.n_sites))
    div = np.zeros(dom.n_sites)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        df[a, tails] = f[heads] - f[tails]
        flux = dom.edge_weight[a, tails] * df[a, tails] / (2.0 * dom.spacings[a] ** 2)
        div[heads] += flux
        div[tails] -= flux
    eye = np.eye(conn.rank)
    half = np.exp(-0.5 * df)[..., None, None]
    step = (df / (2.0 * np.reshape(dom.spacings, (-1, 1))))[..., None, None]
    d, ht_sqrt, ht_isqrt = sm.root
    out = bf.SplitMetric(
        flat=conn, metric=sm.metric * np.exp(f)[:, None, None], psi=sm.psi - step * eye,
        connection=bf.FlatConnection(dom, conn.rank, sm.connection.transport * half,
                                     sm.connection.transport_inv
                                     * np.exp(0.5 * df)[..., None, None]),
        shift=sm.shift * half + np.expm1(-0.5 * df)[..., None, None] * eye,
        root=(d * np.exp(0.5 * f)[:, None], ht_sqrt, ht_isqrt))
    out.__dict__["tension"] = sm.tension - (div / dom.volume)[:, None, None] * eye
    return out


def identity_metric(n: int, r: int) -> np.ndarray:
    return np.broadcast_to(np.eye(r, dtype=complex), (n, r, r)).copy()


def diag_metric(values) -> np.ndarray:
    """Stack a per-site list of diagonal entries into a metric field."""
    values = np.asarray(values, dtype=float)
    n, r = values.shape
    out = np.zeros((n, r, r), dtype=complex)
    for j in range(r):
        out[:, j, j] = values[:, j]
    return out


def circle_diag(n: int = 64, length: float = TWO_PI, mu: float = 2.0):
    dom = bf.build_domain("circle", n, length)
    conn = bf.from_monodromy(dom, [np.diag([mu, 1.0 / mu]).astype(complex)])
    return dom, conn


def torus_diag(n: int = 16, length: float = TWO_PI, mus=(2.0, 3.0)):
    dom = bf.build_domain("torus", (n, n), (length, length))
    gens = [np.diag([m, 1.0 / m]).astype(complex) for m in mus]
    conn = bf.from_monodromy(dom, gens)
    return dom, conn


def random_connection(dom, rank: int, seed: int, scale: float = 0.6):
    """Random flat connection: one well-conditioned generator per loop."""
    rng = np.random.default_rng(seed)
    n_loops = sum(dom.periodic)
    gens = []
    if n_loops >= 1:
        z = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
        gens.append(expm(scale * z))
    if n_loops == 2:
        # second generator commuting with the first: polynomial in it
        g0 = gens[0]
        coef = rng.normal(size=2)
        gens.append(expm(0.3 * (coef[0] * g0 + coef[1] * np.linalg.inv(g0))))
    return bf.from_monodromy(dom, gens, rank=rank)


def random_metric(dom, rank: int, seed: int, amplitude: float = 0.35) -> np.ndarray:
    return smooth_random_metric(dom, rank, seed, amplitude)


def rough_random_metric(n: int, r: int, seed: int, amplitude: float = 0.4) -> np.ndarray:
    """Per-site independent positive metric (not smooth); for algebraic checks."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))
    herm = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    w, v = np.linalg.eigh(amplitude * herm)
    return (v * np.exp(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def random_gauge(n: int, r: int, seed: int, scale: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))
    return np.array([expm(scale * m) for m in z])


def seam_gauge_circle(n: int, length: float, mu: float):
    """Circle connection with the whole monodromy on the wrap edge."""
    dom = bf.build_domain("circle", n, length)
    transports = np.broadcast_to(np.eye(1, dtype=complex), (1, n, 1, 1)).copy()
    transports[0, n - 1, 0, 0] = mu
    loops = (bf.LoopSpec(axis=0, generator=np.array([[mu]], dtype=complex)),)
    return dom, bf.connection_from_transports(dom, transports, loops)


def gauge_transform(conn, gauge):
    """New connection in the frame ``v' = g^{-1} v``; transports g(y)^{-1} U g(x)."""
    g = np.asarray(gauge, dtype=complex)
    new = conn.transport.copy()
    for a in range(conn.domain.dim):
        tails, heads = conn.edge_sites(a)
        new[a, tails] = np.linalg.solve(g[heads], la.mm(conn.transport[a, tails], g[tails]))
    return bf.connection_from_transports(conn.domain, new, conn.loops)


def gauge_transform_metric(metric, gauge) -> np.ndarray:
    """The metric in the frame ``v' = g^{-1} v``: g^dag H g."""
    g = np.asarray(gauge, dtype=complex)
    return la.mm(la.mm(la.dagger(g), np.asarray(metric)), g)


def flatness_residual(conn) -> float:
    """Deviation of the connection from flatness with the prescribed monodromies.

    Plaquette holonomies are compared to the identity in spectral norm; the
    designated axis loops are compared to their generators through the
    eigenvalue-multiset distance, which is insensitive to the base point and
    to gauge.
    """
    _, hol = bf.plaquette_holonomies(conn)
    worst = float(np.max(la.specnorm(hol - np.eye(conn.rank, dtype=complex)), initial=0.0))
    for loop in conn.loops:
        h = bf.loop_holonomy(conn, loop.axis)
        worst = max(worst, la.spectrum_distance(h, loop.generator))
    return worst


def delta_operator(sm, values) -> np.ndarray:
    """Difference operator of the split ``sm`` (metric covariant derivative minus psi action).

    Edge values are second-order midpoint samples: the psi action is applied
    to the mean of the tail value and the pulled-back head value. Section
    fields (n, r) see the plain action, endomorphism fields (n, r, r) the
    commutator.
    """
    dom = sm.flat.domain
    f = np.asarray(values, dtype=complex)
    endo = f.ndim == 3
    out = np.zeros((dom.dim,) + f.shape, dtype=complex)
    for a in range(dom.dim):
        tails, heads = sm.flat.edge_sites(a)
        v = sm.connection.transport[a, tails]
        vinv = np.linalg.inv(v)
        if endo:
            pulled = vinv @ f[heads] @ v
            mid = 0.5 * (pulled + f[tails])
            out[a, tails] = (pulled - f[tails]) / dom.spacings[a] - la.commutator(
                sm.psi[a, tails], mid
            )
        else:
            pulled = np.einsum("eij,ej->ei", vinv, f[heads])
            mid = 0.5 * (pulled + f[tails])
            out[a, tails] = (pulled - f[tails]) / dom.spacings[a] - np.einsum(
                "eij,ej->ei", sm.psi[a, tails], mid
            )
    return out


def section_derivative(conn, metric, values, use_metric_connection: bool = True) -> np.ndarray:
    """Covariant difference of a section field along the metric transports."""
    if not use_metric_connection:
        return bf.covariant_d(conn, values)
    sm = bf.split_metric(conn, metric)
    dom = conn.domain
    f = np.asarray(values, dtype=complex)
    endo = f.ndim == 3
    out = np.zeros((dom.dim,) + f.shape, dtype=complex)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        v = sm.connection.transport[a, tails]
        vinv = np.linalg.inv(v)
        if endo:
            out[a, tails] = (vinv @ f[heads] @ v - f[tails]) / dom.spacings[a]
        else:
            out[a, tails] = (np.einsum("eij,ej->ei", vinv, f[heads]) - f[tails]) / dom.spacings[a]
    return out


def determinant_flow_check(conn, reference, dt: float, steps: int = 5) -> float:
    """Max defect of d/dt log det h = 2 tr(tension) over a few flow steps."""
    h_field = np.asarray(reference, dtype=complex).copy()
    g_inv = la.orthonormal_frame(la.check_metric(h_field))[1]
    worst = 0.0
    for _ in range(steps):
        t_field = bf.tension(conn, h_field)
        before = np.log(la.rel_eigvals(h_field, g_inv)).sum(axis=1)
        h_field = la.metric_exp_update(t_field, 2.0 * dt, la.check_metric(h_field))
        after = np.log(la.rel_eigvals(h_field, g_inv)).sum(axis=1)
        rate = (after - before) / dt
        worst = max(worst, float(np.abs(rate - 2.0 * np.einsum("nii->n", t_field).real).max()))
    return worst


def unit_hermitian_basis(r: int) -> np.ndarray:
    """``linalg.hermitian_basis(r)`` as an (r^2, r, r) stack of unit norm under Re tr(A B)."""
    basis = np.array(la.hermitian_basis(r))
    return basis / np.sqrt(np.einsum("kij,kji->k", basis, basis).real)[:, None, None]


def energy_hessian_coo(sm, frame, sites):
    """The matrix of ``bundle.energy_hessian``, assembled as one COO matrix.

    The reference for the matrix-free action: the coordinates of a Hermitian
    field in ``unit_hermitian_basis`` are the unknowns, site-major, at
    ``sites``; every other site holds zero. Each edge's Jacobi factors are
    taken here from the flat transport U, not from psi and V: log P_e and
    the unitary W come from B = g(y) U g(x)^{-1} as log(B^dag B) and
    B (B^dag B)^{-1/2}, and F, G from ``np.tanh`` and ``np.sinh``.
    """
    conn = sm.flat
    dom = conn.domain
    g, g_inv = frame
    r = conn.rank
    basis = unit_hermitian_basis(r)
    slot = np.full(dom.n_sites, -1)
    slot[sites] = np.arange(len(sites))
    rows, cols, vals = [], [], []
    block = np.arange(r * r)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        c = dom.edge_weight[a, tails] / dom.spacings[a] ** 2
        b = g[heads] @ conn.transport[a, tails] @ g_inv[tails]
        mu, q = np.linalg.eigh(la.hermitize(la.dagger(b) @ b))
        wq = b @ q / np.sqrt(mu)[:, None, :]
        alpha = 0.5 * np.abs(np.log(mu)[:, :, None] - np.log(mu)[:, None, :])
        safe = np.where(alpha > 0.0, alpha, 1.0)
        jacobi = {"F": np.where(alpha > 0.0, safe / np.tanh(safe), 1.0),
                  "G": np.where(alpha > 0.0, safe / np.sinh(safe), 1.0)}
        # basis k in each end's eigenframe: a_k = Q^dag E_k Q and b_k = (WQ)^dag E_k WQ
        frames = {"tail": la.dagger(q)[:, None] @ basis[None] @ q[:, None],
                  "head": la.dagger(wq)[:, None] @ basis[None] @ wq[:, None]}
        ends = {"tail": slot[tails], "head": slot[heads]}
        for row_end, col_end, kind, sign in (("tail", "tail", "F", 1.0),
                                             ("head", "head", "F", 1.0),
                                             ("tail", "head", "G", -1.0),
                                             ("head", "tail", "G", -1.0)):
            live = (ends[row_end] >= 0) & (ends[col_end] >= 0)
            # Re tr(a_l (F o a_k)) = Re sum_ij (a_l)_ji F_ij (a_k)_ij
            m = np.einsum("elji,eij,ekij->elk", frames[row_end][live], jacobi[kind][live],
                          frames[col_end][live]).real
            m *= sign * c[live][:, None, None]
            ix = ends[row_end][live][:, None, None] * r * r + block[None, :, None]
            iy = ends[col_end][live][:, None, None] * r * r + block[None, None, :]
            ix, iy = np.broadcast_arrays(ix, iy)
            rows.append(ix.ravel())
            cols.append(iy.ravel())
            vals.append(m.ravel())
    n = len(sites) * r * r
    return sparse.csc_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n))


def edge_products_matmul(conn, f, omega):
    """The edge products of ``bundle`` on a torus, written with numpy's ``@``.

    Returns ``covariant_d`` and ``centered_derivative`` of the endomorphism
    field f, ``reverse_edge_values`` of the one-form omega, and the
    ``plaquette_holonomies`` (every torus site is a plaquette base): the
    reference for the products that ``bundle`` takes through ``linalg.mm``.
    """
    dom = conn.domain
    t, t_inv = conn.transport, conn.transport_inv
    d = np.zeros((dom.dim,) + f.shape, dtype=complex)
    centered = np.zeros_like(d)
    reverse = np.zeros_like(omega)
    for a in range(dom.dim):
        tails, heads = conn.edge_sites(a)
        d[a, tails] = (t_inv[a, tails] @ f[heads] @ t[a, tails] - f[tails]) / dom.spacings[a]
        plus, minus = dom.neighbors[a]
        fwd = t_inv[a] @ f[plus] @ t[a]
        bwd = t[a, minus] @ f[minus] @ t_inv[a, minus]
        centered[a] = (fwd - bwd) / (2.0 * dom.spacings[a])
        reverse[a] = -(t[a, minus] @ omega[a, minus] @ t_inv[a, minus])
    nx, ny = dom.neighbors[0, 0], dom.neighbors[1, 0]
    hol = t_inv[1] @ t_inv[0, ny] @ t[1, nx] @ t[0]
    return d, centered, reverse, hol
