"""Batched linear algebra on stacks of small complex matrices.

Every routine broadcasts over leading axes, so a whole lattice of r x r
matrices (shape ``(n, r, r)`` or ``(d, n, r, r)``) is processed in one call.
Metric-adapted operations work with H-self-adjoint operators
(``A* = H^{-1} A^dag H``), which stay diagonalizable with real spectra even
when not Hermitian as raw matrices. None solves against H: each reads its
scaled root (``scaled_sqrt``) or the root's orthonormal frame (g, g^{-1}),
H = g^dag g (``orthonormal_frame``), where A* = g^{-1} (g A g^{-1})^dag g.
``selfadjoint_part``, ``comparison_functions`` and ``metric_exp_update`` take
the root; ``adjoint``, ``endo_inner``, ``endo_norm2`` and ``exp_hsa`` the frame;
``metric_in_frame`` and ``rel_eigvals`` a reference K's g^{-1}. ``check_metric``
validates a metric and returns its root: a metric is factored where it is checked.

Products, Hermitian eigendecompositions, eigenvalues and spectral norms go
through one entry point each: ``mm``, ``eigh``, ``eigvalsh`` and
``specnorm``. Each runs a closed form when its operands are 2 x 2 matrices
and the stack holds at least ``SMALL_BATCH`` of them, and the numpy/LAPACK
routine otherwise: numpy's per-call overhead is lower, its per-matrix cost
higher (``scripts/kernel_crossover.py`` measures both). ``bundle``,
``flow``, ``hodge`` and ``analysis`` multiply stacks of site and edge
matrices only through these, and never branch on the rank.

The site-wise kernels (``sqrt_pair``, ``selfadjoint_part``, ``rel_eigvals``,
``exp_hsa``, ``metric_exp_update``) and ``bundle``'s split and
codifferential run in tiles (``tiled``): a stack of n > ``TILE`` sites is
cut into ceil(n / TILE) balanced tiles, so the temporaries are a tile's,
which stay in cache, not the whole stack's. Every output row depends only
on its own sites, and a balanced tile holds at least TILE / 2 sites, never
fewer than ``SMALL_BATCH``, so the kernel each row takes and every result
bit are those of one call on the whole stack; a stack of at most ``TILE``
sites is that one call. The tiled routines take row-aligned stacks (one row
per site in each operand).

The monodromy transports take one matrix at a time: ``schur``,
``principal_log`` and ``fractional_power`` are numpy only, and exact in the
diagonal and first superdiagonal of triangular input.
"""
from __future__ import annotations

import functools
from math import factorial
from typing import Callable

import numpy as np

Array = np.ndarray
ScaledRoot = tuple[Array, Array, Array]   # (d, Ht^{1/2}, Ht^{-1/2}), see scaled_sqrt
Frame = tuple[Array, Array]               # (g, g^{-1}), H = g^dag g, see orthonormal_frame

# Smallest stack of 2 x 2 matrices that takes the closed-form kernels; below
# it numpy's lower per-call overhead wins (crossover between 32 and 64).
SMALL_BATCH = 64

# Sites per tile of ``tiled``. In the sweep of scripts/bench_tiles.py the
# split with its tension ran 1.40-1.51 times faster than in one tile at 2048
# and 1.51-1.54 at 4096, against 1.08-1.12 at 512 and 1.00-1.27 at 16384.
# 2048 holds half the temporaries of 4096, which keeps the traced peak of a
# split with its tension below half of one tile's. Keep it at least
# 2 SMALL_BATCH, so that a balanced tile takes the closed forms.
TILE = 2048

# ``check_metric`` refuses a site whose anti-Hermitian part exceeds
# HERMITIAN_RTOL times its norm.
HERMITIAN_RTOL = 1e-12

# ``principal_log`` counts an eigenvalue below LOG_TOL as zero, and one within
# LOG_TOL (relative) of the nonpositive real axis as on it.
LOG_TOL = 1e-12


def _rows(arg, piece: slice):
    if isinstance(arg, tuple):
        return tuple(a[piece] for a in arg)
    return arg[piece] if np.ndim(arg) else arg


def tiled(fn: Callable, *stacks, out: tuple[Array, ...] | None = None,
          at: Array | None = None):
    """``fn(*stacks)``, computed over balanced tiles of at most ``TILE`` sites.

    Each stack is an array whose first axis runs over the sites or a tuple
    of such arrays (a ``ScaledRoot``, a ``Frame``); the first is an array. Arguments
    of no dimension (None, a scale) go to every tile as they are. ``fn``
    returns an array or a tuple of arrays with one row per site, and row i
    of each may depend only on row i of the stacks. n sites take
    c = ceil(n / TILE) tiles, tile i the sites from i n // c to
    (i + 1) n // c, so the sizes differ by at most one site. The rows of
    each tile go into ``out``, at rows ``at[tile]`` when ``at`` is given, or
    into arrays shaped from the first tile's results. Without ``out``, a
    stack of at most TILE sites is one call of ``fn`` on the stacks
    themselves.
    """
    n = len(stacks[0])
    count = -(-n // TILE)
    if count <= 1 and out is None:
        return fn(*stacks)
    single = False
    for i in range(count):
        piece = slice(i * n // count, (i + 1) * n // count)
        res = fn(*(_rows(s, piece) for s in stacks))
        single = not isinstance(res, tuple)
        res = (res,) if single else res
        if out is None:
            out = tuple(np.empty((n,) + r.shape[1:], dtype=r.dtype) for r in res)
        rows = piece if at is None else at[piece]
        for o, r in zip(out, res):
            o[rows] = r
    return out[0] if single else out


def dagger(a: Array) -> Array:
    """The conjugate transpose over the last two axes of an array (of a real one, a view)."""
    return a.swapaxes(-1, -2).conj()


def hermitize(a: Array) -> Array:
    return 0.5 * (a + dagger(a))


def frobenius(a: Array) -> Array:
    """Frobenius norm over the last two axes."""
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))


def specnorm(a: Array) -> Array:
    """Spectral norm (largest singular value) over the last two axes.

    The square root of the largest eigenvalue of A^dag A, through ``mm`` and
    ``eigvalsh``, so 2 x 2 stacks take the closed forms. It keeps full
    relative precision while the entries of A^dag A neither overflow nor
    underflow (|A| between about 1e-154 and 1e154). A single matrix gives a
    0-d result.
    """
    return np.sqrt(eigvalsh(mm(dagger(a), a))[..., -1])


def trace(a: Array) -> Array:
    return np.einsum("...ii->...", a)


def commutator(a: Array, b: Array) -> Array:
    return mm(a, b) - mm(b, a)


def _closed_form(a: Array, b: Array) -> bool:
    """True when both operands are 2 x 2 stacks and one holds SMALL_BATCH matrices.

    Called once per kernel call, so it reads only shapes and sizes: small
    stacks pay for this test on top of numpy's own per-call overhead.
    """
    gate = 4 * SMALL_BATCH
    return (a.size >= gate or b.size >= gate) and a.shape[-2:] == (2, 2) == b.shape[-2:]


def mm(a: Array, b: Array) -> Array:
    """Batched matrix product ``a @ b``."""
    return _mm2(a, b) if _closed_form(a, b) else a @ b


def eigvalsh(a: Array) -> Array:
    """Ascending eigenvalues of a Hermitian stack, as ``np.linalg.eigvalsh``."""
    return _eigvalsh2(a) if _closed_form(a, a) else np.linalg.eigvalsh(a)


def eigh(a: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues and orthonormal eigenvectors, as ``np.linalg.eigh``."""
    return _eigh2(a) if _closed_form(a, a) else np.linalg.eigh(a)


def _mm2(a: Array, b: Array) -> Array:
    """Product of 2 x 2 stacks, entry by entry."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _eig2(a: Array) -> tuple[Array, Array, tuple[Array, Array, Array, Array]]:
    """Ascending eigenvalues (lo, hi) of Hermitian 2 x 2 stacks, and rotation data.

    The matrix is [[p, c], [conj c, q]], read from the diagonal and the lower
    triangle as LAPACK does. The eigenvalue of larger modulus, m + sign(m) r
    with m = (p + q)/2 and r = hypot((p - q)/2, |c|), has no cancellation; the
    other is det / that one with det = p q - |c|^2 (LAPACK's dlaev2 rule).
    The plain m - r cancels to zero for graded metrics like diag(e^t, e^-t)
    + O(1) coupling, whose small eigenvalue this keeps to full relative
    precision. The rotation data are (p - q)/2, r, c and |c|.
    """
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    c = np.conj(a[..., 1, 0])
    m = 0.5 * (p + q)
    half = 0.5 * (p - q)
    ac = np.abs(c)
    r = np.hypot(half, ac)
    neg = m < 0.0
    big = np.where(neg, m - r, m + r)
    nonzero = big != 0.0
    small = np.where(nonzero, (p * q - ac * ac) / np.where(nonzero, big, 1.0), 0.0)
    return np.where(neg, big, small), np.where(neg, small, big), (half, r, c, ac)


def _eigvalsh2(a: Array) -> Array:
    lo, hi, _ = _eig2(a)
    return np.stack([lo, hi], axis=-1)


def _eigh2(a: Array) -> tuple[Array, Array]:
    """Eigen-decomposition of Hermitian 2 x 2 stacks by one complex Jacobi rotation.

    See Golub & Van Loan, Matrix Computations, 8.5. The eigenvector (x, y) of
    the larger eigenvalue m + r is (half + r, conj c) for half >= 0 and
    (c, r - half) otherwise, so neither component cancels; the other
    eigenvector is its orthogonal complement (-conj y, conj x). Exactly
    diagonal or degenerate matrices get unit vectors, without a 0/0.
    """
    lo, hi, (half, r, c, ac) = _eig2(a)
    s = r + np.abs(half)
    up = half >= 0.0
    norm = np.hypot(s, ac)
    found = norm > 0.0
    inv = 1.0 / np.where(found, norm, 1.0)
    x = np.where(found, np.where(up, s, c) * inv, 1.0)
    y = np.where(up, np.conj(c), s) * inv
    v = np.empty(lo.shape + (2, 2), dtype=complex)
    v[..., 0, 0] = -np.conj(y)
    v[..., 1, 0] = np.conj(x)
    v[..., 0, 1] = x
    v[..., 1, 1] = y
    return np.stack([lo, hi], axis=-1), v


def diagonal_scaling(h: Array) -> tuple[Array, Array]:
    """(d, D^{-1} H D^{-1}) with d = sqrt(diag H) for a Hermitian positive field.

    The unit-diagonal metric is typically far better conditioned than H
    itself: for a graded metric diag(e^{-t}, e^{t}) + O(1) coupling it stays
    near the identity while cond H grows like e^{2t}. Matrix products and sums
    commute with the diagonal similarity term by term, so only the
    factorizations (eigh, solve) need to run in the scaled frame.
    """
    d = np.sqrt(np.einsum("...ii->...i", h).real)
    return d, h / (d[..., :, None] * d[..., None, :])


def selfadjoint_part(a: Array, metric: Array, root: ScaledRoot) -> Array:
    """H-self-adjoint part 0.5 (A + H^{-1} A^dag H), in the scaled frame.

    ``root`` is ``scaled_sqrt(metric)``: Ht^{-1} Y is formed as
    Ht^{-1/2} (Ht^{-1/2} Y), with no solve. The scaled frame's d is taken
    from ``metric``, not from the root: a conformal split's root carries
    d e^{f/2} (``bundle.conformal_split``), which can differ from
    sqrt(diag(H e^f)) in the last bit.
    """
    if len(a) > TILE:
        return tiled(selfadjoint_part, a, metric, root)
    d, ht = diagonal_scaling(metric)
    ratio = d[..., :, None] / d[..., None, :]
    at = a * ratio
    y = mm(dagger(at), ht)
    return 0.5 * (at + mm(root[2], mm(root[2], y))) / ratio


def endo_inner(a: Array, b: Array, frame: Frame) -> Array:
    """Re tr(A B*), B* the metric adjoint: Re tr(X Y^dag) for X, Y = ``to_frame`` of A, B."""
    return np.einsum("...ij,...ij->...", to_frame(a, frame), np.conj(to_frame(b, frame))).real


def endo_norm2(a: Array, frame: Frame) -> Array:
    return endo_inner(a, a, frame)    # a sum of squares, never below 0


def hsa_norm2(a: Array) -> Array:
    """Re tr(A A) per site of an (n, r, r) field: the squared H-norm when A is
    H-self-adjoint (A* = A), with no solve. It may round below 0."""
    return np.einsum("nij,nji->n", a, a).real


def hsa_norm(a: Array) -> Array:
    """The H-norm sqrt(max(Re tr(A A), 0)) per site of an H-self-adjoint field."""
    return np.sqrt(np.maximum(hsa_norm2(a), 0.0))


def tracefree(a: Array) -> Array:
    r = a.shape[-1]
    return a - (trace(a) / r)[..., None, None] * np.eye(r, dtype=complex)


def tracefree_norm(a: Array) -> Array:
    """``hsa_norm(tracefree(a))`` per site of an H-self-adjoint field, over ``tiled`` sites."""
    if len(a) > TILE:
        return tiled(tracefree_norm, a)
    return hsa_norm(tracefree(a))


def hermitian_basis(r: int) -> list[Array]:
    """A real basis of the r x r Hermitian matrices.

    The r diagonal units first, then for each pair i < j the symmetric unit
    E_ij + E_ji followed by the antisymmetric i (E_ij - E_ji).
    """
    basis: list[Array] = []
    for i in range(r):
        e = np.zeros((r, r), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(r):
        for j in range(i + 1, r):
            e = np.zeros((r, r), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            f = np.zeros((r, r), dtype=complex)
            f[i, j] = 1.0j
            f[j, i] = -1.0j
            basis.append(f)
    return basis


def _not_hermitian(h: Array) -> Array:
    return frobenius(h - dagger(h)) > HERMITIAN_RTOL * np.maximum(frobenius(h), 1e-300)


def check_metric(h: Array) -> ScaledRoot:
    """Validate a metric field and return ``scaled_sqrt(h)``, whose eigendecomposition
    is the positivity check: everything measured against the metric reads this root.

    The field must be finite, Hermitian within ``HERMITIAN_RTOL`` (over ``tiled``
    sites) and positive definite; it is read for finiteness once.
    """
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise ValueError("metric field is not finite")
    if tiled(_not_hermitian, h).any():
        raise ValueError("metric field is not Hermitian within tolerance")
    return _scaled_root(h)


def _eigh_build(w: Array, v: Array, f: Array) -> Array:
    """Assemble V diag(f) V^dag from eigh output."""
    return mm(v * f[..., None, :], dagger(v))


def sqrt_pair(h: Array) -> tuple[Array, Array]:
    """(H^{1/2}, H^{-1/2}) for a Hermitian positive field."""
    if len(h) > TILE:
        return tiled(sqrt_pair, h)
    w, v = eigh(h)
    if (w <= 0.0).any():
        raise ValueError("field is not positive definite")
    s = np.sqrt(w)
    return _eigh_build(w, v, s), _eigh_build(w, v, 1.0 / s)


def scaled_sqrt(h: Array) -> ScaledRoot:
    """(d, Ht^{1/2}, Ht^{-1/2}) with H = D Ht D, the scaled-frame square root of H.

    ``d = sqrt(diag H)`` as in ``diagonal_scaling``. Through ``check_metric``
    this is the one eigendecomposition a flow trial takes of its metric:
    ``split_metric`` gathers it at the edge tails for ``comparison_functions``,
    and the flow hands it on to ``metric_exp_update`` for the next step. It is
    a pure function of H, so sharing it changes no bit of the results.
    Raises the ``check_metric`` positivity error unless H is finite with a
    positive diagonal and Ht is positive definite, so no NaN enters the frame.
    """
    if not np.isfinite(h).all():
        raise ValueError("metric field is not finite")
    return _scaled_root(h)


def _scaled_root(h: Array) -> ScaledRoot:
    """``scaled_sqrt`` of a finite field h, whose diagonal and Ht it checks for positivity."""
    if (np.einsum("...ii->...i", h).real <= 0.0).any():
        raise ValueError("metric field is not positive definite")
    d, ht = diagonal_scaling(h)
    try:
        a, ai = sqrt_pair(ht)
    except ValueError:
        raise ValueError("metric field is not positive definite") from None
    return d, a, ai


def orthonormal_frame(root: ScaledRoot) -> Frame:
    """(g, g^{-1}) with g = Ht^{1/2} D, so H = g^dag g, from ``scaled_sqrt(H)``.

    An H-self-adjoint A corresponds to the Hermitian g A g^{-1}, and an
    H-isometry V between two fibers to the unitary g(y) V g(x)^{-1}.
    """
    d, a, ai = root
    return a * d[..., None, :], ai / d[..., :, None]


def to_frame(a: Array, frame: Frame) -> Array:
    """g A g^{-1} in the ``frame`` (g, g^{-1}) of H: Hermitian for an H-self-adjoint A."""
    return mm(mm(frame[0], a), frame[1])


def from_frame(x: Array, frame: Frame) -> Array:
    """g^{-1} X g, the inverse of ``to_frame``."""
    return mm(mm(frame[1], x), frame[0])


def adjoint(a: Array, frame: Frame) -> Array:
    """The metric adjoint A* = H^{-1} A^dag H = g^{-1} (g A g^{-1})^dag g."""
    return from_frame(dagger(to_frame(a, frame)), frame)


def metric_in_frame(h: Array, g_inv: Array) -> Array:
    """g^{-dag} H g^{-1} for g^{-1} of K's frame: Hermitian, and its ``from_frame`` is K^{-1} H."""
    return hermitize(mm(mm(dagger(g_inv), h), g_inv))


def comparison_functions(root: ScaledRoot, delta: Array) -> tuple[Array, Array, Array]:
    """log P, P^{-1/2} - I and P^{1/2} - I for P = I + Hx^{-1} Delta.

    ``Delta`` is the Hermitian difference ``M - Hx`` between a pulled-back
    metric M and Hx, supplied directly so that an edge comparison P close to
    the identity is never formed and then subtracted from it: every output is
    carried as a small quantity. The eigenproblem Delta v = mu Hx v is solved
    in the diagonally scaled frame of Hx (see ``diagonal_scaling``) and the
    functions are applied through log1p / expm1, which keeps full relative
    precision for edge logarithms far below machine epsilon even when Hx is
    graded over many orders of magnitude. ``root`` is ``scaled_sqrt(Hx)``.
    """
    d, a, ai = root
    scaled = delta / (d[..., :, None] * d[..., None, :])
    mu, v = eigh(hermitize(mm(mm(ai, scaled), ai)))
    if (mu <= -1.0).any():
        raise ValueError("pulled-back metric is not positive definite")
    left = mm(ai, v) / d[..., :, None]
    right = mm(dagger(v), a) * d[..., None, :]
    lg = np.log1p(mu)

    def build(f: Array) -> Array:
        return mm(left * f[..., None, :], right)

    return build(lg), build(np.expm1(-0.5 * lg)), build(np.expm1(0.5 * lg))


def rel_eigvals(h: Array, g_inv: Array) -> Array:
    """Eigenvalues of the relative endomorphism K^{-1}H (real, positive).

    Those of ``metric_in_frame(h, g_inv)`` for ``g_inv``, g^{-1} of K's frame.
    """
    if len(h) > TILE:
        return tiled(rel_eigvals, h, g_inv)
    return eigvalsh(metric_in_frame(h, g_inv))


def donaldson_sigma(lam: Array) -> Array:
    """tr(K^{-1}H) + tr(H^{-1}K) - 2r per site from the relative eigenvalues ``lam``,
    summed as sum((lambda - 1)^2 / lambda): no cancellation against 2r near H = K."""
    return ((lam - 1.0) ** 2 / lam).sum(axis=-1)


def exp_hsa(q: Array, frame: Frame, scale: float) -> Array:
    """exp(scale * Q) for an H-self-adjoint Q, through the Hermitian g Q g^{-1}."""
    if len(q) > TILE:
        return tiled(exp_hsa, q, frame, scale)
    e, v = eigh(hermitize(to_frame(q, frame)))
    return from_frame(_eigh_build(e, v, np.exp(scale * e)), frame)


def metric_exp_update(q: Array, scale: float, root: ScaledRoot) -> Array:
    """H exp(scale * Q) for H-self-adjoint Q; Hermitian positive by construction.

    ``root`` is ``scaled_sqrt(H)``, all of H that the update reads: in the
    scaled frame (H = D Ht D, Qt = D Q D^{-1}) the product equals D A exp(scale S) A D
    with A = Ht^{1/2} and S = A Qt A^{-1} Hermitian, manifestly positive for
    any step size and accurate for graded H.
    """
    if len(q) > TILE:
        return tiled(metric_exp_update, q, scale, root)
    d, a, ai = root
    s = hermitize(mm(mm(a, q * (d[..., :, None] / d[..., None, :])), ai))
    e, v = eigh(s)
    inner = hermitize(mm(mm(a, _eigh_build(e, v, np.exp(scale * e))), a))
    return inner * (d[..., :, None] * d[..., None, :])


def schur(m: Array) -> tuple[Array, Array]:
    """Complex Schur form (Q, T) of a square m: m = Q T Q^dag, Q unitary, T upper triangular.

    Hessenberg reduction, then shifted QR sweeps (Wilkinson shift, an
    exceptional one every tenth) until each bottom row deflates (Golub & Van
    Loan, 7.4-7.5). A triangular m deflates at once: (I, m) exactly.
    """
    t = np.array(m, dtype=complex)
    n = len(t)
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = t[k + 1:, k]
        if np.any(x[1:]):
            v = x.copy()
            v[0] += np.exp(1j * np.angle(x[0])) * np.linalg.norm(x)
            v /= np.linalg.norm(v)
            t[k + 1:] -= 2.0 * np.outer(v, v.conj() @ t[k + 1:])
            t[:, k + 1:] -= 2.0 * np.outer(t[:, k + 1:] @ v, v.conj())
            q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v.conj())
    hi, sweeps = n - 1, 0
    while hi > 0:
        a, b, c, d = t[hi - 1, hi - 1], t[hi - 1, hi], t[hi, hi - 1], t[hi, hi]
        if np.abs(t[hi, :hi]).max() <= np.finfo(float).eps * (abs(a) + abs(d)):
            t[hi, :hi] = 0.0
            hi, sweeps = hi - 1, 0
            continue
        sweeps += 1
        if sweeps > 30 * n:
            raise np.linalg.LinAlgError("Schur iteration did not converge")
        half = 0.5 * (a - d)
        root = np.sqrt(half * half + b * c)
        den = max(half + root, half - root, key=abs)
        mu = d + abs(c) if sweeps % 10 == 0 else d - (b * c / den if den != 0 else 0.0)
        g = np.linalg.qr(t[:hi + 1, :hi + 1] - mu * np.eye(hi + 1))[0]
        t[:hi + 1] = dagger(g) @ t[:hi + 1]
        t[:, :hi + 1] = t[:, :hi + 1] @ g
        q[:, :hi + 1] = q[:, :hi + 1] @ g
    return q, t


# Bounds on alpha_2(T^(1/2^s) - I) for the degree-m Pade logarithm, m = 1..7,
# to be exact to unit roundoff (Al-Mohy & Higham 2012, table 2.1).
_LOG_THETA = (1.59e-5, 2.31e-3, 1.94e-2, 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1)
# [13/13] Pade coefficients of exp, and the 1-norm it takes unscaled (Higham 2005).
_EXP_PADE = tuple(factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k)
                                                       * factorial(13 - k)) for k in range(14))
_EXP_THETA = 5.371920351148152


def _sqrt_triu(t: Array) -> Array:
    """Principal square root of an upper-triangular t (Bjorck & Hammarling 1983)."""
    u = np.diag(np.sqrt(np.diag(t)))
    for j in range(1, len(t)):
        for i in range(j - 1, -1, -1):
            u[i, j] = (t[i, j] - u[i, i + 1:j] @ u[i + 1:j, j]) / (u[i, i] + u[j, j])
    return u


def _log_superdiag(l1: complex, l2: complex, t12: complex) -> complex:
    """Entry (i, i+1) of log T from T's entries (Higham 2008, (11.28)), as scipy's logm."""
    if l1 == l2:
        return t12 / l1
    if abs(l2 - l1) > abs(l1 + l2) / 2:
        return t12 * (np.log(l2) - np.log(l1)) / (l2 - l1)
    unwind = np.ceil(((np.log(l2) - np.log(l1)).imag - np.pi) / (2 * np.pi))
    return t12 * 2 * (np.arctanh((l2 - l1) / (l2 + l1)) + np.pi * 1j * unwind) / (l2 - l1)


@functools.cache
def _legendre(m: int) -> tuple[Array, Array]:
    """The m-point Gauss-Legendre nodes and weights on [-1, 1], computed once per m."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _log_triu(t: Array) -> Array:
    """Principal log of an upper-triangular t: inverse scaling and squaring.

    Al-Mohy & Higham 2012, Algorithm 4.1 with exact 1-norms: 2^s r_m(R),
    R = T^(1/2^s) - I, as Gauss-Legendre partial fractions; then the
    diagonal and first superdiagonal in closed form.
    """
    n = len(t)
    root, s = t, 0
    while True:
        r = root - np.eye(n)
        alpha = max(np.linalg.norm(r @ r, 1) ** 0.5, np.linalg.norm(r @ r @ r, 1) ** (1 / 3))
        if alpha <= _LOG_THETA[-1]:
            break
        root, s = _sqrt_triu(root), s + 1
    m = next(k for k, theta in enumerate(_LOG_THETA, 1) if alpha <= theta)
    u = 2.0 ** s * sum(0.5 * w * np.linalg.solve(np.eye(n) + 0.5 * (1.0 + x) * r, r)
                       for x, w in zip(*_legendre(m)))
    lam = np.diag(t)
    u[np.diag_indices(n)] = np.log(lam)
    for i in range(n - 1):
        u[i, i + 1] = _log_superdiag(lam[i], lam[i + 1], t[i, i + 1])
    return u


def _expm(a: Array) -> Array:
    """exp(a) by [13/13] Pade with scaling and squaring (Higham 2005).

    For an upper-triangular a the diagonal and first superdiagonal are set
    in closed form at every squaring (Al-Mohy & Higham 2009, Code Fragment
    2.1): exp(a_ii), and a_i,i+1 times exp's divided difference.
    """
    n = len(a)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _EXP_THETA)))) if norm > 0.0 else 0
    powers = [np.eye(n)]
    for _ in _EXP_PADE[1:]:
        powers.append(powers[-1] @ (a * 2.0 ** -s))
    # r(x) = (even + odd) / (even - odd) = I + 2 odd / (even - odd): near the
    # identity only the small part is rounded.
    odd = sum(c * p for c, p in zip(_EXP_PADE[1::2], powers[1::2]))
    even = sum(c * p for c, p in zip(_EXP_PADE[::2], powers[::2]))
    f = np.eye(n) + 2.0 * np.linalg.solve(even - odd, odd)
    triangular = not np.any(np.tril(a, -1))
    for i in range(s, -1, -1):
        f = f if i == s else f @ f
        if triangular:
            lam = np.diag(a) * 2.0 ** -i
            half = 0.5 * (lam[1:] - lam[:-1])
            sinch = np.where(half == 0, 1.0, np.sinh(half) / np.where(half == 0, 1.0, half))
            f[np.diag_indices(n)] = np.exp(lam)
            f[np.arange(n - 1), np.arange(1, n)] = (np.diag(a, 1) * 2.0 ** -i
                                                    * np.exp(0.5 * (lam[1:] + lam[:-1])) * sinch)
    return np.triu(f) if triangular else f


def principal_log(m: Array) -> Array:
    """Principal matrix logarithm Q log(T) Q^dag; rejects spectra touching the closed negative axis.

    A pure function of ``m``, on its Schur form (``schur``). For a triangular
    m, Q = I and the diagonal and first superdiagonal are closed forms:
    log [[1, 1], [0, 1]] is exactly [[0, 1], [0, 0]], and log diag(lambda)
    exactly diag(log lambda).
    """
    if not np.all(np.isfinite(m)):  # its scaling and squaring would not end
        raise ValueError("matrix is not finite; no logarithm")
    q, t = schur(m)
    lam = np.diag(t)
    if np.any(np.abs(lam) < LOG_TOL):
        raise ValueError("matrix is singular; no logarithm")
    if np.any((lam.real <= 0.0) & (np.abs(lam.imag) <= LOG_TOL * np.abs(lam))):
        raise ValueError(
            "eigenvalue on the nonpositive real axis; supply an explicit logarithm branch"
        )
    return q @ _log_triu(t) @ dagger(q)


def fractional_power(m: Array, t: float, log: Array | None = None) -> Array:
    """m^t = exp(t log m), with the principal log or the given branch ``log``.

    For a triangular m the log is triangular, and the power's diagonal is
    exp(t log lambda) in complex arithmetic and its first superdiagonal
    t12 (lambda2^t - lambda1^t) / (lambda2 - lambda1), t12 t lambda^(t-1) for
    equal eigenvalues: [[1, 1], [0, 1]]^(1/16) is [[1, 1/16], [0, 1]] to the
    last bit.
    """
    lg = principal_log(m) if log is None else np.asarray(log, dtype=complex)
    return _expm(t * lg)


def _perfect_matching(adjacent: Array) -> bool:
    """Whether every row of ``adjacent[row, col]`` gets a column of its own (augmenting paths)."""
    owner = [-1] * adjacent.shape[1]

    def augment(row: int, seen: set[int]) -> bool:
        for col in np.flatnonzero(adjacent[row]):
            if col not in seen:
                seen.add(col)
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(adjacent.shape[0]))


def spectrum_distance(a: Array, b: Array) -> float:
    """Optimal-matching (bottleneck) distance between the eigenvalue multisets of a and b.

    The least eigenvalue gap t at which the pairs within t match every eigenvalue.
    """
    gaps = np.abs(np.linalg.eigvals(a)[:, None] - np.linalg.eigvals(b)[None, :])
    return float(next(t for t in np.unique(gaps) if _perfect_matching(gaps <= t)))
