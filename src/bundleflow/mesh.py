"""Structured lattice domains: circle, interval, torus, rectangle, annulus.

All base metrics are flat; a warped one would put its factor into
``edge_weight`` and ``volume``, which every edge sum reads. The
two-dimensional domains are the complex curves of ``hodge``, with
z = x_0 + i x_1. Sites are indexed in C order over the axis grids
(``idx = i0 * n1 + i1`` in two dimensions). Each site carries a trapezoidal
volume weight and, per axis, a forward edge to its ``+1`` neighbour where one
exists; bounded axes drop the wrap-around edge and flag their end sites as
boundary. Annulus and rectangle domains carry an exhaustion level per site
(nested sublevel bands used by the exhaustion solver); it is zero elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

_KINDS = {
    "circle": (1, (True,)),
    "interval": (1, (False,)),
    "torus": (2, (True, True)),
    "rectangle": (2, (False, False)),
    "annulus": (2, (True, False)),
}


@dataclass(frozen=True)
class LatticeDomain:
    kind: str
    dim: int
    sites_per_axis: tuple[int, ...]
    lengths: tuple[float, ...]
    spacings: tuple[float, ...]
    periodic: tuple[bool, ...]
    n_sites: int
    neighbors: Array          # (dim, 2, n) int; [axis, {0:+,1:-}, site] -> site or -1
    volume: Array             # (n,) trapezoidal cell volumes
    edge_weight: Array        # (dim, n) quadrature weight of the forward edge, 0 if absent
    boundary: Array           # (n,) bool
    exhaustion: Array         # (n,) float, >= 0

    def coords(self) -> Array:
        """Site positions, shape (n, dim)."""
        grids = [self.spacings[a] * np.arange(self.sites_per_axis[a]) for a in range(self.dim)]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def interior_mask(self) -> Array:
        return ~self.boundary


def build_domain(
    kind: str,
    sites: int | tuple[int, ...],
    lengths: float | tuple[float, ...],
) -> LatticeDomain:
    if kind not in _KINDS:
        raise ValueError(f"unknown domain kind {kind!r}")
    dim, periodic = _KINDS[kind]
    sites_t = (sites,) if isinstance(sites, int) else tuple(int(s) for s in sites)
    lengths_t = (float(lengths),) if isinstance(lengths, (int, float)) else tuple(
        float(x) for x in lengths
    )
    if len(sites_t) != dim or len(lengths_t) != dim:
        raise ValueError(f"kind {kind!r} needs {dim} axes, got {len(sites_t)} / {len(lengths_t)}")
    if any(s < 3 for s in sites_t):
        raise ValueError("need at least 3 sites per axis")
    if not all(0 < l < np.inf for l in lengths_t):
        raise ValueError("axis lengths must be positive and finite")

    spacings = tuple(
        lengths_t[a] / sites_t[a] if periodic[a] else lengths_t[a] / (sites_t[a] - 1)
        for a in range(dim)
    )
    n = int(np.prod(sites_t))
    idx = np.arange(n).reshape(sites_t)

    neighbors = np.full((dim, 2, n), -1, dtype=np.int64)
    for a in range(dim):
        plus = np.roll(idx, -1, axis=a)
        minus = np.roll(idx, 1, axis=a)
        if not periodic[a]:
            sl_last = [slice(None)] * dim
            sl_last[a] = sites_t[a] - 1
            plus[tuple(sl_last)] = -1
            sl_first = [slice(None)] * dim
            sl_first[a] = 0
            minus[tuple(sl_first)] = -1
        neighbors[a, 0] = plus.ravel()
        neighbors[a, 1] = minus.ravel()

    # Trapezoidal volumes: half weight at each bounded-axis end.
    vol = np.ones(sites_t)
    for a in range(dim):
        w = np.full(sites_t[a], spacings[a])
        if not periodic[a]:
            w[0] *= 0.5
            w[-1] *= 0.5
        shape = [1] * dim
        shape[a] = sites_t[a]
        vol = vol * w.reshape(shape)
    volume = vol.ravel()

    cell = float(np.prod(spacings))
    edge_weight = np.zeros((dim, n))
    for a in range(dim):
        edge_weight[a, neighbors[a, 0] >= 0] = cell

    boundary = np.zeros(n, dtype=bool)
    for a in range(dim):
        if not periodic[a]:
            boundary |= neighbors[a, 0] < 0
            boundary |= neighbors[a, 1] < 0

    exhaustion = np.zeros(n)
    if kind == "annulus":
        radial = np.arange(sites_t[1], dtype=float)
        exhaustion = np.broadcast_to(radial, sites_t).ravel().copy()
    elif kind == "rectangle":
        bands = np.zeros(sites_t)
        for a in range(dim):
            c = 0.5 * (sites_t[a] - 1)
            d = np.abs(np.arange(sites_t[a]) - c)
            shape = [1] * dim
            shape[a] = sites_t[a]
            bands = np.maximum(bands, d.reshape(shape))
        bands -= bands.min()
        exhaustion = bands.ravel()

    return LatticeDomain(
        kind=kind,
        dim=dim,
        sites_per_axis=sites_t,
        lengths=lengths_t,
        spacings=spacings,
        periodic=periodic,
        n_sites=n,
        neighbors=neighbors,
        volume=volume,
        edge_weight=edge_weight,
        boundary=boundary,
        exhaustion=exhaustion,
    )


def laplacian(domain: LatticeDomain, field: Array) -> Array:
    """Second-order flat Laplacian, sign convention Δ cos(kx) = -k² cos(kx).

    The centered second difference along every axis, at the interior sites;
    boundary sites, which lack a neighbour along a bounded axis, read 0.
    """
    f = np.asarray(field)
    if f.shape[0] != domain.n_sites:
        raise ValueError("field size does not match domain")
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    shaped = f.reshape(domain.sites_per_axis + f.shape[1:])
    for a in range(domain.dim):
        term = np.roll(shaped, -1, axis=a) + np.roll(shaped, 1, axis=a) - 2 * shaped
        out += (term / domain.spacings[a] ** 2).reshape(out.shape)
    out[domain.boundary] = 0
    return out


def flat_preconditioner(domain: LatticeDomain, dt: float) -> Callable[[Array], Array]:
    """``f -> P^{-1} f`` for ``P = M + dt sum_a c_a L_a`` on the interior sites.

    The flat counterpart of the covariant Laplacian, the part of
    ``bundle.energy_hessian`` at psi = 0, which preconditions the implicit
    step: ``L_a`` is the 1-D second difference along axis a, and
    the volume M and ``c_a = w / h_a^2`` are read at the interior, where every
    domain of ``build_domain`` has them uniform. ``P`` acts alike on each
    entry of a field's trailing axes; boundary sites are read and returned as
    0. An FFT diagonalizes ``L_a`` on a periodic axis, a DST-I (the FFT of the
    odd extension) on a bounded one.
    """
    region, modes = [], []      # per axis: the interior, and dt c_a times L_a's eigenvalues
    for a in range(domain.dim):
        n_a = domain.sites_per_axis[a]
        c = domain.edge_weight[a][domain.edge_weight[a] > 0].mean() / domain.spacings[a] ** 2
        region.append(slice(None) if domain.periodic[a] else slice(1, -1))
        half = (np.pi * np.arange(n_a) / n_a if domain.periodic[a]
                else 0.5 * np.pi * np.arange(1, n_a - 1) / (n_a - 1))
        modes.append(dt * c * 4.0 * np.sin(half) ** 2)
    denom = domain.volume[domain.interior_mask()].mean() + sum(
        np.meshgrid(*modes, indexing="ij", sparse=True))

    def dst(x: Array, a: int) -> Array:
        """DST-I along axis a: (i/2) times the FFT of (0, x, 0, -reversed x) at 1..m."""
        zero = np.zeros_like(np.take(x, [0], axis=a))
        odd = np.concatenate([zero, x, zero, -np.flip(x, axis=a)], axis=a)
        return 0.5j * np.take(np.fft.fft(odd, axis=a), np.arange(1, x.shape[a] + 1), axis=a)

    def apply(f: Array) -> Array:
        grid = domain.sites_per_axis + f.shape[1:]
        x = f.reshape(grid)[tuple(region)]
        for a in range(domain.dim):
            x = np.fft.fft(x, axis=a) if domain.periodic[a] else dst(x, a)
        x = x / denom.reshape(denom.shape + (1,) * (f.ndim - 1))
        for a in range(domain.dim):     # the DST-I is its own inverse up to 2 / (m + 1)
            x = np.fft.ifft(x, axis=a) if domain.periodic[a] else dst(x, a) * (2 / (x.shape[a] + 1))
        out = np.zeros(grid, dtype=x.dtype)
        out[tuple(region)] = x
        return out.reshape(f.shape)

    return apply


def integrate(domain: LatticeDomain, field: Array) -> float:
    """Volume-weighted sum, rounded once (``math.fsum``)."""
    f = np.asarray(field, dtype=float)
    if f.shape != (domain.n_sites,):
        raise ValueError("field size does not match domain")
    return math.fsum((domain.volume * f).tolist())


def sublevel_mask(domain: LatticeDomain, level: float) -> Array:
    return domain.exhaustion <= level + 1e-9


def sublevel_domain(domain: LatticeDomain, level: float) -> tuple[LatticeDomain, Array]:
    """The sublevel band as a domain of the same family, plus a parent-index map.

    Only annulus and rectangle domains carry nontrivial exhaustion levels. The
    returned index map sends sub-domain sites to parent sites; the sub-domain
    keeps the parent spacings.
    """
    if domain.kind == "annulus":
        s = int(round(level))
        if s < 2 or s > domain.sites_per_axis[1] - 1:
            if s < 2:
                raise ValueError("sublevel has empty interior")
            raise ValueError("sublevel exceeds the domain")
        n_theta = domain.sites_per_axis[0]
        h_r = domain.spacings[1]
        sub = build_domain("annulus", (n_theta, s + 1), (domain.lengths[0], s * h_r))
        keep = sublevel_mask(domain, s)
        idx_map = np.flatnonzero(keep)
        return sub, idx_map
    if domain.kind == "rectangle":
        keep = sublevel_mask(domain, level)
        shaped = keep.reshape(domain.sites_per_axis)
        ax_keep = [np.flatnonzero(shaped.any(axis=1 - a)) for a in range(2)]
        counts = tuple(len(k) for k in ax_keep)
        if min(counts) < 3:
            raise ValueError("sublevel has empty interior")
        sub = build_domain(
            "rectangle",
            counts,
            tuple((counts[a] - 1) * domain.spacings[a] for a in range(2)),
        )
        grid = np.arange(domain.n_sites).reshape(domain.sites_per_axis)
        idx_map = grid[np.ix_(ax_keep[0], ax_keep[1])].ravel()
        return sub, idx_map
    raise ValueError(f"domain kind {domain.kind!r} has no exhaustion structure")
